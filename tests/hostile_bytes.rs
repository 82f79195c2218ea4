//! The two text parsers a user feeds files to, under hostile bytes:
//! `ReproScript::parse` (`anduril replay <case> FILE`) and
//! `anduril_logdiff::parse_log` (the failure log a search starts from).
//!
//! Deterministically, as the trace reader's own test does: every line of
//! the 22 tickets' scripts and failure logs cut at every byte, and with
//! one byte replaced and one inserted at every position, drawn in turn
//! from the bytes each format is made of (an invalid UTF-8 byte among
//! them). Nothing may panic; a script that parses must round-trip through
//! `to_text`.

use anduril::failures::all_cases;
use anduril::logdiff::parse_log;
use anduril::sim::InjectionPlan;
use anduril::ReproScript;

/// The script that replays each ticket's ground truth, and the failure
/// log that run renders.
fn inputs() -> Vec<(ReproScript, String)> {
    all_cases()
        .into_iter()
        .map(|case| {
            let gt = case.ground_truth().expect("ground truth");
            let plan = InjectionPlan::exact(gt.site, gt.occurrence, gt.exc);
            let log = case.scenario.run(gt.seed, plan).expect("run").log_text();
            let script = ReproScript {
                seed: gt.seed,
                site: gt.site,
                occurrence: gt.occurrence,
                exc: gt.exc,
                desc: case.root_site_desc.to_string(),
            };
            (script, log)
        })
        .collect()
}

/// Calls `check` on `line` cut at every byte and with one byte from
/// `byte` replaced and one inserted at every position.
fn mutants(line: &str, byte: &mut impl FnMut() -> u8, check: &mut impl FnMut(&str)) {
    let bytes = line.as_bytes();
    for at in 0..=bytes.len() {
        let mut replaced = bytes.to_vec();
        if let Some(b) = replaced.get_mut(at) {
            *b = byte();
        }
        let mut inserted = bytes.to_vec();
        inserted.insert(at, byte());
        for mutant in [&bytes[..at], &replaced[..], &inserted[..]] {
            check(&String::from_utf8_lossy(mutant));
        }
    }
}

/// An endless draw from `alphabet`.
fn draw(alphabet: &'static [u8]) -> impl FnMut() -> u8 {
    let mut cycle = alphabet.iter().copied().cycle();
    move || cycle.next().expect("cycles")
}

/// What `parse` accepts renders through `to_text` to a script that reads
/// back to the same one.
fn reads_back(text: &str) {
    if let Some(script) = ReproScript::parse(text) {
        let again = script.to_text();
        assert_eq!(
            ReproScript::parse(&again),
            Some(script),
            "{text:?}\nrendered as\n{again:?}"
        );
    }
}

#[test]
fn the_script_parser_survives_hostile_bytes() {
    let mut byte = draw(b"=# \t\r\n+-.0123456789aeinostxIOE\xff");
    for (script, _) in inputs() {
        let text = script.to_text();
        assert_eq!(ReproScript::parse(&text).as_ref(), Some(&script));
        for at in 0..=text.len() {
            reads_back(&String::from_utf8_lossy(&text.as_bytes()[..at]));
        }
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            mutants(line, &mut byte, &mut |mutant| {
                let mut mangled = lines.clone();
                mangled[i] = mutant;
                reads_back(&(mangled.join("\n") + "\n"));
            });
        }
    }
}

/// Each line of the 22 failure logs mangled alone; and, for every eighth
/// line, the whole log with that line mangled, which keeps every other
/// record, and the whole log cut inside that line.
#[test]
fn the_log_parser_survives_hostile_bytes() {
    let mut byte = draw(b"0123456789 []:-\tINFOWARNERROR.atIOException\xff");
    for (_, log) in inputs() {
        let records = parse_log(&log).len();
        let lines: Vec<&str> = log.lines().collect();
        let mut start = 0;
        for (i, line) in lines.iter().enumerate() {
            mutants(line, &mut byte, &mut |mutant| {
                parse_log(mutant);
            });
            let (end, mid) = (start + line.len(), start + line.len() / 2);
            if i % 8 == 0 {
                let mut mangled = line.as_bytes().to_vec();
                if let Some(b) = mangled.get_mut(line.len() / 2) {
                    *b = byte();
                }
                let mangled = String::from_utf8_lossy(&mangled);
                let whole = format!("{}{mangled}{}", &log[..start], &log[end..]);
                let kept = parse_log(&whole).len();
                assert!(
                    kept + 1 >= records && kept <= records,
                    "line {i} mangled to {mangled:?}: {kept} of {records} records"
                );
                parse_log(&String::from_utf8_lossy(&log.as_bytes()[..mid]));
            }
            start = end + 1;
        }
    }
}
