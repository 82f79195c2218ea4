//! The compiled template matcher against its reference.
//!
//! `SearchContext::prepare` maps every failure-only log entry to its most
//! specific template through `CompiledProgram::best_template`, which
//! searches pre-split literals indexed by the whole leading literal (the
//! templates whose leading literal the body starts with sit on one chain
//! of a sorted table). The reference is the definition it replaced: a
//! linear scan of every template through `LogTemplate::matches`, the one
//! with the most literal text winning, ties by id. They must agree on
//! every body a search can meet — and on the shapes no corpus is sure to
//! contain: literals nested in each other many deep, generated at random
//! over two letters.

use anduril::failures::all_cases;
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::ir::builder::ProgramBuilder;
use anduril::ir::lower::compile;
use anduril::ir::{Level, Program, TemplateId};
use anduril::logdiff::parse_log;

fn reference(program: &Program, body: &str) -> Option<TemplateId> {
    program
        .templates
        .iter()
        .enumerate()
        .filter(|(_, t)| t.matches(body))
        .map(|(i, _)| TemplateId(i as u32))
        .max_by_key(|t| {
            let text = &program.templates[t.index()].text;
            (
                text.len() - 2 * text.matches("{}").count(),
                std::cmp::Reverse(t.0),
            )
        })
}

/// Checks every entry of a failure log; returns `(entries, matched)`.
fn check_log(name: &str, program: &Program, failure_log: &str) -> (usize, usize) {
    let compiled = compile(program);
    let entries = parse_log(failure_log);
    let mut matched = 0;
    for entry in &entries {
        let expected = reference(program, &entry.body);
        assert_eq!(
            compiled.best_template(&entry.body),
            expected,
            "{name}: body {:?}",
            entry.body
        );
        matched += expected.is_some() as usize;
    }
    (entries.len(), matched)
}

#[test]
fn every_ticket_entry_maps_to_the_reference_template() {
    let (mut entries, mut matched) = (0, 0);
    for case in all_cases() {
        let failure_log = case.failure_log().expect("failure log");
        let (e, m) = check_log(case.id, &case.scenario.program, &failure_log);
        entries += e;
        matched += m;
    }
    assert!(
        entries > 500 && matched > entries / 2,
        "{matched} of {entries}"
    );
}

/// `e2e --smoke`'s corpus: 6 small, 3 medium and 1 large program.
#[test]
fn every_generated_entry_maps_to_the_reference_template() {
    let (mut entries, mut matched) = (0, 0);
    for (size, count) in [
        (SizeClass::Small, 6),
        (SizeClass::Medium, 3),
        (SizeClass::Large, 1),
    ] {
        let cfg = GenConfig {
            seed: 0xA11D,
            size,
            multi_fault: false,
        };
        for index in 0..count {
            let gc = generate_one(&cfg, index).expect("generated case");
            let name = format!("{size}-{index:02}");
            let (e, m) = check_log(&name, &gc.case.scenario.program, &gc.failure_log);
            entries += e;
            matched += m;
        }
    }
    assert!(
        entries > 500 && matched > entries / 2,
        "{matched} of {entries}"
    );
}

/// Shapes chosen to break an index: no leading literal, adjacent holes,
/// nothing but a hole, the empty template, one template's literal a prefix
/// of another's, specificity ties, repeated literals.
#[test]
fn hand_picked_shapes_map_to_the_reference_template() {
    let templates = [
        "",
        "{}",
        "{}{}",
        "{} done",
        "{}{} done",
        "sync",
        "sync {}",
        "sync {} of {}",
        "sync failed",
        "sync failed: {}",
        "sync{}{}failed",
        "a{}a{}a",
        "ab{}",
        "{}ab",
        "x {} y",
        "x {} z",
        "é{}",
    ];
    let program = program_logging(&templates.map(String::from));
    let compiled = compile(&program);
    let bodies = [
        "",
        " ",
        "done",
        " done",
        "all done",
        "sync",
        "sync ",
        "sync 3",
        "sync 3 of 4",
        "sync failed",
        "sync failed: disk",
        "sync failed: ",
        "syncfailed",
        "sync-failed",
        "sync 1 of 2 failed",
        "synchronised",
        "syn",
        "a",
        "aa",
        "aaa",
        "aaaa",
        "abab",
        "ab",
        "abc",
        "cab",
        "x 1 y",
        "x  z",
        "x y",
        "é",
        "é1",
        "è1",
        "unmatched by anything, surely",
    ];
    let mut matched = 0;
    for body in bodies {
        let expected = reference(&program, body);
        assert_eq!(compiled.best_template(body), expected, "body {body:?}");
        matched += expected.is_some() as usize;
    }
    // `{}` matches everything, so only per-template checks can fail to
    // match: each template against each body, one by one.
    assert_eq!(matched, bodies.len());
    for (t, template) in program.templates.iter().enumerate() {
        for body in bodies {
            assert_eq!(
                compiled.template_matches(TemplateId(t as u32), body),
                template.matches(body),
                "template {:?} body {body:?}",
                template.text
            );
        }
    }
}

/// A program that logs each of `templates` once.
fn program_logging(templates: &[String]) -> Program {
    let mut pb = ProgramBuilder::new("shapes");
    let main = pb.declare("main", 0);
    pb.body(main, |b| {
        for text in templates {
            let holes = text.matches("{}").count();
            b.log(Level::Info, text, vec![anduril::ir::expr::int(0); holes]);
        }
    });
    pb.finish().expect("program")
}

/// Over a two-letter alphabet every literal is a prefix of many others, so
/// a body's chain of leading literals is several entries deep and most
/// groups hold more than one template: what the index has to get right and
/// the corpora barely exercise.
#[test]
fn random_nested_literals_map_to_the_reference_template() {
    let mut state = 0xA11D_u64;
    let mut below = move |n: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    let (mut bodies, mut matched, mut deepest) = (0, 0, 0);
    for _ in 0..40 {
        let mut templates: Vec<String> = (0..1 + below(40))
            .map(|_| {
                (0..below(7))
                    .map(|_| ["a", "b", "ab", "{}"][below(4) as usize])
                    .collect()
            })
            .collect();
        templates.sort();
        templates.dedup();
        let program = program_logging(&templates);
        let compiled = compile(&program);
        for _ in 0..200 {
            let body: String = (0..below(9))
                .map(|_| ["a", "b"][below(2) as usize])
                .collect();
            let expected = reference(&program, &body);
            assert_eq!(
                compiled.best_template(&body),
                expected,
                "templates {templates:?} body {body:?}"
            );
            bodies += 1;
            matched += expected.is_some() as usize;
            let leading = |t: &String| t.split("{}").next().unwrap_or("").to_string();
            let chain = (templates.iter().map(leading))
                .filter(|l| !l.is_empty() && body.starts_with(l.as_str()))
                .collect::<std::collections::BTreeSet<_>>();
            deepest = deepest.max(chain.len());
        }
    }
    assert!(matched > bodies / 2, "{matched} of {bodies}");
    assert!(deepest >= 4, "chains only {deepest} literals deep");
}
