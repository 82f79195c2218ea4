//! The trace reader and the four `anduril trace` reports, on real
//! streams: a one-round sequential search (f3), a batched one (f17, four
//! threads) and a long adaptive one that promotes observables (f5 from its
//! degraded log).
//!
//! The goldens under `tests/golden/trace_report/` are what `anduril trace
//! <stream>.jsonl --summary | --round N | --promotions | --json` prints for
//! these streams, run on the zero-`*_ns` lines `golden_input` builds: the
//! reports must reproduce them byte for byte. On a mismatch the test
//! prints the report in full.

mod common;

use anduril::trace::{read_stream, report, StrategyNote, TraceEvent, VecTracer};
use anduril::{explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy};
use common::traced_run;

/// f5 searched from its degraded failure log by `full-adaptive`: 82
/// rounds, an exhausted window and promotions.
fn degraded_adaptive_stream() -> Vec<TraceEvent> {
    let (ctx, oracle) = common::degraded_context("f5");
    let cfg = ExplorerConfig {
        max_rounds: 300,
        ..ExplorerConfig::default()
    };
    let tracer = VecTracer::new();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full_adaptive());
    explore_traced(&ctx, &oracle, &mut s, &cfg, None, &tracer).expect("explore");
    tracer.take()
}

/// `(name, round shown by --round, stream)`: f17's round 6 is a speculation
/// miss, f5's round 68 the stall that promotes.
fn streams() -> Vec<(&'static str, usize, Vec<TraceEvent>)> {
    vec![
        ("f3", 0, traced_run("f3", None)),
        ("f17-batched", 6, traced_run("f17", Some(4))),
        ("f5-degraded-adaptive", 68, degraded_adaptive_stream()),
    ]
}

fn parse(line: &str) -> TraceEvent {
    TraceEvent::parse_line(line)
        .unwrap_or_else(|e| panic!("{e}: {line}"))
        .unwrap_or_else(|| panic!("skipped as unknown: {line}"))
}

/// The stream as a file of its stable lines read back: every `*_ns` zero,
/// so what the reports print is a pure function of the search.
fn golden_input(events: &[TraceEvent]) -> String {
    events
        .iter()
        .map(|ev| parse(&ev.stable_json()).to_json() + "\n")
        .collect()
}

#[test]
fn every_line_of_three_real_streams_round_trips() {
    for (name, _, events) in streams() {
        for ev in &events {
            let line = ev.to_json();
            assert_eq!(parse(&line).to_json(), line, "{name}");
            let line = ev.stable_json();
            assert_eq!(parse(&line).stable_json(), line, "{name}");
        }
    }
}

/// Whatever `parse_line` accepts renders through `to_json` to a line that
/// reads back to the same event.
fn reads_back(line: &str) {
    if let Ok(Some(ev)) = TraceEvent::parse_line(line) {
        let again = ev.to_json();
        assert_eq!(
            TraceEvent::parse_line(&again),
            Ok(Some(ev)),
            "{line}\nrendered as\n{again}"
        );
    }
}

/// Hostile bytes, deterministically: every line of the three streams cut
/// at every byte, and with one byte replaced and one inserted at every
/// position, drawn in turn from the bytes JSON is made of. Each stream is
/// also read whole with one line mangled, and cut inside that line, for
/// every eighth line (a read costs the whole stream). Nothing may panic,
/// and what the reader accepts must round-trip.
#[test]
fn the_reader_survives_hostile_bytes() {
    let mut draw = br#"{}[]",:-.0123456789aeflnrstu\"#.iter().copied().cycle();
    let mut byte = || draw.next().expect("cycles");
    for (_, _, events) in streams() {
        let lines: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
        let whole = lines.join("\n") + "\n";
        let mut start = 0;
        for (i, line) in lines.iter().enumerate() {
            let bytes = line.as_bytes();
            for at in 0..=bytes.len() {
                let mut replaced = bytes.to_vec();
                if let Some(b) = replaced.get_mut(at) {
                    *b = byte();
                }
                let mut inserted = bytes.to_vec();
                inserted.insert(at, byte());
                for mutant in [&bytes[..at], &replaced[..], &inserted[..]] {
                    reads_back(&String::from_utf8_lossy(mutant));
                }
            }

            let (end, mid) = (start + bytes.len(), start + bytes.len() / 2);
            if i % 8 == 0 {
                let mut mangled = bytes.to_vec();
                mangled[bytes.len() / 2] = byte();
                let mangled = String::from_utf8_lossy(&mangled);
                let _ = read_stream(&format!("{}{mangled}{}", &whole[..start], &whole[end..]));
                let _ = read_stream(&String::from_utf8_lossy(&whole.as_bytes()[..mid]));
            }
            start = end + 1;
        }
    }
}

#[test]
fn reports_match_what_the_untyped_renderers_printed() {
    let golden = |name: &str, mode: &str| {
        let path = format!(
            "{}/tests/golden/trace_report/{name}.{mode}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    for (name, round, events) in streams() {
        let (events, cut) = read_stream(&golden_input(&events)).expect("reads back");
        assert_eq!(cut, None);
        let reports = [
            (
                "summary",
                report::summary(&format!("{name}.jsonl"), &events),
            ),
            ("round", report::round(&events, round).expect("round")),
            ("promotions", report::promotions(&events)),
            ("json", report::json(&events)),
        ];
        for (mode, text) in reports {
            assert!(
                text == golden(name, mode),
                "{name} --{mode} differs from its golden; it now prints:\n{text}"
            );
        }
    }
}

#[test]
fn an_unknown_kind_and_a_cut_final_line_change_no_report() {
    let text = golden_input(&traced_run("f17", Some(4)));
    let (events, _) = read_stream(&text).expect("reads back");
    let all = |events: &[TraceEvent]| {
        [
            report::summary("t.jsonl", events),
            report::round(events, 0).expect("round 0"),
            report::promotions(events),
            report::json(events),
        ]
    };
    let expected = all(&events);

    // What a stream recorded while there was a snapshot cache ends with.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(
        lines.len() - 1,
        r#"{"ev":"snapshot_stats","hits":5,"misses":16,"resumed":5,"stored":16}"#,
    );
    let (with_unknown, cut) = read_stream(&(lines.join("\n") + "\n")).expect("reads");
    assert_eq!(cut, None);
    assert!(all(&with_unknown) == expected);

    // What a search that died leaves: a last line with no end.
    let (with_cut, cut) =
        read_stream(&format!("{text}{{\"ev\":\"round_start\",\"round\":12,\"se")).expect("reads");
    assert_eq!(cut, Some(events.len() + 1));
    assert!(all(&with_cut) == expected);
}

/// `text` as a stream written before the trace said each thing once: a
/// `decision` line carried `window` (always its `armed`), a `retry_pass`
/// note followed each `window_exhausted` one, and a `promoted` line
/// carried `node`, `l_old` (always `u32::MAX`) and `delta`.
fn in_the_old_format(text: &str) -> String {
    let mut old = String::new();
    for line in text.lines() {
        old += &match parse(line) {
            TraceEvent::Decision { round, armed, .. } => line.replacen(
                &format!("\"round\":{round},"),
                &format!("\"round\":{round},\"window\":{armed},"),
                1,
            ),
            TraceEvent::Note {
                note: StrategyNote::ObservablePromoted { l_new, .. },
                ..
            } => line
                .replacen(",\"node_desc\":", ",\"node\":0,\"node_desc\":", 1)
                .replacen(
                    ",\"units_added\":",
                    &format!(
                        ",\"l_old\":{},\"delta\":{},\"units_added\":",
                        u32::MAX,
                        u32::MAX - l_new
                    ),
                    1,
                ),
            TraceEvent::Note {
                round,
                note: StrategyNote::WindowExhausted { pass, .. },
            } => format!(
                "{line}\n{{\"ev\":\"note\",\"round\":{round},\"note\":\"retry_pass\",\"pass\":{}}}",
                pass + 1
            ),
            _ => line.to_string(),
        };
        old.push('\n');
    }
    old
}

/// Trace files outlive the binary that wrote them (CI keeps them as
/// artifacts): one in the format before `window`, `retry_pass`, `node`,
/// `l_old` and `delta` went reads back to the same events and the same
/// four reports.
#[test]
fn a_stream_in_the_old_format_reads_as_the_new_one() {
    let text = golden_input(&degraded_adaptive_stream());
    let (events, _) = read_stream(&text).expect("reads back");
    let old = in_the_old_format(&text);
    assert!(old.contains("\"note\":\"retry_pass\"") && old.contains("\"l_old\""));
    let (old_events, cut) = read_stream(&old).expect("the old format reads");
    assert_eq!(cut, None);
    assert!(old_events == events);
    let all = |events: &[TraceEvent]| {
        [
            report::summary("t.jsonl", events),
            report::round(events, 68).expect("round 68"),
            report::promotions(events),
            report::json(events),
        ]
    };
    assert!(all(&old_events) == all(&events));
}

#[test]
fn a_missing_round_and_a_garbage_line_are_errors_that_say_where() {
    let events = traced_run("f3", None);
    let err = report::round(&events, 99).expect_err("f3 has one round");
    assert_eq!(err.to_string(), "no events for round 99 in the trace");

    let mut lines: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
    lines.insert(4, "not json".into());
    let err = read_stream(&(lines.join("\n") + "\n")).expect_err("line 5 is garbage");
    assert_eq!(err.to_string(), "5: malformed JSON");
    lines[4] = r#"{"ev":"round_start","round":0}"#.into();
    let err = read_stream(&(lines.join("\n") + "\n")).expect_err("line 5 lacks its seed");
    assert_eq!(err.to_string(), "5: missing or mistyped key `seed`");
}
