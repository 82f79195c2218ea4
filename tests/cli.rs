//! The `anduril` binary at its surface: exit codes (0 done, 1 failed, 2
//! bad command line), what goes to which stream, and that a trace file is
//! whole — or said to be short — on every way out of `reproduce`.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use anduril::ir::ExceptionType;
use anduril::trace::read_stream;

fn anduril(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_anduril"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A path no other test (each has its own `name`) or test run writes.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("anduril-cli-{}-{name}", std::process::id()))
}

#[test]
fn a_bad_command_line_exits_2() {
    let out = anduril(&["show", "f99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("no case matches `f99`"));

    for args in [
        &["reproduce", "f3", "--bogus", "1"][..],
        &["reproduce", "f3", "--max-rounds"],
        &["reproduce", "f3", "--threads", "abc"],
        &["reproduce", "f3", "--strategy", "no-such"],
        // Adaptation is a strategy, `--strategy full-adaptive`.
        &["reproduce", "f3", "--adaptive", "on"],
        // The speculation depth is `BatchExplorerConfig::default()`'s.
        &["reproduce", "f3", "--batch", "8"],
        // `--replays` is a switch: the seed count is `ReproScript::REPLAY_SEEDS`.
        &["reproduce", "f3", "--replays", "32"],
        &["generate", "--size", "huge"],
        &["trace", "whatever.jsonl", "--bogus"],
        // A subcommand takes the arguments it names and no more.
        &["list", "extra"],
        &["show", "f3", "extra"],
        &["log", "f3", "extra"],
        &["explain", "f3", "extra"],
        &["replay", "f3", "f3.script", "extra"],
        &["frobnicate"],
        &[],
    ] {
        let out = anduril(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).starts_with("usage:"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let usage = stderr(&anduril(&[]));
    assert!(
        usage.contains("global-diff,\nfull-adaptive, fate"),
        "{usage}"
    );

    // The batched explorer clones its strategy: feedback family only.
    let out = anduril(&["reproduce", "f3", "--threads", "4", "--strategy", "fate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("require a feedback-strategy variant"));
}

/// `--replays` replays the script at 32 fresh seeds beside its own.
#[test]
fn a_script_says_how_many_fresh_seeds_it_replays_at() {
    let out = anduril(&["reproduce", "f17", "--replays"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("occurrence 11 (replay verified: true, replays 1/32)"),
        "{stdout}"
    );
}

/// A case is named by id or ticket in any letter case.
#[test]
fn a_case_id_is_case_insensitive() {
    for id in ["F17", "hb-25905"] {
        let out = anduril(&["show", id]);
        assert_eq!(out.status.code(), Some(0), "{id}: {}", stderr(&out));
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("HB-25905 (f17) on HBase\n"),
            "{id}"
        );
    }
}

/// What `full-adaptive` reproduces, `anduril replay` reproduces again.
#[test]
fn a_full_adaptive_script_replays() {
    let path = scratch("f5.script");
    let script = path.to_str().unwrap();
    let out = anduril(&[
        "reproduce",
        "f5",
        "--strategy",
        "full-adaptive",
        "--emit-script",
        script,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("with full-adaptive\n"));
    let out = anduril(&["replay", "f5", script]);
    std::fs::remove_file(&path).expect("remove script");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "replayed f5: oracle satisfied = true\n"
    );
}

#[test]
fn a_runtime_failure_exits_1_and_says_why() {
    let missing = scratch("missing.jsonl");
    let out = anduril(&["trace", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).starts_with("anduril: cannot read `"));
    assert!(out.stdout.is_empty());
}

/// A script naming a site the case's program lacks, or an exception the
/// site does not throw, is refused, not replayed as a fault-free run.
#[test]
fn a_script_the_program_cannot_inject_is_refused() {
    let case = anduril::failures::case_by_id("f3").expect("f3");
    let site = case.ground_truth().expect("ground truth").site;
    let throws = &case.scenario.program.sites[site.index()].exceptions;
    let other = ExceptionType::ALL.into_iter().find(|e| !throws.contains(e));
    let path = scratch("foreign.script");
    for (site, exc) in [(99_999, throws[0]), (site.0, other.expect("one left"))] {
        let script =
            format!("seed = 1001\nsite = {site}\noccurrence = 0\nexception = {exc}\ndesc = x\n");
        std::fs::write(&path, script).expect("write script");
        let out = anduril(&["replay", "f3", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "site {site}");
        assert!(out.stdout.is_empty(), "site {site}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("no site {site} that throws {exc}")),
            "{err}"
        );
    }
    std::fs::remove_file(&path).expect("remove script");
}

#[test]
fn a_traced_reproduction_leaves_a_whole_file() {
    let path = scratch("f3.jsonl");
    let out = anduril(&["reproduce", "f3", "--trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("trace written to "));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("reproduced in 1 rounds"));
    let text = std::fs::read_to_string(&path).expect("trace file");
    std::fs::remove_file(&path).expect("remove trace file");
    let (events, cut) = read_stream(&text).expect("every line parses");
    assert!(!events.is_empty());
    assert_eq!(cut, None, "no line is cut short");
}

#[test]
fn a_trace_file_that_cannot_be_written_is_reported_short() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = anduril(&["reproduce", "f3", "--trace", "/dev/full"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("anduril: trace file `/dev/full` is incomplete: "));
}

/// `anduril trace FILE --summary | head -1`, and the same against a pipe
/// nobody reads at all: the reader has seen enough, which is not a failure.
#[test]
fn a_closed_pipe_is_not_a_failure() {
    let path = scratch("piped.jsonl");
    let file = path.to_str().unwrap();
    assert!(anduril(&["reproduce", "f3", "--trace", file])
        .status
        .success());
    let summary = || {
        let mut command = Command::new(env!("CARGO_BIN_EXE_anduril"));
        command
            .args(["trace", file, "--summary"])
            .stderr(Stdio::piped());
        command
    };
    let finish = |mut child: std::process::Child| {
        let mut said = String::new();
        let mut err = child.stderr.take().expect("piped stderr");
        err.read_to_string(&mut said).expect("stderr");
        assert_eq!(child.wait().expect("exits").code(), Some(0));
        assert_eq!(said, "");
    };

    let mut child = summary().stdout(Stdio::piped()).spawn().expect("spawns");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    assert!(first.starts_with("Search trace "), "{first}");
    finish(child);

    // Closed before the first byte: the write itself meets the closed pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    finish(summary().stdout(writer).spawn().expect("spawns"));
    std::fs::remove_file(&path).expect("remove trace file");
}

/// `anduril explain` lists the first plan's ranking in the plan's own
/// order (`F_i`, then `T`, then site, then exception), one row per fault
/// unit with its exception named: f5's four `F_i = 2` units and f2's two
/// `F_i = 3` units are ties only `T` and the exception break.
#[test]
fn explain_lists_units_in_the_plans_order() {
    for case in ["f5", "f2"] {
        let out = anduril(&["explain", case]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let golden = format!(
            "{}/tests/golden/explain/{case}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&golden).expect("golden file");
        let got = String::from_utf8_lossy(&out.stdout);
        assert!(
            got == want,
            "{case} differs from {golden}; it now prints:\n{got}"
        );
    }
}
