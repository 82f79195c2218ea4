//! The `paper` binary at its command line: one word, an artifact's name,
//! `list` or `all`, or `table2 --seeds N`. Anything else is a usage
//! error (exit 2) that runs no artifact and writes nothing.

use std::process::Command;

/// Runs `paper` with `args` in a directory of its own, and checks it exits
/// 2 with nothing on stdout and nothing written where `paper all` would
/// write; returns its stderr.
fn refused(args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!(
        "anduril-paper-{}-{}",
        std::process::id(),
        args.join("-")
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let written = std::fs::read_dir(&dir).expect("scratch dir").count();
    std::fs::remove_dir_all(&dir).expect("scratch dir");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
    assert_eq!(written, 0, "{args:?} wrote into its directory");
    stderr
}

#[test]
fn an_unknown_artifact_or_an_extra_argument_exits_2() {
    assert!(refused(&["nope"]).contains("no artifact `nope`"));
    // Table 2's round cap is a constant: no artifact takes an argument.
    for args in [
        &["table1", "extra"][..],
        &["table2", "300"],
        &["all", "x"],
        &[],
        // Only Table 2 has a population form, and it needs its seeds.
        &["table1", "--seeds", "2"],
        // The searches take the host's threads; there is no `--jobs`.
        &["table2", "--seeds", "2", "--jobs", "2"],
        &["table2", "--jobs", "2"],
        &["table2", "--seeds", "0"],
        &["table2", "--seeds", "2", "--seeds", "3"],
        &["table2", "--seeds"],
    ] {
        assert!(refused(args).starts_with("usage: paper"), "{args:?}");
    }
}
