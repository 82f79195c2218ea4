//! What the 22 failure logs hold, as `prepare` reads them: each ticket's
//! logged throwables (`SearchContext::throwables`) at base seed 1000, and
//! the tickets whose ground-truth site is among some throwable's sites —
//! the sites the stacktrace injector (§8.4) targets.

use anduril::failures::all_cases;
use anduril::NoopTracer;

/// Per ticket, the class of each logged throwable, in log order.
const THROWABLES: [(&str, &[&str]); 22] = [
    ("f1", &["IOException"]),
    ("f2", &["IOException", "IllegalStateException"]),
    ("f3", &["IOException"]),
    ("f4", &["IOException", "RuntimeException"]),
    ("f5", &["FileNotFoundException"]),
    ("f6", &["InterruptedException"]),
    ("f7", &["IOException"]),
    ("f8", &["IOException"]),
    ("f9", &["IOException"]),
    ("f10", &["IOException", "IOException"]),
    ("f11", &["SocketException"]),
    ("f12", &["IOException"]),
    ("f13", &[]),
    ("f14", &[]),
    ("f15", &["IOException"]),
    ("f16", &["IOException"]),
    ("f17", &["IOException"]),
    ("f18", &["IOException"]),
    ("f19", &["IOException"]),
    ("f20", &["IOException"]),
    ("f21", &["IOException"]),
    ("f22", &["IOException"]),
];

#[test]
fn each_failure_log_holds_the_pinned_throwables() {
    let mut gt_logged = Vec::new();
    let cases = all_cases();
    assert_eq!(cases.len(), THROWABLES.len());
    for (case, (id, classes)) in cases.iter().zip(THROWABLES) {
        assert_eq!(case.id, id);
        let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
        let throwables = &prepared.ctx.throwables;
        let read: Vec<&str> = throwables.iter().map(|t| t.exc.name()).collect();
        assert_eq!(read, classes, "{id}: logged throwables");
        if throwables
            .iter()
            .any(|t| t.sites.contains(&prepared.gt.site))
        {
            gt_logged.push(id);
        }
        if id == "f10" {
            assert_eq!(throwables[0], throwables[1], "f10 logs one throwable twice");
        }
    }
    // Exactly the tickets that log a throwable log their root cause's.
    let logging: Vec<&str> = (THROWABLES.iter())
        .filter(|(_, classes)| !classes.is_empty())
        .map(|&(id, _)| id)
        .collect();
    assert_eq!(gt_logged, logging);
    assert_eq!(gt_logged.len(), 20);
}
