//! Pins the §5.1.1 ablation split: the per-thread diff (the paper's
//! method) and the global diff legitimately disagree when a failure-only
//! message shows up on a *different thread* than the failure log recorded.
//! The global diff happily matches it anywhere; the per-thread diff keeps
//! the failure entry missing because its `(node, thread)` group never saw
//! it — exactly the interleaving confusion Algorithm 2's per-thread
//! matching exists to avoid.

use anduril::failures::case_by_id;
use anduril::logdiff::parse_log;
use anduril::NoopTracer;

/// Builds a round log containing one observable's body — verbatim at
/// first, then re-homed onto a fabricated thread.
#[test]
fn global_and_per_thread_presence_differ_across_threads() {
    let case = case_by_id("f1").expect("case");
    let ctx = case.prepare(1_000, &NoopTracer).expect("prepare").ctx;
    assert!(!ctx.observables.is_empty(), "f1 has observables");

    // The first position of the first observable, as the failure log
    // recorded it.
    let k = 0usize;
    let pos = ctx.observables[k].positions[0];
    let entry = &ctx.failure[pos];

    let same_thread = parse_log(&format!(
        "00000001 [{}:{}] {} - {}\n",
        entry.node,
        entry.thread,
        entry.level.name(),
        entry.body
    ));
    let other_thread = parse_log(&format!(
        "00000001 [{}:thread-from-nowhere] {} - {}\n",
        entry.node,
        entry.level.name(),
        entry.body
    ));

    // Sanity: on the recorded thread, both diffs agree the observable is
    // present.
    let per_thread = ctx.present_observables(&same_thread);
    let global = ctx.present_observables_global(&same_thread);
    assert!(
        per_thread.contains(&k),
        "same thread: per-thread diff sees observable {k}"
    );
    assert!(
        global.contains(&k),
        "same thread: global diff sees observable {k}"
    );

    // Re-homed: the global diff still matches the body; the per-thread
    // diff must not — the `(node, thread)` group of the failure entry
    // never emitted it.
    let per_thread = ctx.present_observables(&other_thread);
    let global = ctx.present_observables_global(&other_thread);
    assert!(
        global.contains(&k),
        "other thread: global diff matches the body anywhere"
    );
    assert!(
        !per_thread.contains(&k),
        "other thread: per-thread diff must keep the failure entry missing"
    );
}
