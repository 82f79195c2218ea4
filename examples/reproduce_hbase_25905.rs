//! Reproduce the paper's motivating example: HBase-25905, where a
//! transient HDFS fault wedges the WAL at `waitForSafePoint` (§2.1).
//!
//! Run with `cargo run --example reproduce_hbase_25905`.

use anduril::failures::case_by_id;
use anduril::failures::PreparedCase;
use anduril::{
    explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, NoopTracer, TraceEvent,
    VecTracer,
};

fn main() {
    let case = case_by_id("HB-25905").expect("f17 is registered");
    println!("{} — {}", case.ticket, case.description);

    // The ground truth is known (the ticket is resolved); the failure log
    // is produced by replaying it, as the paper does for tickets that ship
    // without one. ANDURIL sees only the scenario, the failure log text,
    // and the oracle: the context is prepared from those.
    let PreparedCase {
        gt,
        failure_log,
        ctx,
    } = case.prepare(1_000, &NoopTracer).expect("case prepares");
    println!(
        "ground truth: {} at occurrence {} (seed {})",
        case.root_site_desc, gt.occurrence, gt.seed
    );
    println!("failure log: {} lines\n", failure_log.lines().count());

    println!(
        "observables={} causal graph: {} nodes / {} edges, {} candidate units",
        ctx.observables.len(),
        ctx.graph.node_count(),
        ctx.graph.edge_count(),
        ctx.units.len()
    );

    // Given the ground truth, the search traces its rank every round.
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let tracer = VecTracer::new();
    let repro = explore_traced(
        &ctx,
        &case.oracle,
        &mut strategy,
        &ExplorerConfig::default(),
        Some(gt.site),
        &tracer,
    )
    .expect("exploration runs");

    println!("\nper-round trace (rank of the true root-cause site — Figure 6):");
    let (mut armed, mut rank) = (0, None);
    for ev in tracer.take() {
        match ev {
            TraceEvent::Decision { armed: a, .. } => armed = a,
            TraceEvent::GroundTruthRank { rank: r, .. } => rank = r,
            TraceEvent::RoundEnd {
                round,
                injected,
                oracle,
                ..
            } => println!(
                "  round {:3}: armed={armed:2} rank={rank:?} injected={:?} oracle={oracle}",
                round + 1,
                injected.map(|(s, o, e)| format!("{}@{o} {}", s.0, e.name())),
            ),
            _ => {}
        }
    }
    let script = repro.script.expect("reproduced");
    println!(
        "\nreproduced in {} rounds: inject {} at `{}` occurrence {} (seed {})",
        repro.rounds, script.exc, script.desc, script.occurrence, script.seed
    );
    assert_eq!(
        script.site, gt.site,
        "the root-cause site matches the ticket"
    );

    // The stale state the paper describes: the consumer is alive but the
    // roller is stuck at waitForSafePoint with un-acked appends pending.
    let replay = script.replay(&case.scenario).expect("replay runs");
    assert!(case.oracle.check(&replay));
    println!(
        "replay: roller stuck={} unackedAppends={:?}",
        replay.thread_blocked_in("LogRoller", "waitForSafePoint"),
        replay.global("rs1", "unackedAppends"),
    );
}
