//! Shared by the trace and adaptive-layer suites: traced searches of the
//! bundled tickets, the stall-prone degraded inputs and the stable
//! rendering of a trace stream.

// Each suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use anduril::failures::case_by_id;
use anduril::ir::{ExceptionType, SiteId};
use anduril::trace::{NoopTracer, TraceEvent, VecTracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, Oracle, SearchContext,
};

/// Runs one traced full-feedback exploration of a ticket (sequential when
/// `threads` is `None`, else batched, batch 8) and returns the raw event
/// stream, including context-preparation events.
pub fn traced_run(id: &str, threads: Option<usize>) -> Vec<TraceEvent> {
    let case = case_by_id(id).expect("case");
    let tracer = VecTracer::new();
    let prepared = case.prepare(1_000, &tracer).expect("prepare");
    let (ctx, gt) = (&prepared.ctx, &prepared.gt);
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    let cfg = ExplorerConfig::default();
    match threads {
        None => {
            explore_traced(ctx, &case.oracle, &mut s, &cfg, Some(gt.site), &tracer)
                .expect("explore");
        }
        Some(threads) => {
            let batch = BatchExplorerConfig {
                batch_size: 8,
                threads,
            };
            explore_batched_traced(
                ctx,
                &case.oracle,
                &mut s,
                &cfg,
                &batch,
                Some(gt.site),
                &tracer,
            )
            .expect("explore_batched");
        }
    }
    tracer.take()
}

/// A case prepared from its degraded failure log: every entry (line plus
/// continuation lines) of the fully prepared context's nearest observable
/// stripped before preparation.
pub fn degraded_context(id: &str) -> (SearchContext, Oracle) {
    let case = case_by_id(id).expect("case");
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    (prepared.degraded().expect("context"), case.oracle.clone())
}

/// The deterministic rendering of a stream, batch-only events dropped.
pub fn stable_lines(events: &[TraceEvent]) -> Vec<String> {
    events
        .iter()
        .filter(|e| !e.is_batch_only())
        .map(TraceEvent::stable_json)
        .collect()
}

/// One round of a traced search as its events tell it, host time left
/// out: `(round, armed, ground-truth rank, injected, ticks, oracle)`.
pub type RoundFacts = (
    usize,
    usize,
    Option<usize>,
    Option<(SiteId, u32, ExceptionType)>,
    u64,
    bool,
);

/// Every round of a stream, from its `decision`, `gt_rank` (the rank is
/// `None` without one) and `round_end` lines.
pub fn round_facts(events: &[TraceEvent]) -> Vec<RoundFacts> {
    let (mut armed, mut rank, mut facts) = (0, None, Vec::new());
    for ev in events {
        match ev {
            TraceEvent::Decision { armed: a, .. } => (armed, rank) = (*a, None),
            TraceEvent::GroundTruthRank { rank: r, .. } => rank = *r,
            TraceEvent::RoundEnd {
                round,
                injected,
                ticks,
                oracle,
                ..
            } => facts.push((*round, armed, rank, *injected, *ticks, *oracle)),
            _ => {}
        }
    }
    facts
}
