//! The batched explorer's contract: for any `batch_size`/`threads`, the
//! exploration is byte-identical to the sequential Explorer — same script,
//! same round count, same per-round decisions. Speculation may only change
//! how fast the answer arrives, never the answer.

use anduril::failures::{case_by_id, PreparedCase};
use anduril::trace::{TraceEvent, VecTracer};
use anduril::{
    explore, explore_batched_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, NoopTracer, Reproduction,
};

fn sequential(id: &str, feedback: &FeedbackConfig) -> (Reproduction, PreparedCase) {
    let case = case_by_id(id).expect("case");
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    let mut s = FeedbackStrategy::new(feedback.clone());
    let r = explore(
        &prepared.ctx,
        &case.oracle,
        &mut s,
        &ExplorerConfig::default(),
        Some(prepared.gt.site),
    )
    .expect("explore");
    (r, prepared)
}

/// The batched search and its batch-only trace events.
fn batched(
    id: &str,
    prepared: &PreparedCase,
    feedback: &FeedbackConfig,
    batch: &BatchExplorerConfig,
) -> (Reproduction, Vec<TraceEvent>) {
    let case = case_by_id(id).expect("case");
    let mut s = FeedbackStrategy::new(feedback.clone());
    let tracer = VecTracer::new();
    let r = explore_batched_traced(
        &prepared.ctx,
        &case.oracle,
        &mut s,
        &ExplorerConfig::default(),
        batch,
        Some(prepared.gt.site),
        &tracer,
    )
    .expect("explore_batched");
    let mut events = tracer.take();
    events.retain(TraceEvent::is_batch_only);
    (r, events)
}

fn assert_identical(id: &str, threads: usize, seq: &Reproduction, bat: &Reproduction) {
    let tag = format!("{id} (threads={threads})");
    assert_eq!(seq.success, bat.success, "{tag}: success");
    assert_eq!(seq.rounds, bat.rounds, "{tag}: rounds");
    assert_eq!(seq.script, bat.script, "{tag}: script");
    assert_eq!(seq.replay_verified, bat.replay_verified, "{tag}: replay");
    assert_eq!(
        seq.injection_requests, bat.injection_requests,
        "{tag}: injection requests"
    );
    assert_eq!(seq.sim_time_total, bat.sim_time_total, "{tag}: sim time");
    assert_eq!(seq.per_round.len(), bat.per_round.len(), "{tag}: records");
    for (a, b) in seq.per_round.iter().zip(&bat.per_round) {
        // Everything except host-time measurements must match exactly.
        assert_eq!(a.round, b.round, "{tag}: round index");
        assert_eq!(a.armed, b.armed, "{tag}: armed @{}", a.round);
        assert_eq!(a.injected, b.injected, "{tag}: injected @{}", a.round);
        assert_eq!(a.gt_rank, b.gt_rank, "{tag}: gt rank @{}", a.round);
        assert_eq!(a.sim_time, b.sim_time, "{tag}: sim time @{}", a.round);
        assert_eq!(
            a.oracle_satisfied, b.oracle_satisfied,
            "{tag}: oracle @{}",
            a.round
        );
    }
    // The emitted script text — the user-facing artifact — is the same
    // byte for byte.
    assert_eq!(
        seq.script.as_ref().map(|s| s.to_text()),
        bat.script.as_ref().map(|s| s.to_text()),
        "{tag}: script text"
    );
}

/// Two failure cases: f3 (a short search) and f17 (the motivating example,
/// a long search with a retry pass), each against threads 1 (the
/// sequential search), 2 (the caller and one worker, the reference box's
/// geometry) and 4.
#[test]
fn batched_matches_sequential() {
    let full = FeedbackConfig::full();
    for id in ["f3", "f17"] {
        let (seq, prepared) = sequential(id, &full);
        assert!(seq.success, "{id}: sequential baseline must reproduce");
        for threads in [1usize, 2, 4] {
            let batch = BatchExplorerConfig {
                batch_size: 8,
                threads,
            };
            let (bat, _) = batched(id, &prepared, &full, &batch);
            assert_identical(id, threads, &seq, &bat);
        }
    }
}

/// Odd batch geometries (a lookahead of one round, on one worker and on
/// three; a lookahead longer than the whole search; more threads than
/// rounds looked ahead) cannot change the outcome either.
#[test]
fn batch_geometry_is_irrelevant() {
    let full = FeedbackConfig::full();
    let (seq, prepared) = sequential("f3", &full);
    for (batch_size, threads) in [(1usize, 2usize), (1, 4), (64, 2), (3, 8)] {
        let batch = BatchExplorerConfig {
            batch_size,
            threads,
        };
        let (bat, _) = batched("f3", &prepared, &full, &batch);
        assert_identical("f3", threads, &seq, &bat);
    }
}

/// Exhaustive enumeration on f17 is the path where every prediction
/// holds: 63 rounds, all of them speculated by one copy of the model that
/// is never made again, and the search is still the sequential one.
#[test]
fn an_exhaustive_search_hits_every_round_in_one_epoch() {
    let exhaustive = FeedbackConfig::exhaustive();
    let (seq, prepared) = sequential("f17", &exhaustive);
    assert!(seq.success && seq.rounds > 8, "{} rounds", seq.rounds);
    for threads in [2usize, 4] {
        let batch = BatchExplorerConfig {
            batch_size: 8,
            threads,
        };
        let (bat, events) = batched("f17", &prepared, &exhaustive, &batch);
        assert_identical("f17 exhaustive", threads, &seq, &bat);
        let epochs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::EpochStart { .. }))
            .count();
        let hits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Speculation { hit: true, .. }))
            .count();
        assert_eq!((epochs, hits), (1, seq.rounds), "threads={threads}");
    }
}
