//! The batched explorer's contract: for any `batch_size`/`threads`, the
//! exploration is byte-identical to the sequential Explorer — same script,
//! same round count, same per-round decisions. Speculation may only change
//! how fast the answer arrives, never the answer.

mod common;

use anduril::failures::{case_by_id, PreparedCase};
use anduril::trace::{TraceEvent, VecTracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, NoopTracer, Reproduction,
};
use common::round_facts;

/// A search and its trace.
type Traced = (Reproduction, Vec<TraceEvent>);

fn sequential(id: &str, feedback: &FeedbackConfig) -> (Traced, PreparedCase) {
    let case = case_by_id(id).expect("case");
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    let mut s = FeedbackStrategy::new(feedback.clone());
    let tracer = VecTracer::new();
    let r = explore_traced(
        &prepared.ctx,
        &case.oracle,
        &mut s,
        &ExplorerConfig::default(),
        Some(prepared.gt.site),
        &tracer,
    )
    .expect("explore");
    ((r, tracer.take()), prepared)
}

/// The batched search and its trace.
fn batched(
    id: &str,
    prepared: &PreparedCase,
    feedback: &FeedbackConfig,
    batch: &BatchExplorerConfig,
) -> Traced {
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
    (r, tracer.take())
}

fn assert_identical(
    id: &str,
    threads: usize,
    (seq, seq_events): &Traced,
    (bat, bat_events): &Traced,
) {
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
    // Round by round, everything except host-time measurements must match
    // exactly: armed, ground-truth rank, injected, ticks, oracle.
    let (a, b) = (round_facts(seq_events), round_facts(bat_events));
    assert_eq!(a.len(), seq.rounds, "{tag}: a round_end per round");
    assert_eq!(a.len(), b.len(), "{tag}: rounds traced");
    for (a, b) in a.iter().zip(&b) {
        assert_eq!(a, b, "{tag}: round {}", a.0);
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
        assert!(seq.0.success, "{id}: sequential baseline must reproduce");
        for threads in [1usize, 2, 4] {
            let batch = BatchExplorerConfig {
                batch_size: 8,
                threads,
            };
            let bat = batched(id, &prepared, &full, &batch);
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
        let bat = batched("f3", &prepared, &full, &batch);
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
    let rounds = seq.0.rounds;
    assert!(seq.0.success && rounds > 8, "{rounds} rounds");
    for threads in [2usize, 4] {
        let batch = BatchExplorerConfig {
            batch_size: 8,
            threads,
        };
        let bat = batched("f17", &prepared, &exhaustive, &batch);
        assert_identical("f17 exhaustive", threads, &seq, &bat);
        let events = &bat.1;
        let epochs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::EpochStart { .. }))
            .count();
        let hits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Speculation { hit: true, .. }))
            .count();
        assert_eq!((epochs, hits), (1, rounds), "threads={threads}");
    }
}
