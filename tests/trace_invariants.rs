//! Structural invariants of the trace event stream, checked on a real
//! search via [`VecTracer`]: phase ordering, round bracketing, feedback
//! accounting, and terminal events.

use anduril::failures::case_by_id;
use anduril::trace::{NoopTracer, TraceEvent, VecTracer};
use anduril::{explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Reproduction};

/// Runs a full traced search under `cfg` and returns the stream, the
/// outcome, and the strategy's final observable priorities.
fn traced_search(id: &str, cfg: FeedbackConfig) -> (Vec<TraceEvent>, Reproduction, Vec<f64>) {
    let case = case_by_id(id).expect("case");
    let tracer = VecTracer::new();
    let prepared = case.prepare(1_000, &tracer).expect("prepare");
    let mut s = FeedbackStrategy::new(cfg);
    let r = explore_traced(
        &prepared.ctx,
        &case.oracle,
        &mut s,
        &ExplorerConfig::default(),
        Some(prepared.gt.site),
        &tracer,
    )
    .expect("explore");
    (tracer.take(), r, s.observable_priorities().to_vec())
}

/// All context-preparation events precede exploration; the stream opens
/// with the normal run's phase and closes with `ExploreEnd`.
#[test]
fn context_events_precede_exploration_and_stream_terminates() {
    for id in ["f3", "f17"] {
        let (events, _, _) = traced_search(id, FeedbackConfig::full());
        let first_round = events
            .iter()
            .position(|e| matches!(e, TraceEvent::RoundStart { .. }))
            .unwrap_or_else(|| panic!("{id}: no RoundStart event"));
        for (i, e) in events.iter().enumerate() {
            if matches!(
                e,
                TraceEvent::ContextPhase { .. } | TraceEvent::ContextReady { .. }
            ) {
                assert!(
                    i < first_round,
                    "{id}: context event at {i} after round 0 (at {first_round})"
                );
            }
        }
        assert!(
            matches!(events.first(), Some(TraceEvent::ContextPhase { phase, .. }) if *phase == "sim.compile"),
            "{id}: stream must open with the bytecode-compile phase"
        );
        assert!(
            matches!(events.get(1), Some(TraceEvent::ContextPhase { phase, .. }) if *phase == "normal_run"),
            "{id}: the normal-run phase must follow compilation"
        );
        assert!(
            matches!(events.last(), Some(TraceEvent::ExploreEnd { .. })),
            "{id}: stream must close with ExploreEnd"
        );
        // Exactly one ExploreStart, between context prep and round 0.
        let starts: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, TraceEvent::ExploreStart { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(starts.len(), 1, "{id}: exactly one ExploreStart");
        assert!(starts[0] < first_round, "{id}: ExploreStart before round 0");
    }
}

/// Rounds are properly bracketed: each `RoundStart` is followed by its
/// `Decision` and exactly one matching `RoundEnd`, and round numbers are
/// consecutive from 0.
#[test]
fn every_round_start_has_a_matching_end() {
    for id in ["f3", "f17"] {
        let (events, repro, _) = traced_search(id, FeedbackConfig::full());
        let mut open: Option<usize> = None;
        let mut next_round = 0usize;
        let mut decided = false;
        for e in &events {
            match e {
                TraceEvent::RoundStart { round, .. } => {
                    assert_eq!(
                        open, None,
                        "{id}: round {round} starts inside another round"
                    );
                    assert_eq!(*round, next_round, "{id}: rounds must be consecutive");
                    open = Some(*round);
                    decided = false;
                }
                TraceEvent::Decision { round, .. } => {
                    assert_eq!(open, Some(*round), "{id}: decision outside its round");
                    decided = true;
                }
                TraceEvent::RoundEnd { round, .. } => {
                    assert_eq!(open, Some(*round), "{id}: round {round} ends unopened");
                    assert!(decided, "{id}: round {round} ended without a decision");
                    open = None;
                    next_round = round + 1;
                }
                _ => {}
            }
        }
        assert_eq!(open, None, "{id}: a round was left open");
        assert_eq!(
            next_round, repro.rounds,
            "{id}: bracketed rounds == rounds run"
        );
    }
}

/// Feedback accounting: replaying each `Feedback` event's `adjust` over
/// its `present` set reconstructs both the event's own `I_k` snapshot and
/// the strategy's final priorities. Under `global-diff` the event names
/// the whole-log presence the model applied, not the per-thread presence
/// the round loop computed.
#[test]
fn feedback_deltas_sum_to_final_priorities() {
    for (id, cfg) in [
        ("f3", FeedbackConfig::full()),
        ("f17", FeedbackConfig::full()),
        ("f2", FeedbackConfig::global_diff()),
        ("f17", FeedbackConfig::global_diff()),
    ] {
        let tag = format!("{id} {}", cfg.name);
        let (events, repro, finals) = traced_search(id, cfg);
        let mut i_k = vec![0.0f64; finals.len()];
        let mut saw_feedback = false;
        for e in &events {
            if let TraceEvent::Feedback {
                present,
                adjust,
                i_k: snapshot,
                ..
            } = e
            {
                saw_feedback = true;
                for &k in present {
                    i_k[k] += *adjust;
                }
                assert_eq!(
                    &i_k, snapshot,
                    "{tag}: reconstructed I_k diverges from the event snapshot"
                );
            }
        }
        // A search that succeeds in round 0 (f3) never applies feedback;
        // any longer full-feedback search must.
        assert_eq!(
            saw_feedback,
            repro.rounds > 1,
            "{tag}: Feedback events iff unsuccessful rounds existed"
        );
        assert_eq!(
            i_k, finals,
            "{tag}: summed deltas must equal the strategy's final I_k"
        );
    }
}

/// A successful search ends with a `ProvenanceChain` naming the same
/// injection as the emitted script, and `ExploreEnd` agrees with the
/// returned `Reproduction`, its wall time included.
#[test]
fn success_emits_a_provenance_chain() {
    let (events, repro, _) = traced_search("f17", FeedbackConfig::full());
    assert!(repro.success, "f17 must reproduce");
    let script = repro.script.as_ref().expect("script on success");
    let chain = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::ProvenanceChain {
                seed,
                site,
                occurrence,
                exc,
                ..
            } => Some((*seed, *site, *occurrence, *exc)),
            _ => None,
        })
        .expect("ProvenanceChain on success");
    assert_eq!(chain.0, script.seed, "provenance seed == script seed");
    assert_eq!(chain.1, script.site, "provenance site == script site");
    assert_eq!(
        chain.2, script.occurrence,
        "provenance occurrence == script occurrence"
    );
    assert_eq!(
        chain.3, script.exc,
        "provenance exception == script exception"
    );
    match events.last() {
        Some(TraceEvent::ExploreEnd {
            success,
            rounds,
            replay_verified,
            wall_ns,
        }) => {
            assert!(*success);
            assert_eq!(*rounds, repro.rounds);
            assert_eq!(*replay_verified, repro.replay_verified);
            assert_eq!(
                u128::from(*wall_ns),
                repro.wall.as_nanos(),
                "one clock reading, taken before the flush"
            );
        }
        other => panic!("stream must end with ExploreEnd, got {other:?}"),
    }
}

/// Figure 6's record: a search given the ground truth traces its rank
/// once a round, after the round's `decision` and before its
/// `round_end`, naming the ground-truth site.
#[test]
fn a_ground_truth_rank_is_traced_once_a_round_between_decision_and_end() {
    for id in ["f3", "f17"] {
        let gt = case_by_id(id).expect("case").ground_truth().expect("gt");
        let (events, repro, _) = traced_search(id, FeedbackConfig::full());
        let (mut decided, mut ranked) = (None, Vec::new());
        for e in &events {
            match e {
                TraceEvent::Decision { round, .. } => decided = Some(*round),
                TraceEvent::GroundTruthRank { round, site, rank } => {
                    assert_eq!(decided, Some(*round), "{id}: rank before its decision");
                    assert_eq!(*site, gt.site, "{id}: round {round}");
                    assert!(rank.is_some(), "{id}: round {round} left it unranked");
                    ranked.push(*round);
                }
                TraceEvent::RoundEnd { round, .. } => {
                    assert_eq!(
                        ranked.last(),
                        Some(round),
                        "{id}: round {round} ends unranked"
                    );
                }
                _ => {}
            }
        }
        assert_eq!(ranked, (0..repro.rounds).collect::<Vec<_>>(), "{id}");
    }
}

/// A search given no ground truth traces no rank.
#[test]
fn a_search_without_a_ground_truth_traces_no_rank() {
    let case = case_by_id("f17").expect("case");
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    let tracer = VecTracer::new();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    let cfg = ExplorerConfig::default();
    let r = explore_traced(&prepared.ctx, &case.oracle, &mut s, &cfg, None, &tracer);
    assert!(r.expect("explore").rounds > 1);
    let events = tracer.take();
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Decision { .. })));
    assert!(!events
        .iter()
        .any(|e| matches!(e, TraceEvent::GroundTruthRank { .. })));
}
