//! Cross-strategy comparisons (Table 2's shape): full feedback beats the
//! ablation variants and external comparators where the paper says it
//! should.

use anduril::baselines::{CrashTuner, Fate, StacktraceInjector};
use anduril::failures::{all_cases, case_by_id};
use anduril::{
    explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, NoopTracer, Reproduction, Strategy,
};

fn run_case(id: &str, strategy: &mut dyn Strategy, max_rounds: usize) -> Reproduction {
    let case = case_by_id(id).expect("case exists");
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    let cfg = ExplorerConfig {
        max_rounds,
        ..ExplorerConfig::default()
    };
    let gt_site = Some(prepared.gt.site);
    explore(&prepared.ctx, &case.oracle, strategy, &cfg, gt_site).expect("runs")
}

#[test]
fn feedback_beats_exhaustive_in_aggregate() {
    // As in the paper's Table 2, individual cases can go either way; the
    // aggregate over the timing-sensitive cases must favour feedback.
    let mut full_total = 0usize;
    let mut ex_total = 0usize;
    for id in ["f1", "f16", "f17", "f20"] {
        let mut full = FeedbackStrategy::new(FeedbackConfig::full());
        let full_r = run_case(id, &mut full, 2_000);
        assert!(full_r.success, "{id} full");
        full_total += full_r.rounds;
        let mut ex = FeedbackStrategy::new(FeedbackConfig::exhaustive());
        let ex_r = run_case(id, &mut ex, 2_000);
        ex_total += if ex_r.success { ex_r.rounds } else { 2_000 };
    }
    assert!(
        full_total <= ex_total,
        "aggregate: full {full_total} > exhaustive {ex_total}"
    );
}

#[test]
fn ablation_variants_all_run_and_mostly_reproduce() {
    // On an easy case every variant should finish; this exercises each
    // configuration end to end.
    let configs = [
        FeedbackConfig::full(),
        FeedbackConfig::exhaustive(),
        FeedbackConfig::site_distance(),
        FeedbackConfig::site_distance_limited(),
        FeedbackConfig::site_feedback(),
        FeedbackConfig::multiply(),
    ];
    for cfg in configs {
        let name = cfg.name;
        let mut s = FeedbackStrategy::new(cfg);
        let r = run_case("f5", &mut s, 500);
        assert!(r.success, "{name} fails on the easy case f5");
    }
}

#[test]
fn stacktrace_injector_wins_when_root_cause_is_logged() {
    // f18's failure log contains the root-cause throwable with its stack:
    // the stacktrace-injector gets it almost immediately (the paper's
    // KA-12508 round-1 narrative).
    let mut st = StacktraceInjector::new();
    let r = run_case("f18", &mut st, 300);
    assert!(r.success);
    assert!(r.rounds <= 3, "took {} rounds", r.rounds);
}

#[test]
fn stacktrace_injector_fails_when_root_cause_is_not_logged() {
    // f13's procedure-store failure is logged *without* the throwable (as
    // real catch blocks often do), so the injector's only stacked targets
    // are noise sites — it cannot reproduce the failure.
    let mut st = StacktraceInjector::new();
    let r = run_case("f13", &mut st, 100);
    assert!(!r.success, "unexpectedly reproduced in {} rounds", r.rounds);
}

#[test]
fn fate_loses_in_aggregate() {
    let mut full_total = 0usize;
    let mut fate_total = 0usize;
    for id in ["f1", "f13", "f16", "f17"] {
        let mut full = FeedbackStrategy::new(FeedbackConfig::full());
        let full_r = run_case(id, &mut full, 1_000);
        assert!(full_r.success);
        full_total += full_r.rounds;
        let mut fate = Fate::new();
        let fate_r = run_case(id, &mut fate, 1_000);
        fate_total += if fate_r.success { fate_r.rounds } else { 1_000 };
    }
    assert!(
        full_total < fate_total,
        "aggregate: full {full_total} >= fate {fate_total}"
    );
}

#[test]
fn crashtuner_cannot_reproduce_exception_induced_failures() {
    // The faithful CrashTuner injects crashes only; our oracles demand
    // exception-specific behaviour, so it reproduces none of these —
    // the paper's qualitative point (4 of 22 at best).
    for id in ["f5", "f13", "f18"] {
        let mut ct = CrashTuner::crashes();
        let r = run_case(id, &mut ct, 300);
        assert!(!r.success, "{id}: crash injection satisfied the oracle");
    }
}

#[test]
fn crashtuner_meta_exception_adaptation_can_reproduce_meta_adjacent_cases() {
    // f16's root cause sits in the replication-transfer function, which
    // touches no meta global; but the adapted heuristic still covers cases
    // whose fault sites live near meta-info state. f10's registration path
    // runs in dn_main, which writes `liveDatanodes`... verify at least one
    // case is reachable by the adaptation.
    let mut any = false;
    for id in ["f10", "f16", "f1"] {
        let mut ct = CrashTuner::meta_exceptions();
        let r = run_case(id, &mut ct, 500);
        any |= r.success;
    }
    assert!(any, "the meta-exception adaptation reproduces something");
}

#[test]
fn sensitivity_settings_still_reproduce_most_cases() {
    // Table 3's shape: k and s variations change rounds but rarely break
    // reproduction. Spot-check the extremes on three cases.
    for id in ["f3", "f9", "f12"] {
        for (k, s) in [(1usize, 1.0f64), (3, 2.0), (10, 10.0)] {
            let mut strat = FeedbackStrategy::new(FeedbackConfig::full_with(k, s));
            let r = run_case(id, &mut strat, 1_000);
            assert!(r.success, "{id} with k={k}, s={s}");
        }
    }
}

#[test]
fn all_cases_have_unique_tickets() {
    let cases = all_cases();
    let mut tickets: Vec<_> = cases.iter().map(|c| c.ticket).collect();
    tickets.sort_unstable();
    tickets.dedup();
    assert_eq!(tickets.len(), 22);
}
