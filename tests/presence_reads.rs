//! The round loop runs the per-thread presence diff (§5.1.1) only for a
//! strategy whose priority model reads it.
//!
//! A wrapper strategy delegates every call, `model()` included, and
//! records whether each round outcome it is handed carries presence. Full
//! feedback and the ablations that keep observable feedback on the
//! per-thread diff get it on every missed round; the ablations without
//! feedback, the global-diff ablation and the external comparators never
//! do. Leaving the diff out changes no search: each wrapped search's
//! rounds, script and traced rounds are the unwrapped search's,
//! sequential and batched. A model handed no presence diffs the round
//! itself.

mod common;

use anduril::baselines::REGISTRY;
use anduril::failures::case_by_id;
use anduril::sim::InjectionPlan;
use anduril::trace::{NoopTracer, TraceEvent, VecTracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, Reproduction, RoundOutcome, SearchContext, Strategy,
};
use common::round_facts;

/// The registry rows whose model applies per-thread presence.
const READS_PRESENCE: [&str; 6] = [
    "full",
    "full-adaptive",
    "site-feedback",
    "multiply",
    "sum-aggregate",
    "order-distance",
];

/// A strategy that is `inner` in every respect, and notes for each
/// `feedback` call whether the outcome carried presence.
struct Recording {
    inner: Box<dyn Strategy>,
    present: Vec<bool>,
}

impl Strategy for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &SearchContext) {
        self.inner.init(ctx);
    }

    fn plan_injection(&mut self, ctx: &SearchContext, round: usize) -> Option<InjectionPlan> {
        self.inner.plan_injection(ctx, round)
    }

    fn feedback(&mut self, ctx: &SearchContext, outcome: &RoundOutcome) {
        self.present.push(outcome.present.is_some());
        self.inner.feedback(ctx, outcome);
    }

    fn model(&mut self) -> Option<&mut FeedbackStrategy> {
        self.inner.model()
    }
}

/// What a search decided, round by round, from it and its trace.
fn decided((r, events): &(Reproduction, Vec<TraceEvent>)) -> impl PartialEq + std::fmt::Debug {
    let rounds = round_facts(events);
    (r.success, r.rounds, r.script.clone(), rounds)
}

#[test]
fn only_a_model_that_reads_presence_gets_it() {
    let cfg = ExplorerConfig {
        max_rounds: 300,
        base_seed: 1_000,
    };
    let batch = BatchExplorerConfig {
        batch_size: 8,
        threads: 2,
    };
    let mut missed = vec![0; REGISTRY.len()];
    for id in ["f3", "f17"] {
        let case = case_by_id(id).expect("case");
        let prepared = case.prepare(cfg.base_seed, &NoopTracer).expect("prepare");
        let (ctx, oracle, gt) = (&prepared.ctx, &case.oracle, Some(prepared.gt.site));
        for (row, &(name, _, make)) in REGISTRY.iter().enumerate() {
            let reads = READS_PRESENCE.contains(&name);
            for batched in [false, true] {
                let search = |strategy: &mut dyn Strategy| {
                    let tracer = VecTracer::new();
                    let r = match batched {
                        false => explore_traced(ctx, oracle, strategy, &cfg, gt, &tracer),
                        true => {
                            explore_batched_traced(ctx, oracle, strategy, &cfg, &batch, gt, &tracer)
                        }
                    };
                    (r.expect("search"), tracer.take())
                };
                let plain = search(make().as_mut());
                let mut wrapped = Recording {
                    inner: make(),
                    present: Vec::new(),
                };
                let recorded = search(&mut wrapped);
                let at = format!("{id} {name} (batched: {batched})");
                assert_eq!(decided(&recorded), decided(&plain), "{at}");
                // Every round but a reproducing last one is fed back.
                let recorded = &recorded.0;
                let fed = recorded.rounds - usize::from(recorded.success);
                assert_eq!(wrapped.present.len(), fed, "{at}: feedback calls");
                assert!(
                    wrapped.present.iter().all(|&some| some == reads),
                    "{at}: presence {}",
                    if reads { "missing" } else { "computed" }
                );
                missed[row] += fed;
            }
        }
    }
    // Each row missed a round somewhere, so each assertion above was made.
    for ((name, _, _), missed) in REGISTRY.iter().zip(missed) {
        assert!(missed > 0, "{name}: no round was fed back");
    }
}

/// Full feedback fed each round once with the presence the round loop
/// computes and once without: the `I_k` it applies is the same.
#[test]
fn a_model_handed_no_presence_diffs_the_round_itself() {
    let case = case_by_id("f17").expect("case");
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    let ctx = &prepared.ctx;
    let mut given = FeedbackStrategy::new(FeedbackConfig::full());
    given.init(ctx);
    let mut left_out = given.clone();
    for round in 0..6 {
        let plan = given.plan_injection(ctx, round).expect("a plan");
        assert_eq!(left_out.plan_injection(ctx, round).as_ref(), Some(&plan));
        let result = ctx.run_round(1_001 + round as u64, plan).expect("round");
        let with = RoundOutcome::new(ctx, result.clone());
        assert!(with.present.is_some());
        given.feedback(ctx, &with);
        left_out.feedback(
            ctx,
            &RoundOutcome {
                result,
                present: None,
            },
        );
        let i_k = given.observable_priorities();
        assert_eq!(i_k, left_out.observable_priorities(), "round {round}");
    }
    assert!(given.observable_priorities().iter().any(|&p| p > 0.0));
}
