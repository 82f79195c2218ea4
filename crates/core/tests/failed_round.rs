//! A failed round is a round.
//!
//! An injected fault can drive the system somewhere no fault-free run
//! goes: a handler that spins forever, one that trips a type error. The
//! run then ends in a `SimError` — and the search goes on: the round is
//! recorded unsuccessful with a `RoundError` event, the strategy learns
//! from the partial run which fault fired, and the other candidates get
//! their turn. Only the simulator's own `Internal` errors end a search.
//!
//! The scenario keeps the default `max_steps` (50 M, seconds of spinning):
//! what stops the spinning round is the budget the context derives from
//! its normal run.

use std::sync::Arc;

use anduril_core::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, Oracle, Reproduction, Scenario, SearchContext, TraceEvent, VecTracer,
};
use anduril_ir::builder::ProgramBuilder;
use anduril_ir::expr::build as e;
use anduril_ir::{ExceptionType, Level, SiteId, Value};
use anduril_sim::{InjectionPlan, NodeSpec, SimConfig, SimError, Topology};

/// One node, three fault sites in a row, each behind its own handler. A
/// fault at `c.op` trips a type error in the handler, one at `a.op` sends
/// the thread into a loop that never ends, one at `b.op` is the failure
/// to reproduce. All three handlers write the flag the symptom's condition
/// reads, so the causal graph ranks the three sites alike and the first
/// window arms them together; `c.op` runs first, then `a.op`.
fn scenario() -> (Scenario, SiteId) {
    let mut pb = ProgramBuilder::new("failed-round");
    let degraded = pb.global("degraded", Value::Bool(false));
    let spin = pb.global("spin", Value::Bool(false));
    let main = pb.declare("main", 0);
    let root = std::cell::Cell::new(SiteId(0));
    pb.body(main, |b| {
        let x = b.local();
        b.log(Level::Info, "service started", vec![]);
        b.try_catch(
            |b| {
                b.external("c.op", &[ExceptionType::Io]);
            },
            ExceptionType::Io,
            |b| {
                b.set_global(degraded, e::bool_(true));
                b.assign(x, e::len(e::int(1)));
            },
        );
        b.try_catch(
            |b| {
                b.external("a.op", &[ExceptionType::Io]);
            },
            ExceptionType::Io,
            |b| {
                b.set_global(degraded, e::bool_(true));
                b.set_global(spin, e::bool_(true));
            },
        );
        b.assign(x, e::int(0));
        b.while_(e::glob(spin), |b| {
            b.assign(x, e::add(e::var(x), e::int(1)));
        });
        b.try_catch(
            |b| {
                root.set(b.external("b.op", &[ExceptionType::Io]));
            },
            ExceptionType::Io,
            |b| {
                b.set_global(degraded, e::bool_(true));
            },
        );
        b.if_(e::glob(degraded), |b| {
            b.log(Level::Error, "FATAL: service degraded", vec![]);
        });
        b.log(Level::Info, "service done", vec![]);
    });
    let program = pb.finish().expect("program");
    let topology = Topology::new(vec![NodeSpec::new(
        "srv",
        program.func_named("main").expect("main"),
        vec![],
    )]);
    let scenario = Scenario {
        name: "failed-round".into(),
        program: Arc::new(program),
        topology,
        config: SimConfig::default(),
    };
    (scenario, root.get())
}

fn oracle() -> Oracle {
    Oracle::LogContains("FATAL: service degraded".into())
}

fn prepared() -> (SearchContext, SiteId) {
    let (scenario, root) = scenario();
    let production = scenario
        .run(999, InjectionPlan::exact(root, 0, ExceptionType::Io))
        .expect("production run");
    assert!(oracle().check(&production));
    let ctx = SearchContext::prepare(scenario, &production.log_text(), 1_000).expect("context");
    (ctx, root)
}

fn search(ctx: &SearchContext, batched: bool) -> (Reproduction, Vec<TraceEvent>) {
    let tracer = VecTracer::new();
    let cfg = ExplorerConfig::default();
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let repro = if batched {
        let batch = BatchExplorerConfig {
            batch_size: 4,
            threads: 2,
        };
        explore_batched_traced(ctx, &oracle(), &mut strategy, &cfg, &batch, None, &tracer)
    } else {
        explore_traced(ctx, &oracle(), &mut strategy, &cfg, None, &tracer)
    };
    (
        repro.expect("the search survives its failed rounds"),
        tracer.take(),
    )
}

#[test]
fn the_faults_that_break_the_run_are_what_the_test_says() {
    let (ctx, _) = prepared();
    let site = |desc: &str| {
        let sites = &ctx.scenario.program.sites;
        sites.iter().find(|s| s.desc == desc).expect(desc).id
    };
    let alone = |desc| {
        ctx.run_round(
            1_001,
            InjectionPlan::exact(site(desc), 0, ExceptionType::Io),
        )
    };
    assert_eq!(alone("a.op").expect_err("spins"), SimError::StepLimit);
    assert!(matches!(
        alone("c.op").expect_err("type error"),
        SimError::Type { .. }
    ));
    // What the search is handed instead of a bare error: the run so far.
    let failed = ctx
        .run_round_or_partial(
            1_001,
            InjectionPlan::exact(site("a.op"), 0, ExceptionType::Io),
        )
        .expect_err("spins");
    let partial = failed.partial.expect("the run had started");
    assert_eq!(failed.error, SimError::StepLimit);
    assert_eq!(
        partial.injected.expect("a.op fired").candidate.site,
        site("a.op")
    );
    // It spun until the budget derived from the normal run, a step past
    // it, and nowhere near the scenario's own cap.
    let budget = ctx.round_step_budget();
    assert!(
        budget >= 4 * ctx.normal.steps && budget < 10_000,
        "{budget}"
    );
    assert_eq!(ctx.scenario.config.max_steps, 50_000_000);
    assert_eq!(partial.steps, budget + 1);
    assert!(!partial.log.is_empty());
}

/// A scenario that caps its runs below the derived budget keeps its cap.
#[test]
fn the_scenarios_own_step_cap_still_binds() {
    let (mut scenario, root) = scenario();
    let run = |scenario: &Scenario, plan| scenario.run(1_000, plan).expect("run");
    let cap = 2 * run(&scenario, InjectionPlan::none()).steps;
    scenario.config.max_steps = cap;
    let production = run(&scenario, InjectionPlan::exact(root, 0, ExceptionType::Io));
    let ctx = SearchContext::prepare(scenario, &production.log_text(), 1_000).expect("context");
    assert_eq!(ctx.round_step_budget(), cap);
}

#[test]
fn a_search_outlives_rounds_that_end_in_an_error() {
    let (ctx, root) = prepared();
    let (sequential, events) = search(&ctx, false);
    assert!(sequential.success && sequential.replay_verified);
    assert_eq!(sequential.script.as_ref().expect("script").site, root);

    // Two rounds failed before the reproducing one, each on its own error,
    // and each still told the strategy which fault had fired: its
    // `round_error` line comes ahead of its `round_end`, which names the
    // injection and a miss.
    let errors: Vec<(usize, &str)> = (events.iter())
        .filter_map(|ev| match ev {
            TraceEvent::RoundError { round, error } => Some((*round, error.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].1.starts_with("type error"), "{}", errors[0].1);
    assert_eq!(errors[1].1, SimError::StepLimit.to_string());
    for &(round, _) in &errors {
        let of_round: Vec<_> = (events.iter())
            .filter(|ev| ev.round() == Some(round))
            .collect();
        let error = (of_round.iter()).position(|ev| matches!(ev, TraceEvent::RoundError { .. }));
        let missed = (of_round.iter()).position(|ev| {
            matches!(
                ev,
                TraceEvent::RoundEnd {
                    injected: Some(_),
                    oracle: false,
                    ..
                }
            )
        });
        assert!(
            error.is_some() && error < missed,
            "round {round}: {of_round:?}"
        );
    }
    assert_eq!(
        sequential.rounds,
        errors[1].0 + 2,
        "the next round reproduces"
    );

    // The lines read back.
    let recorded: Vec<_> = (events.iter())
        .filter(|ev| matches!(ev, TraceEvent::RoundError { .. }))
        .collect();
    assert_eq!(recorded.len(), 2);
    for ev in recorded {
        let line = ev.to_json();
        assert_eq!(
            TraceEvent::parse_line(&line),
            Ok(Some(ev.clone())),
            "{line}"
        );
        assert_eq!(ev.stable_json(), line, "nothing in it is host time");
    }

    // Batched: the same search, errors in speculative runs included.
    let (batched, batched_events) = search(&ctx, true);
    assert_eq!(batched.rounds, sequential.rounds);
    assert_eq!(batched.script, sequential.script);
    let stable = |events: &[TraceEvent]| -> Vec<String> {
        (events.iter())
            .filter(|ev| !ev.is_batch_only())
            .map(TraceEvent::stable_json)
            .collect()
    };
    assert_eq!(stable(&batched_events), stable(&events));
}
