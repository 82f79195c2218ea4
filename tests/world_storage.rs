//! A thread's runs share one world's storage: a run that follows others on
//! its thread is the run a fresh thread makes.
//!
//! The simulator does not build each run's tables from nothing: a world
//! that is dropped empties its tables, keeping their capacity, and leaves
//! them with its thread, and the next run there sizes them for itself.
//! What a run leaves behind — more nodes, threads, channels or executor
//! queues than the next one has, a wider register frame, a plan's tables,
//! a run an error stopped, a paused run abandoned half-way — must not
//! reach the next run. So one thread makes runs of very different shapes
//! in turn, both ways round, and each is checked against the same run on
//! a thread of its own, where the storage is new.

use std::sync::Arc;

mod common;

use anduril::failures::{case_by_id, FailureCase};
use anduril::gen::{generate_one, GenConfig, GeneratedCase, SizeClass};
use anduril::ir::builder::ProgramBuilder;
use anduril::ir::expr::build as e;
use anduril::ir::{ExceptionType, Level, SiteId, Value};
use anduril::sim::{
    run_compiled_or_partial, InjectionPlan, NodeSpec, PausedRun, Reached, RunResult, SimConfig,
    SimError, Topology,
};
use anduril::trace::{TraceEvent, VecTracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, Reproduction, Scenario,
};

/// Runs `f` on a thread of its own: its runs start on new storage.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("fresh thread"))
}

/// The largest program of `e2e`'s generated corpus.
fn large_generated() -> GeneratedCase {
    let cfg = GenConfig {
        seed: 0xA11D,
        size: SizeClass::Large,
        multi_fault: false,
    };
    generate_one(&cfg, 0).expect("generated case")
}

/// One node that spins for ever once a fault hits `spin.op`: the round of
/// `failed_round`'s scenario that ends in `SimError::StepLimit`.
fn spinning() -> (Scenario, SiteId) {
    let mut pb = ProgramBuilder::new("spinning");
    let spin = pb.global("spin", Value::Bool(false));
    let main = pb.declare("main", 0);
    let site = std::cell::Cell::new(SiteId(0));
    pb.body(main, |b| {
        let x = b.local();
        b.log(Level::Info, "service started", vec![]);
        b.try_catch(
            |b| {
                site.set(b.external("spin.op", &[ExceptionType::Io]));
            },
            ExceptionType::Io,
            |b| {
                b.set_global(spin, e::bool_(true));
            },
        );
        b.assign(x, e::int(0));
        b.while_(e::glob(spin), |b| {
            b.assign(x, e::add(e::var(x), e::int(1)));
        });
        b.log(Level::Info, "service done", vec![]);
    });
    let program = pb.finish().expect("program");
    let topology = Topology::new(vec![NodeSpec::new(
        "srv",
        program.func_named("main").expect("main"),
        vec![],
    )]);
    let config = SimConfig {
        max_steps: 20_000,
        ..SimConfig::default()
    };
    let scenario = Scenario {
        name: "spinning".into(),
        program: Arc::new(program),
        topology,
        config,
    };
    (scenario, site.get())
}

/// The run of `plan` at `seed`, or, when an error stops it, the error and
/// the run as far as it got.
fn run_or_partial(
    scenario: &Scenario,
    seed: u64,
    plan: InjectionPlan,
) -> (Option<SimError>, RunResult) {
    let program = &scenario.program;
    let cfg = scenario.config.with_seed(seed);
    match run_compiled_or_partial(program, program.compiled(), &scenario.topology, &cfg, plan) {
        Ok(r) => (None, r),
        Err(failed) => (Some(failed.error), failed.partial.expect("a partial run")),
    }
}

/// Starts a run of `case` paused at its ground truth, branches a copy on
/// to a later occurrence and abandons both half-way.
fn abandon_a_paused_run(case: &FailureCase) {
    let gt = case.ground_truth().expect("ground truth");
    let scenario = &case.scenario;
    let program = &scenario.program;
    let cfg = scenario.config.with_seed(gt.seed);
    let reached = PausedRun::start(
        program,
        program.compiled(),
        &scenario.topology,
        &cfg,
        gt.site,
        gt.occurrence,
        gt.exc,
    )
    .expect("start");
    let Reached::Paused(at) = reached else {
        panic!("{}: the run ended before its ground truth", case.id)
    };
    match at.clone().pass_to(gt.occurrence + 1).expect("pass on") {
        Reached::Paused(later) => drop(later),
        Reached::Ended(_) => {}
    }
    drop(at);
}

/// A run to make, by name, over one of the scenarios below.
type Run<'a> = (&'a str, &'a Scenario, u64, InjectionPlan);

#[test]
fn runs_of_every_shape_in_turn_are_the_runs_a_fresh_thread_makes() {
    let generated = large_generated();
    let planted = &generated.plant[0];
    let ticket = case_by_id("f17").expect("f17");
    let gt = ticket.ground_truth().expect("ground truth");
    let (spin, spin_site) = spinning();
    let runs: Vec<Run<'_>> = vec![
        (
            "large generated, fault-free",
            &generated.case.scenario,
            generated.case.scenario.config.seed,
            InjectionPlan::none(),
        ),
        (
            "large generated, planted fault",
            &generated.case.scenario,
            generated.case.scenario.config.seed,
            InjectionPlan::exact(planted.site, planted.occurrence, planted.exc),
        ),
        (
            "f17, ground truth",
            &ticket.scenario,
            gt.seed,
            InjectionPlan::exact(gt.site, gt.occurrence, gt.exc),
        ),
        (
            "spinning round",
            &spin,
            1_001,
            InjectionPlan::exact(spin_site, 0, ExceptionType::Io),
        ),
        (
            "f17, fault-free",
            &ticket.scenario,
            1_002,
            InjectionPlan::none(),
        ),
        ("spinning, fault-free", &spin, 1_003, InjectionPlan::none()),
    ];
    let mut limits = 0;
    // Large to small and small to large: tables shrink and grow.
    for order in [false, true] {
        let mut in_turn: Vec<&Run<'_>> = runs.iter().collect();
        if order {
            in_turn.reverse();
        }
        for (i, (name, scenario, seed, plan)) in in_turn.into_iter().enumerate() {
            if i == 2 {
                // What an abandoned branch leaves is what the next run
                // starts on.
                abandon_a_paused_run(&ticket);
            }
            let (error, run) = run_or_partial(scenario, *seed, plan.clone());
            let (fresh_error, fresh) =
                on_fresh_thread(|| run_or_partial(scenario, *seed, plan.clone()));
            assert_eq!(error, fresh_error, "{name}");
            assert!(run.same_run(&fresh), "{name}: not the fresh thread's run");
            limits += usize::from(error == Some(SimError::StepLimit));
        }
    }
    assert_eq!(limits, 2, "the spinning round ends in a step limit");
}

/// What a search's outcome is, host time aside, from it and its trace.
fn outcome((r, events): &(Reproduction, Vec<TraceEvent>)) -> impl PartialEq + std::fmt::Debug {
    let rounds = common::round_facts(events);
    (r.success, r.rounds, r.script.clone(), rounds)
}

#[test]
fn a_batched_search_after_another_program_is_the_sequential_search() {
    let ticket = case_by_id("f17").expect("f17");
    let prepared = ticket
        .prepare(1_000, &anduril::NoopTracer)
        .expect("prepare");
    let cfg = ExplorerConfig::default();
    let gt_site = Some(prepared.gt.site);
    let sequential = on_fresh_thread(|| {
        let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
        let tracer = VecTracer::new();
        let r = explore_traced(
            &prepared.ctx,
            &ticket.oracle,
            &mut strategy,
            &cfg,
            gt_site,
            &tracer,
        );
        (r.expect("explore"), tracer.take())
    });
    let batched = on_fresh_thread(|| {
        // The thread that searches, and runs the rounds no worker ran
        // ahead, last ran a program ten times the ticket's size.
        let generated = large_generated();
        let scenario = &generated.case.scenario;
        scenario
            .run(scenario.config.seed, InjectionPlan::none())
            .expect("generated run");
        let batch = BatchExplorerConfig {
            threads: 2,
            ..BatchExplorerConfig::default()
        };
        let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
        let tracer = VecTracer::new();
        let r = explore_batched_traced(
            &prepared.ctx,
            &ticket.oracle,
            &mut strategy,
            &cfg,
            &batch,
            gt_site,
            &tracer,
        );
        (r.expect("explore_batched"), tracer.take())
    });
    assert!(sequential.0.success, "f17 reproduces");
    assert_eq!(outcome(&batched), outcome(&sequential));
}
