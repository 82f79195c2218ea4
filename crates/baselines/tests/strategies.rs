//! Unit-level behaviour of the baseline strategies on a controlled
//! scenario.

use std::sync::Arc;

use anduril_baselines::{
    by_name, table2_strategies, CrashTuner, Fate, StacktraceInjector, REGISTRY,
};
use anduril_core::{
    explore, explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, Oracle,
    RoundOutcome, Scenario, SearchContext, Strategy, TraceEvent, VecTracer,
};
use anduril_ir::builder::ProgramBuilder;
use anduril_ir::expr::build as e;
use anduril_ir::{ExceptionType, Level, Value};
use anduril_sim::{Candidate, InjectionPlan, NodeSpec, SimConfig, Stage, Topology};

/// A scenario with one logged-with-stack fault path, one silent fault
/// path, and one meta-info-adjacent fault path.
fn scenario() -> (Scenario, anduril_ir::SiteId, anduril_ir::SiteId) {
    let mut pb = ProgramBuilder::new("baseline-unit");
    let leader = pb.meta_global("leader", Value::str("n1"));
    let failed = pb.global("failed", Value::Bool(false));
    let logged_site = std::cell::Cell::new(anduril_ir::SiteId(0));
    let silent_site = std::cell::Cell::new(anduril_ir::SiteId(0));
    let logged_op = pb.declare("loggedOp", 0);
    let silent_op = pb.declare("silentOp", 0);
    let main = pb.declare("main", 0);
    pb.body(logged_op, |b| {
        b.try_catch(
            |b| {
                logged_site.set(b.external("logged.op", &[ExceptionType::Io]));
            },
            ExceptionType::Io,
            |b| {
                // Logs the throwable with its stack.
                b.log_exc(Level::Warn, "logged op failed", vec![]);
                b.set_global(failed, e::bool_(true));
            },
        );
    });
    pb.body(silent_op, |b| {
        b.try_catch(
            |b| {
                silent_site.set(b.external("silent.op", &[ExceptionType::Io]));
            },
            ExceptionType::Io,
            |b| {
                // Message only, no stack.
                b.log(Level::Warn, "silent op failed", vec![]);
                b.set_global(failed, e::bool_(true));
            },
        );
    });
    pb.body(main, |b| {
        b.set_global(leader, e::self_node());
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(6)), |b| {
            b.call(logged_op, vec![]);
            b.call(silent_op, vec![]);
            b.sleep(e::rand(2, 8));
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
        b.log(Level::Info, "done", vec![]);
    });
    let program = pb.finish().unwrap();
    let topo = Topology::new(vec![NodeSpec::new(
        "n1",
        program.func_named("main").unwrap(),
        vec![],
    )]);
    (
        Scenario {
            name: "baseline-unit".into(),
            program: Arc::new(program),
            topology: topo,
            config: SimConfig::default(),
        },
        logged_site.get(),
        silent_site.get(),
    )
}

fn ctx_for(root: anduril_ir::SiteId, scenario: &Scenario) -> SearchContext {
    let failure = scenario
        .run(999, InjectionPlan::exact(root, 3, ExceptionType::Io))
        .unwrap();
    SearchContext::prepare(scenario.clone(), &failure.log_text(), 1_000).unwrap()
}

/// Every candidate a plan arms.
fn candidates(plan: InjectionPlan) -> Vec<Candidate> {
    plan.candidates().cloned().collect()
}

#[test]
fn stacktrace_injector_extracts_only_stacked_throwables() {
    let (scenario, logged, silent) = scenario();
    // Failure caused by the *logged* path: `prepare` reads its one
    // throwable, and the injector arms that throwable's site under its
    // stack, from occurrence 0.
    let ctx = ctx_for(logged, &scenario);
    let [throwable] = &ctx.throwables[..] else {
        panic!("one logged throwable: {:?}", ctx.throwables);
    };
    assert_eq!(throwable.exc, ExceptionType::Io);
    assert_eq!(
        throwable.stack.first(),
        scenario.program.func_named("loggedOp").as_ref()
    );
    assert_eq!(throwable.sites, [logged]);
    let mut st = StacktraceInjector::new();
    st.init(&ctx);
    let plan = candidates(st.plan_injection(&ctx, 0).expect("a plan"));
    assert_eq!(
        plan,
        [Candidate {
            site: logged,
            occurrence: Some(0),
            exc: ExceptionType::Io,
            stack: Some(throwable.stack.clone()),
        }]
    );

    // Failure caused by the *silent* path: the log holds no throwable, so
    // there is nothing to target.
    let ctx = ctx_for(silent, &scenario);
    assert!(ctx.throwables.is_empty(), "{:?}", ctx.throwables);
    let mut st = StacktraceInjector::new();
    st.init(&ctx);
    assert!(
        st.plan_injection(&ctx, 0).is_none(),
        "the silent site has no logged stack to target"
    );
}

#[test]
fn fate_explores_occurrences_breadth_first() {
    let (scenario, logged, _) = scenario();
    let ctx = ctx_for(logged, &scenario);
    let mut fate = Fate::new();
    fate.init(&ctx);
    let plan = candidates(fate.plan_injection(&ctx, 0).expect("a plan"));
    assert!(!plan.is_empty());
    // Breadth-first: occurrences are non-decreasing through the window
    // (every site's occurrence 0 precedes any occurrence 1, and so on).
    let occs: Vec<u32> = plan.iter().filter_map(|c| c.occurrence).collect();
    assert!(occs.windows(2).all(|w| w[0] <= w[1]), "order: {occs:?}");
    assert_eq!(occs[0], 0);
    // Feedback on an injected round removes the candidate.
    let result = ctx
        .scenario
        .run(1_001, InjectionPlan::window(plan.clone()))
        .unwrap();
    assert!(result.injected.is_some());
    let outcome = RoundOutcome::new(&ctx, result);
    fate.feedback(&ctx, &outcome);
    let next = candidates(fate.plan_injection(&ctx, 1).expect("a plan"));
    let injected = outcome.result.injected.as_ref().unwrap();
    assert!(!next.iter().any(|c| {
        c.site == injected.candidate.site && c.occurrence == Some(injected.occurrence)
    }));
}

#[test]
fn crashtuner_crash_mode_emits_crash_plans() {
    let (scenario, logged, _) = scenario();
    let ctx = ctx_for(logged, &scenario);
    let mut ct = CrashTuner::crashes();
    ct.init(&ctx);
    let plan = ct.plan_injection(&ctx, 0).expect("a crash plan");
    assert_eq!(plan.candidates().count(), 0);
    assert!(matches!(plan.stages[..], [Stage::Crash(_)]));
    // The crash plan actually crashes the node when run.
    let r = ctx.scenario.run(1_001, plan).unwrap();
    assert!(r.crashed);
    assert!(r.has_log("Node n1 crashed"));
    assert!(!r.node_alive("n1"));
}

#[test]
fn crashtuner_queue_is_finite() {
    let (scenario, logged, _) = scenario();
    let ctx = ctx_for(logged, &scenario);
    let mut ct = CrashTuner::crashes();
    ct.init(&ctx);
    let mut rounds = 0;
    while ct.plan_injection(&ctx, rounds).is_some() {
        rounds += 1;
        assert!(rounds < 10_000, "crash queue never exhausts");
    }
    assert!(rounds > 0);
}

/// The Explorer holds its strategy as `&mut dyn Strategy`.
const _: fn(&mut dyn Strategy) = |_| {};

/// The one strategy table: every name resolves to the strategy whose own
/// `name()` is its column, the feedback family — the ten rows that are
/// not an external comparator — is exactly what has a priority model, and
/// Table 2 is the first ten rows.
#[test]
fn strategy_registry_is_consistent() {
    const EXTERNAL: [&str; 4] = ["fate", "crashtuner", "crashtuner-meta-exc", "stacktrace"];
    for (cli, column, make) in &REGISTRY {
        for name in [cli, column] {
            let strategy = by_name(name).unwrap_or_else(|| panic!("`{name}` resolves"));
            assert_eq!(strategy.name(), *column);
        }
        assert_eq!(make().model().is_some(), !EXTERNAL.contains(cli), "{cli}");
    }
    let mut names: Vec<&str> = REGISTRY.iter().flat_map(|(c, n, _)| [*c, *n]).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 14 + 3, "only three rows have two spellings");
    assert!(by_name("no-such-strategy").is_none());

    let table2: Vec<&str> = table2_strategies().iter().map(|(_, n, _)| *n).collect();
    assert_eq!(table2.len(), 10);
    assert_eq!(table2[0], "full-feedback");
    assert_eq!(table2[9], "stacktrace-injector");
    assert!(!table2.contains(&"sum-aggregate"));
}

#[test]
fn all_external_strategies_terminate_on_unsatisfiable_oracles() {
    let (scenario, logged, _) = scenario();
    let ctx = ctx_for(logged, &scenario);
    let oracle = Oracle::LogContains("never happens".into());
    let cfg = ExplorerConfig {
        max_rounds: 5_000,
        ..ExplorerConfig::default()
    };
    for mut strategy in [
        Box::new(StacktraceInjector::new()) as Box<dyn Strategy>,
        Box::new(Fate::new()),
        Box::new(CrashTuner::crashes()),
        Box::new(CrashTuner::meta_exceptions()),
    ] {
        let r = explore(&ctx, &oracle, strategy.as_mut(), &cfg, None).unwrap();
        assert!(!r.success);
        assert!(
            r.rounds < 5_000,
            "{} did not terminate on its own",
            strategy.name()
        );
    }
}

/// A strategy without a priority model goes through the batched explorer
/// too: nothing is speculated and no thread is spawned, every round runs
/// inline, and the search is the sequential one.
#[test]
fn batched_exploration_without_a_model_is_the_sequential_search() {
    let (scenario, _, silent) = scenario();
    let ctx = ctx_for(silent, &scenario);
    let oracle = Oracle::LogContains("silent op failed".into());
    let cfg = ExplorerConfig::default();
    let tracer = VecTracer::new();
    let sequential = explore_traced(&ctx, &oracle, &mut Fate::new(), &cfg, None, &tracer).unwrap();
    assert!(sequential.success && sequential.rounds > 1);
    let sequential_events = tracer.take();

    let batch = BatchExplorerConfig::default();
    let batched =
        explore_batched_traced(&ctx, &oracle, &mut Fate::new(), &cfg, &batch, None, &tracer)
            .unwrap();
    assert_eq!(batched.rounds, sequential.rounds);
    assert_eq!(batched.script, sequential.script);
    let batched_events = tracer.take();
    let injected = |events: &[TraceEvent]| -> Vec<_> {
        (events.iter())
            .filter_map(|ev| match ev {
                TraceEvent::RoundEnd { injected, .. } => Some(*injected),
                _ => None,
            })
            .collect()
    };
    assert_eq!(injected(&sequential_events).len(), sequential.rounds);
    assert_eq!(injected(&batched_events), injected(&sequential_events));
    // No epoch starts and no slot is validated: no `epoch` or `spec` event.
    assert!(!batched_events.iter().any(TraceEvent::is_batch_only));
}
