//! The reproducing round is its own verification replay (DESIGN.md §13).
//!
//! A search that satisfies the oracle emits `exact(fired)` as its script
//! and, since this suite exists, does not run it: a one-shot round that
//! fired once and crashed nothing is that run already. Debug builds
//! assert it on every reproducing round; this suite holds in `--release`
//! too, where CI's required suites run:
//!
//! - on the simulator alone, window plans of every candidate shape equal
//!   their exact replay, and the two plan shapes the rule excludes — a
//!   multi-shot plan that fired twice, a crash point beside an injection —
//!   do not;
//! - through the explorer, those two shapes still get the real replay, and
//!   every script the searches here emit replays, from a freshly built
//!   scenario, to the run the final `RoundEnd` event describes.

use std::sync::Arc;

use anduril::failures::{all_cases, case_by_id};
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::ir::builder::ProgramBuilder;
use anduril::ir::expr::build as e;
use anduril::ir::lower::compile;
use anduril::ir::{CompiledProgram, ExceptionType, Level, SiteId, SiteKind};
use anduril::sim::rng::SmallRng;
use anduril::sim::{
    Candidate, CrashPoint, InjectionPlan, NodeSpec, RunResult, SimConfig, Topology, TraceEntry,
};
use anduril::trace::{NoopTracer, TraceEvent, VecTracer};
use anduril::{
    explore, explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Oracle,
    RoundOutcome, Scenario, SearchContext, Strategy,
};

const SEEDS: std::ops::RangeInclusive<u64> = 1001..=1008;

/// The script of `round` — `exact` of what fired first — run at `seed`.
fn exact_replay(
    scenario: &Scenario,
    compiled: &CompiledProgram,
    seed: u64,
    round: &RunResult,
) -> RunResult {
    let fired = round.injected.as_ref().expect("an injection fired");
    let (site, exc) = (fired.candidate.site, fired.candidate.exc);
    scenario
        .run_compiled(
            compiled,
            seed,
            InjectionPlan::exact(site, fired.occurrence, exc),
        )
        .expect("replay")
}

/// One candidate aimed at (or deliberately past) a site instance of the
/// fault-free run, in one of the guard shapes a strategy can arm.
fn candidate(scenario: &Scenario, normal: &RunResult, rng: &mut SmallRng) -> Candidate {
    let mut pick = |n: usize| rng.random_range(0..n as u64) as usize;
    let at = normal.trace[pick(normal.trace.len())];
    let sites = &scenario.program.sites;
    let throw_new: Vec<_> = (sites.iter())
        .filter(|s| s.kind == SiteKind::ThrowNew)
        .collect();
    let (site, occurrence, stack) = match pick(7) {
        0 | 1 => (at.site, Some(at.occurrence), None),
        2 => (at.site, None, None),
        // The innermost frame of a site's execution is the site's function.
        3 => (at.site, None, Some(1)),
        // Armed on a site the run executes, matching no execution of it: a
        // guard no stack starts with, an occurrence past the last one.
        4 => (at.site, Some(at.occurrence), Some(3)),
        5 => (
            at.site,
            Some(normal.site_occurrences[at.site.index()] + 7),
            None,
        ),
        // No fault-free run of the 22 reaches a `throw new`: armed, it can
        // only be reached behind the round's one firing.
        _ if throw_new.is_empty() => (at.site, None, None),
        _ => (throw_new[pick(throw_new.len())].id, None, None),
    };
    let site = &sites[site.index()];
    Candidate {
        site: site.id,
        occurrence,
        exc: site.exceptions[pick(site.exceptions.len())],
        stack: stack.map(|depth| vec![site.func; depth]),
    }
}

/// Windows of 1–10 candidates over all 22 scenarios × 8 seeds. A window
/// that fires equals the exact replay of what fired; one that never
/// matches equals the unarmed run — armed sites cost what unarmed ones do.
#[test]
fn a_window_that_fires_is_its_exact_replay() {
    let mut rng = SmallRng::seed_from_u64(0x5AFE);
    let (mut fired, mut unfired, mut guarded, mut any, mut behind) = (0, 0, 0, 0, 0);
    for case in all_cases() {
        let scenario = &case.scenario;
        let sites = &scenario.program.sites;
        let compiled = compile(&scenario.program);
        for seed in SEEDS {
            let run = |plan| scenario.run_compiled(&compiled, seed, plan).expect("run");
            let normal = run(InjectionPlan::none());
            for width in 1..=10 {
                let window: Vec<Candidate> = (0..width)
                    .map(|_| candidate(scenario, &normal, &mut rng))
                    .collect();
                let round = run(InjectionPlan::window(window.clone()));
                let tag = format!("{} seed {seed} window {window:?}", case.id);
                assert!(!round.crashed && round.injected_all.len() <= 1, "{tag}");
                let Some(hit) = &round.injected else {
                    assert!(round.same_run(&normal), "{tag}: unmatched ≠ unarmed");
                    unfired += 1;
                    continue;
                };
                let replay = exact_replay(scenario, &compiled, seed, &round);
                assert!(round.same_run(&replay), "{tag}: fired {hit:?}");
                fired += 1;
                guarded += usize::from(hit.candidate.stack.is_some());
                any += usize::from(hit.candidate.occurrence.is_none());
                // An armed `throw new` that the firing made the run reach.
                let armed = |t: &TraceEntry| window.iter().any(|c| c.site == t.site);
                let throw_new = |t: &TraceEntry| sites[t.site.index()].kind == SiteKind::ThrowNew;
                behind += usize::from(round.trace.iter().any(|t| armed(t) && throw_new(t)));
            }
        }
    }
    // Every shape took part, or the property above was not exercised.
    assert!(
        fired > 1000 && unfired > 50,
        "{fired} fired, {unfired} unfired"
    );
    assert!(
        guarded > 50 && any > 50 && behind > 0,
        "{guarded} guarded, {any} any-occurrence, {behind} behind a firing"
    );
}

/// A `throw new` the workload does reach fault-free, armed in a window
/// beside an external site: whichever fires, the round is its replay.
#[test]
fn a_throw_new_that_fires_is_its_exact_replay() {
    let mut pb = ProgramBuilder::new("throw-new");
    let main = pb.declare("main", 0);
    let sites = std::cell::Cell::new((SiteId(0), SiteId(0)));
    pb.body(main, |b| {
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(6)), |b| {
            b.try_catch(
                |b| {
                    let io = b.external("disk.sync", &[ExceptionType::Io]);
                    b.sleep(e::rand(1, 5));
                    sites.set((io, b.throw_new("quota exceeded", ExceptionType::Io)));
                },
                ExceptionType::Io,
                |b| {
                    b.log_exc(Level::Warn, "request failed", vec![]);
                },
            );
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
    });
    let program = pb.finish().expect("program builds");
    let node = |name| NodeSpec::new(name, main, vec![]);
    let scenario = Scenario {
        name: "throw-new".into(),
        topology: Topology::new(vec![node("a"), node("b")]),
        program: Arc::new(program),
        config: SimConfig::default(),
    };
    let compiled = compile(&scenario.program);
    let (io, throw_new) = sites.get();
    let mut fired_at = Vec::new();
    for seed in SEEDS {
        for (io_at, throw_at) in [(9, 3), (5, 7), (2, 2)] {
            let window = InjectionPlan::window(vec![
                Candidate::exact(io, io_at, ExceptionType::Io),
                Candidate::exact(throw_new, throw_at, ExceptionType::Io),
            ]);
            let round = scenario.run_compiled(&compiled, seed, window).expect("run");
            let replay = exact_replay(&scenario, &compiled, seed, &round);
            assert!(round.same_run(&replay), "seed {seed}: {:?}", round.injected);
            fired_at.push(round.injected.expect("fired").candidate.site);
        }
    }
    assert!(fired_at.contains(&io) && fired_at.contains(&throw_new));
}

/// The first plan of `plans` whose run passes `keep`, with that run.
fn first_run(
    scenario: &Scenario,
    compiled: &CompiledProgram,
    seed: u64,
    plans: impl IntoIterator<Item = InjectionPlan>,
    keep: impl Fn(&RunResult) -> bool,
) -> Option<(InjectionPlan, RunResult)> {
    plans
        .into_iter()
        .map(|plan| {
            let run = scenario.run_compiled(compiled, seed, plan.clone());
            (plan, run.expect("run"))
        })
        .find(|(_, run)| keep(run))
}

/// An any-occurrence candidate for each distinct site of a run's trace,
/// in first-execution order.
fn sites_in_order(scenario: &Scenario, run: &RunResult) -> Vec<Candidate> {
    let mut seen = Vec::new();
    for t in &run.trace {
        if !seen.contains(&t.site) {
            seen.push(t.site);
        }
    }
    seen.into_iter()
        .map(|site| Candidate {
            site,
            occurrence: None,
            exc: scenario.program.sites[site.index()].exceptions[0],
            stack: None,
        })
        .collect()
}

/// Multi-shot plans `[first, later]` over the fault-free run's sites.
fn two_shot_plans(scenario: &Scenario, normal: &RunResult) -> Vec<InjectionPlan> {
    let sites = sites_in_order(scenario, normal);
    let (first, later) = sites.split_first().expect("a site executed");
    later
        .iter()
        .map(|c| InjectionPlan::multi(vec![first.clone(), c.clone()]))
        .collect()
}

/// Plans arming the run's first site beside a crash at each meta point.
fn crash_beside_injection_plans(
    scenario: &Scenario,
    compiled: &CompiledProgram,
    normal: &RunResult,
) -> Vec<InjectionPlan> {
    let first = sites_in_order(scenario, normal).swap_remove(0);
    let points = compiled.meta_points.iter();
    points
        .map(|&stmt| InjectionPlan {
            candidates: vec![first.clone()],
            crash_at: Some(CrashPoint {
                stmt,
                occurrence: 0,
            }),
            multi_shot: false,
        })
        .collect()
}

/// What the rule `injected_all.len() == 1 && !crashed` excludes is not the
/// run of `exact(first fired)`: a second firing and a crash both happen
/// after it, in a run the script does not describe.
#[test]
fn two_firings_or_a_crash_are_another_run() {
    let (mut twice, mut crashed) = (0, 0);
    for case in all_cases() {
        let scenario = &case.scenario;
        let compiled = compile(&scenario.program);
        let seed = *SEEDS.start();
        let normal = scenario
            .run_compiled(&compiled, seed, InjectionPlan::none())
            .expect("normal run");

        let plans = two_shot_plans(scenario, &normal);
        let fired_twice = |r: &RunResult| r.injected_all.len() == 2;
        if let Some((_, round)) = first_run(scenario, &compiled, seed, plans, fired_twice) {
            let replay = exact_replay(scenario, &compiled, seed, &round);
            assert_eq!(replay.injected_all.len(), 1, "{}", case.id);
            assert!(!round.same_run(&replay), "{}: two firings", case.id);
            twice += 1;
        }

        let plans = crash_beside_injection_plans(scenario, &compiled, &normal);
        let both = |r: &RunResult| r.crashed && r.injected.is_some();
        if let Some((_, round)) = first_run(scenario, &compiled, seed, plans, both) {
            let replay = exact_replay(scenario, &compiled, seed, &round);
            assert!(!replay.crashed, "{}", case.id);
            assert!(!round.same_run(&replay), "{}: crash", case.id);
            crashed += 1;
        }
    }
    assert!(
        twice >= 20 && crashed >= 11,
        "{twice} twice, {crashed} crashed of 22"
    );
}

/// Arms one plan, every round.
struct Fixed(InjectionPlan);

impl Strategy for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn init(&mut self, _ctx: &SearchContext) {}
    fn plan_injection(&mut self, _ctx: &SearchContext, _round: usize) -> Option<InjectionPlan> {
        Some(self.0.clone())
    }
    fn feedback(&mut self, _ctx: &SearchContext, _outcome: &RoundOutcome) {}
}

/// No in-repo strategy arms a multi-shot plan or a crash point beside a
/// candidate; one that does still gets the script replayed for real. Seen
/// from outside as the one thing only a real replay can produce: a round
/// that satisfies the oracle whose script, run alone, does not.
#[test]
fn an_ineligible_round_is_replayed_for_real() {
    let cfg = ExplorerConfig {
        max_rounds: 1,
        ..ExplorerConfig::default()
    };
    let seed = cfg.base_seed + 1;
    let (mut twice, mut crashed) = (0, 0);
    for case in all_cases() {
        let ctx = case
            .prepare(cfg.base_seed, &NoopTracer)
            .expect("prepare")
            .ctx;
        let normal = ctx.run_round(seed, InjectionPlan::none()).expect("normal");
        let alone = |round: &RunResult| {
            exact_replay(&ctx.scenario, ctx.scenario.program.compiled(), seed, round)
        };
        let search = |plan: InjectionPlan, oracle: &Oracle| {
            let r = explore(&ctx, oracle, &mut Fixed(plan), &cfg, None).expect("explore");
            assert!(
                r.success && r.script.is_some(),
                "{}: round satisfies",
                case.id
            );
            assert!(!r.replay_verified, "{}: script alone does not", case.id);
        };

        // A decoy fires first and becomes the script; the root cause fires
        // second and satisfies the ticket's oracle.
        let gt = case.ground_truth().expect("ground truth");
        let root = Candidate {
            site: gt.site,
            occurrence: None,
            exc: gt.exc,
            stack: None,
        };
        let decoys = sites_in_order(&ctx.scenario, &normal).into_iter();
        let plans = decoys
            .filter(|d| d.site != gt.site)
            .map(|d| InjectionPlan::multi(vec![d, root.clone()]));
        let decoy_then_root = |r: &RunResult| {
            r.injected_all.len() == 2 && case.oracle.check(r) && !case.oracle.check(&alone(r))
        };
        if let Some((plan, _)) = first_run(
            &ctx.scenario,
            ctx.scenario.program.compiled(),
            seed,
            plans,
            decoy_then_root,
        ) {
            search(plan, &case.oracle);
            twice += 1;
        }

        // The symptom is a dead node, the crash kills it, and the script
        // is the injection that fired beside the crash.
        let plans =
            crash_beside_injection_plans(&ctx.scenario, ctx.scenario.program.compiled(), &normal);
        let dead = |r: &RunResult| {
            r.nodes
                .iter()
                .find(|n| !n.alive)
                .map(|n| n.name.to_string())
        };
        let crash_only = |r: &RunResult| {
            r.crashed && r.injected.is_some() && dead(r).is_some() && dead(&alone(r)).is_none()
        };
        if let Some((plan, round)) = first_run(
            &ctx.scenario,
            ctx.scenario.program.compiled(),
            seed,
            plans,
            crash_only,
        ) {
            let node = dead(&round).expect("a node died");
            search(plan, &Oracle::Not(Box::new(Oracle::NodeAlive(node))));
            crashed += 1;
        }
    }
    assert!(
        twice >= 5 && crashed >= 5,
        "{twice} twice, {crashed} crashed of 22"
    );
}

/// Searches `scenario`, then replays the script on `fresh` — the same
/// scenario built again, sharing nothing with the search — and compares
/// the run with what the search recorded of its reproducing round.
fn script_replays_to_the_final_round(
    id: &str,
    scenario: &Scenario,
    fresh: &Scenario,
    failure_log: &str,
    oracle: &Oracle,
    strategy: FeedbackConfig,
) {
    let ctx = SearchContext::prepare(scenario.clone(), failure_log, 1_000).expect("context");
    let tracer = VecTracer::new();
    let mut s = FeedbackStrategy::new(strategy);
    let cfg = ExplorerConfig::default();
    let r = explore_traced(&ctx, oracle, &mut s, &cfg, None, &tracer).expect("explore");
    assert!(r.success && r.replay_verified, "{id}: reproduced");
    let script = r.script.expect("script");

    let events = tracer.take();
    let last = events
        .iter()
        .rev()
        .find(|e| matches!(e, TraceEvent::RoundEnd { .. }));
    let Some(TraceEvent::RoundEnd {
        round,
        injected,
        oracle: satisfied,
        ticks,
        steps,
        log_entries,
        injection_requests,
        ..
    }) = last
    else {
        panic!("{id}: no round_end");
    };
    assert!(*satisfied && round + 1 == r.rounds, "{id}: final round");

    let replay = script.replay(fresh).expect("replay");
    assert!(oracle.check(&replay), "{id}: replay satisfies the oracle");
    let fired = replay
        .injected
        .as_ref()
        .map(|i| (i.candidate.site, i.occurrence, i.candidate.exc));
    assert_eq!(fired, *injected, "{id}: injected");
    assert_eq!(
        fired,
        Some((script.site, script.occurrence, script.exc)),
        "{id}: script"
    );
    assert_eq!(
        (
            replay.end_time,
            replay.steps,
            replay.log.len(),
            replay.injection_requests
        ),
        (*ticks, *steps, *log_entries, *injection_requests),
        "{id}: ticks / steps / log entries / requests"
    );
}

#[test]
fn every_ticket_script_replays_to_the_final_round() {
    for case in all_cases() {
        let fresh = case_by_id(case.id).expect("case").scenario;
        let failure_log = case.failure_log().expect("failure log");
        for strategy in [FeedbackConfig::full(), FeedbackConfig::exhaustive()] {
            script_replays_to_the_final_round(
                case.id,
                &case.scenario,
                &fresh,
                &failure_log,
                &case.oracle,
                strategy,
            );
        }
    }
}

/// `e2e --smoke`'s corpus: 6 small, 3 medium and 1 large generated
/// program.
#[test]
fn every_generated_script_replays_to_the_final_round() {
    for (size, count) in [
        (SizeClass::Small, 6),
        (SizeClass::Medium, 3),
        (SizeClass::Large, 1),
    ] {
        let cfg = GenConfig {
            seed: 0xA11D,
            size,
            multi_fault: false,
        };
        for index in 0..count {
            let gc = generate_one(&cfg, index).expect("generated case");
            let fresh = generate_one(&cfg, index)
                .expect("generated again")
                .case
                .scenario;
            script_replays_to_the_final_round(
                &format!("{size}-{index:02}"),
                &gc.case.scenario,
                &fresh,
                &gc.failure_log,
                &gc.case.oracle,
                FeedbackConfig::full(),
            );
        }
    }
}
