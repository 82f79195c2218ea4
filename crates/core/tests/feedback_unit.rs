//! Unit-level behaviour of the feedback strategy on a controlled scenario.

use std::sync::Arc;

use anduril_core::{
    explore, explore_traced, Aggregate, Combine, ExplorerConfig, FeedbackConfig, FeedbackStrategy,
    Oracle, RoundOutcome, Scenario, SearchContext, Strategy, TraceEvent, VecTracer,
};
use anduril_ir::builder::ProgramBuilder;
use anduril_ir::expr::build as e;
use anduril_ir::{ExceptionType, Level, Value};
use anduril_sim::{Candidate, InjectionPlan, NodeSpec, SimConfig, Topology};

/// Two fault sites: a decoy close to a noisy observable and the real root
/// cause behind a deeper chain, so feedback dynamics are observable.
fn two_site_scenario() -> (Scenario, anduril_ir::SiteId, anduril_ir::SiteId) {
    let mut pb = ProgramBuilder::new("unit");
    let wedged = pb.global("wedged", Value::Bool(false));
    let main = pb.declare("main", 0);
    let decoy_site = std::cell::Cell::new(anduril_ir::SiteId(0));
    let root_site = std::cell::Cell::new(anduril_ir::SiteId(0));
    pb.body(main, |b| {
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(10)), |b| {
            b.try_catch(
                |b| {
                    decoy_site.set(b.external("decoy.op", &[ExceptionType::Io]));
                },
                ExceptionType::Io,
                |b| {
                    // The decoy shares the symptom's log template but can
                    // never set the wedged flag.
                    b.log(Level::Warn, "subsystem degraded", vec![]);
                },
            );
            b.try_catch(
                |b| {
                    root_site.set(b.external("root.op", &[ExceptionType::Io]));
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "subsystem degraded", vec![]);
                    b.set_global(wedged, e::bool_(true));
                    b.log(Level::Error, "service wedged permanently", vec![]);
                },
            );
            b.sleep(e::rand(2, 9));
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
            name: "unit".into(),
            program: Arc::new(program),
            topology: topo,
            config: SimConfig::default(),
        },
        decoy_site.get(),
        root_site.get(),
    )
}

fn oracle() -> Oracle {
    Oracle::And(vec![
        Oracle::LogContains("service wedged permanently".into()),
        Oracle::GlobalEquals {
            node: "n1".into(),
            global: "wedged".into(),
            value: Value::Bool(true),
        },
    ])
}

fn context() -> (SearchContext, anduril_ir::SiteId, anduril_ir::SiteId) {
    let (scenario, decoy, root) = two_site_scenario();
    let failure = scenario
        .run(999, InjectionPlan::exact(root, 4, ExceptionType::Io))
        .unwrap();
    assert!(oracle().check(&failure));
    let ctx = SearchContext::prepare(scenario, &failure.log_text(), 1_000).unwrap();
    (ctx, decoy, root)
}

/// Every candidate a plan arms.
fn candidates(plan: InjectionPlan) -> Vec<Candidate> {
    plan.candidates().cloned().collect()
}

#[test]
fn both_sites_become_candidates() {
    let (ctx, decoy, root) = context();
    let sites: Vec<_> = ctx.units.iter().map(|u| u.site).collect();
    assert!(sites.contains(&decoy), "decoy shares the symptom template");
    assert!(sites.contains(&root));
}

#[test]
fn plan_round_respects_window_size() {
    let (ctx, _, _) = context();
    for k in [1usize, 2, 5] {
        let mut s = FeedbackStrategy::new(FeedbackConfig::full_with(k, 1.0));
        s.init(&ctx);
        let plan = candidates(s.plan_injection(&ctx, 0).expect("a plan"));
        assert!(plan.len() <= k, "window {k}, got {}", plan.len());
        assert!(!plan.is_empty());
    }
}

#[test]
fn window_doubles_when_nothing_injected() {
    let (ctx, _, _) = context();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full_with(1, 1.0));
    s.init(&ctx);
    let before = candidates(s.plan_injection(&ctx, 0).expect("a plan")).len();
    assert_eq!(before, 1);
    // Feed an outcome with no injection: window must grow.
    let result = ctx.scenario.run(1_234, InjectionPlan::none()).unwrap();
    let outcome = RoundOutcome::new(&ctx, result);
    s.feedback(&ctx, &outcome);
    let after = candidates(s.plan_injection(&ctx, 1).expect("a plan")).len();
    assert!(after >= 2, "window did not grow: {after}");
}

#[test]
fn tried_instances_are_not_rearmed() {
    let (ctx, _, _) = context();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full_with(1, 1.0));
    s.init(&ctx);
    let first = candidates(s.plan_injection(&ctx, 0).expect("a plan"));
    let candidate = first[0].clone();
    // Run with exactly that candidate so it gets marked tried.
    let plan = InjectionPlan::window(vec![candidate.clone()]);
    let result = ctx.scenario.run(ctx.base_seed + 1, plan).unwrap();
    assert!(result.injected.is_some(), "candidate should fire");
    let outcome = RoundOutcome::new(&ctx, result);
    s.feedback(&ctx, &outcome);
    let second = s.plan_injection(&ctx, 1).map_or(Vec::new(), candidates);
    assert!(
        !second.iter().any(|c| c.site == candidate.site
            && c.occurrence == candidate.occurrence
            && c.exc == candidate.exc),
        "tried candidate re-armed"
    );
}

#[test]
fn all_variant_configs_reproduce_the_unit_scenario() {
    let (ctx, _, root) = context();
    let configs = [
        FeedbackConfig::full(),
        FeedbackConfig::exhaustive(),
        FeedbackConfig::site_distance(),
        FeedbackConfig::site_feedback(),
        FeedbackConfig::multiply(),
        FeedbackConfig::sum_aggregate(),
        FeedbackConfig::order_distance(),
        FeedbackConfig::global_diff(),
    ];
    for cfg in configs {
        assert_eq!(
            cfg.combine == Combine::Multiply,
            cfg.name == "multiply-feedback"
        );
        assert_eq!(cfg.aggregate == Aggregate::Sum, cfg.name == "sum-aggregate");
        let name = cfg.name;
        let mut s = FeedbackStrategy::new(cfg);
        let r = explore(
            &ctx,
            &oracle(),
            &mut s,
            &ExplorerConfig::default(),
            Some(root),
        )
        .unwrap();
        assert!(r.success, "{name} failed");
        let script = r.script.unwrap();
        assert_eq!(script.site, root, "{name} found the wrong site");
    }
}

#[test]
fn site_rank_tracks_the_ground_truth() {
    let (ctx, _, root) = context();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    let tracer = VecTracer::new();
    let r = explore_traced(
        &ctx,
        &oracle(),
        &mut s,
        &ExplorerConfig::default(),
        Some(root),
        &tracer,
    )
    .unwrap();
    assert!(r.success);
    let mut ranked = 0;
    for ev in tracer.take() {
        if let TraceEvent::GroundTruthRank { site, rank, .. } = ev {
            assert_eq!(site, root);
            let rank = rank.expect("ranked every round");
            assert!(rank >= 1 && rank <= ctx.units.len());
            ranked += 1;
        }
    }
    assert_eq!(ranked, r.rounds);
}

#[test]
fn exhausted_search_space_terminates_before_round_cap() {
    // With every candidate tried and an unsatisfiable oracle, the loop
    // must stop when the strategy returns an empty plan.
    let (ctx, _, _) = context();
    let impossible = Oracle::LogContains("this text never appears".into());
    let mut s = FeedbackStrategy::new(FeedbackConfig::exhaustive());
    let cfg = ExplorerConfig {
        max_rounds: 10_000,
        ..ExplorerConfig::default()
    };
    let r = explore(&ctx, &impossible, &mut s, &cfg, None).unwrap();
    assert!(!r.success);
    // The unit scenario has ~20 instances per site and 2 sites: far less
    // than the cap.
    assert!(r.rounds < 200, "ran {} rounds", r.rounds);
}

#[test]
fn window_growth_is_logarithmic_in_candidates() {
    // §5.2.5: with n candidates there are at most O(log n) rounds without
    // any injection, because the window doubles each time.
    let (ctx, _, _) = context();
    let n_candidates: usize = ctx.site_instances.iter().map(Vec::len).sum();
    let impossible = Oracle::LogContains("never".into());
    let mut s = FeedbackStrategy::new(FeedbackConfig::full_with(1, 1.0));
    let cfg = ExplorerConfig {
        max_rounds: 5_000,
        ..ExplorerConfig::default()
    };
    let tracer = VecTracer::new();
    explore_traced(&ctx, &impossible, &mut s, &cfg, None, &tracer).unwrap();
    let wasted = (tracer.take().iter())
        .filter(|ev| matches!(ev, TraceEvent::RoundEnd { injected: None, .. }))
        .count();
    let bound = (n_candidates as f64).log2().ceil() as usize + 2;
    assert!(
        wasted <= bound * 4,
        "wasted {wasted} rounds for {n_candidates} candidates (bound {bound})"
    );
}

#[test]
fn repro_scripts_round_trip_through_text() {
    use anduril_core::ReproScript;
    use anduril_ir::{ExceptionType, SiteId};
    let script = ReproScript {
        seed: 1_042,
        site: SiteId(17),
        occurrence: 9,
        exc: ExceptionType::Socket,
        desc: "net.connectNN".into(),
    };
    let text = script.to_text();
    assert!(text.starts_with("# anduril reproduction script v1\n"));
    let parsed = ReproScript::parse(&text).expect("parses");
    assert_eq!(parsed, script);
    // Malformed inputs are rejected, not panicked on.
    assert!(ReproScript::parse("").is_none());
    assert!(ReproScript::parse("seed = x\nsite = 1").is_none());
    assert!(ReproScript::parse("garbage without equals").is_none());
}

#[test]
fn emitted_script_replays_the_failure() {
    let (ctx, _, root) = context();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    let r = explore(
        &ctx,
        &oracle(),
        &mut s,
        &ExplorerConfig::default(),
        Some(root),
    )
    .unwrap();
    let script = r.script.unwrap();
    let text = script.to_text();
    let parsed = anduril_core::ReproScript::parse(&text).unwrap();
    let replay = parsed.replay(&ctx.scenario).unwrap();
    assert!(oracle().check(&replay));
}

#[test]
fn observable_presence_tracks_round_logs() {
    let (ctx, _, root) = context();
    // A fault-free run reproduces the normal log: the failure-only
    // observables must be missing.
    let clean = ctx.scenario.run(2_000, InjectionPlan::none()).unwrap();
    let present = ctx.present_observables(&clean.log);
    let wedged_obs: Vec<usize> = ctx
        .observables
        .iter()
        .enumerate()
        .filter(|(_, o)| {
            ctx.scenario.program.templates[o.template.index()]
                .text
                .contains("wedged")
        })
        .map(|(k, _)| k)
        .collect();
    assert!(!wedged_obs.is_empty(), "the symptom is an observable");
    for k in &wedged_obs {
        assert!(
            !present.contains(k),
            "symptom observable present in a clean run"
        );
    }
    // A ground-truth run makes them present.
    let gt = ctx
        .scenario
        .run(
            999,
            InjectionPlan::exact(root, 4, anduril_ir::ExceptionType::Io),
        )
        .unwrap();
    let present_gt = ctx.present_observables(&gt.log);
    for k in &wedged_obs {
        assert!(present_gt.contains(k), "symptom absent in the failure run");
    }
}

#[test]
fn temporal_distance_prefers_nearby_instances() {
    let (ctx, _, root) = context();
    // The ground-truth instance (occurrence 4) should sit closer to the
    // symptom observable than the first occurrence does.
    let symptom_k = ctx
        .observables
        .iter()
        .position(|o| {
            ctx.scenario.program.templates[o.template.index()]
                .text
                .contains("wedged")
        })
        .expect("symptom observable");
    let instances = &ctx.site_instances[root.index()];
    assert!(instances.len() >= 5);
    let t_first = ctx.temporal_distance(instances[0].1, symptom_k);
    let t_gt = ctx.temporal_distance(instances[4].1, symptom_k);
    assert!(
        t_gt <= t_first,
        "occurrence 4 ({t_gt}) should not be further than occurrence 0 ({t_first})"
    );
}

#[test]
fn explanations_expose_the_priority_terms() {
    let (ctx, decoy, root) = context();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    s.init(&ctx);
    let _ = s.plan_injection(&ctx, 0);
    for unit in &ctx.units {
        let p = s.explain_unit(&ctx, *unit).expect("connected unit");
        assert_eq!((p.site, p.exc), (unit.site, unit.exc));
        // F_i is the spatial distance plus the feedback (zero initially).
        assert_eq!(p.f_i, p.l as f64 + p.i_k);
        assert_eq!(p.i_k, 0.0, "no feedback before any round");
        assert!(s.site_rank(p.site).is_some());
    }
    // The decoy and the root are both explained, with valid observables.
    let root_ex = s
        .explain_unit(&ctx, *ctx.units.iter().find(|u| u.site == root).unwrap())
        .unwrap();
    let decoy_ex = s
        .explain_unit(&ctx, *ctx.units.iter().find(|u| u.site == decoy).unwrap())
        .unwrap();
    assert!(root_ex.k_star < ctx.observables.len());
    assert!(decoy_ex.k_star < ctx.observables.len());
}

#[test]
fn provenance_is_the_plans_first_candidate() {
    let (ctx, _, _) = context();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    s.init(&ctx);
    let plan = candidates(s.plan_injection(&ctx, 0).expect("a plan"));
    let p = s.provenance(&ctx).expect("a ranked plan");
    let first = &plan[0];
    assert_eq!(
        (p.site, p.exc, p.occurrence),
        (first.site, first.exc, first.occurrence)
    );
    // The armed window is a prefix of the ranking.
    let ranked: Vec<_> = s.ranked().iter().map(|u| (u.site, u.exc)).collect();
    let armed: Vec<_> = plan.iter().map(|c| (c.site, c.exc)).collect();
    assert_eq!(ranked[..armed.len()], armed[..]);
    // Distinct sites rank 1..=n in the plan's order.
    let mut sites = Vec::new();
    for u in s.ranked() {
        if !sites.contains(&u.site) {
            sites.push(u.site);
        }
    }
    let ranks: Vec<_> = sites.iter().map(|&site| s.site_rank(site)).collect();
    let expected: Vec<_> = (1..=sites.len()).map(Some).collect();
    assert_eq!(ranks, expected);
    // An exhaustive plan ranks nothing and so explains nothing.
    let mut x = FeedbackStrategy::new(FeedbackConfig::exhaustive());
    x.init(&ctx);
    assert!(x.plan_injection(&ctx, 0).is_some());
    assert!(x.ranked().is_empty());
    assert_eq!(x.provenance(&ctx), None);
}
