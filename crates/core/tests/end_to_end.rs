//! End-to-end Explorer tests on a miniature WAL scenario.

use std::sync::Arc;

use anduril_core::{
    explore, explore_traced, reproduce, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Oracle,
    Scenario, SearchContext, TraceEvent, VecTracer,
};
use anduril_ir::builder::ProgramBuilder;
use anduril_ir::expr::build as e;
use anduril_ir::{ExceptionType, Level, Value};
use anduril_sim::{InjectionPlan, NodeSpec, SimConfig, Topology};

/// A miniature region server: a client streams appends; the server appends
/// each to external storage and breaks permanently on an append fault. A
/// background flusher provides noisy handled faults and irrelevant sites.
fn mini_wal_scenario() -> (Scenario, anduril_ir::SiteId) {
    let mut pb = ProgramBuilder::new("mini-wal");
    let broken = pb.global("broken", Value::Bool(false));
    let appended = pb.global("appendedCount", Value::Int(0));
    let append_chan = pb.chan("append");
    let flusher = pb.declare("flusher", 0);
    let rs_main = pb.declare("rs_main", 0);
    let client_main = pb.declare("client_main", 0);

    pb.body(flusher, |b| {
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(6)), |b| {
            b.sleep(e::rand(5, 25));
            b.try_catch(
                |b| {
                    b.external("disk.flush", &[ExceptionType::Io]);
                    b.log(Level::Debug, "memstore flushed", vec![]);
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "flush failed, retrying", vec![]);
                },
            );
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
    });

    let root_site = std::cell::Cell::new(anduril_ir::SiteId(0));
    pb.body(rs_main, |b| {
        b.spawn("flusher", flusher, vec![]);
        b.log(Level::Info, "regionserver started", vec![]);
        let msg = b.local();
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(20)), |b| {
            b.recv(append_chan, msg, Some(e::int(5_000)));
            b.try_catch(
                |b| {
                    let site = b.external("hdfs.append", &[ExceptionType::Io]);
                    root_site.set(site);
                    b.set_global(appended, e::add(e::glob(appended), e::int(1)));
                    b.log(Level::Debug, "appended entry {}", vec![e::glob(appended)]);
                },
                ExceptionType::Io,
                |b| {
                    b.log_exc(Level::Warn, "append failed", vec![]);
                    b.set_global(broken, e::bool_(true));
                },
            );
            b.if_(e::glob(broken), |b| {
                b.log(Level::Error, "WAL storage broken, stopping writes", vec![]);
                b.break_();
            });
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
        b.log(Level::Info, "regionserver done", vec![]);
    });

    pb.body(client_main, |b| {
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(20)), |b| {
            b.send(e::str_("rs1"), append_chan, e::var(i));
            b.sleep(e::rand(1, 8));
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
        b.log(Level::Info, "client done", vec![]);
    });

    let program = pb.finish().unwrap();
    let topology = Topology::new(vec![
        NodeSpec::new("rs1", program.func_named("rs_main").unwrap(), vec![]),
        NodeSpec::new("client", program.func_named("client_main").unwrap(), vec![]),
    ]);
    let scenario = Scenario {
        name: "mini-wal".into(),
        program: Arc::new(program),
        topology,
        config: SimConfig {
            max_time: 60_000,
            ..SimConfig::default()
        },
    };
    (scenario, root_site.get())
}

/// The oracle pins the root-cause *timing*: the break must happen after
/// exactly 7 successful appends, so only occurrence 7 of `hdfs.append`
/// satisfies it.
fn timing_oracle() -> Oracle {
    Oracle::And(vec![
        Oracle::LogContains("WAL storage broken".into()),
        Oracle::GlobalEquals {
            node: "rs1".into(),
            global: "appendedCount".into(),
            value: Value::Int(7),
        },
    ])
}

fn failure_log(scenario: &Scenario, site: anduril_ir::SiteId) -> String {
    let r = scenario
        .run(999, InjectionPlan::exact(site, 7, ExceptionType::Io))
        .unwrap();
    assert!(
        timing_oracle().check(&r),
        "ground truth must satisfy the oracle; log:\n{}",
        r.log_text()
    );
    r.log_text()
}

#[test]
fn context_identifies_relevant_observables() {
    let (scenario, site) = mini_wal_scenario();
    let failure = failure_log(&scenario, site);
    let ctx = SearchContext::prepare(scenario, &failure, 1000).unwrap();
    // The failure-only messages must include the break symptom and the
    // append failure; routine messages must not be observables.
    let texts: Vec<&str> = ctx
        .observables
        .iter()
        .map(|o| {
            ctx.scenario.program.templates[o.template.index()]
                .text
                .as_str()
        })
        .collect();
    assert!(
        texts.contains(&"WAL storage broken, stopping writes"),
        "{texts:?}"
    );
    assert!(texts.contains(&"append failed"), "{texts:?}");
    assert!(!texts.contains(&"regionserver started"), "{texts:?}");
    // The root-cause site must be among the pruned candidates.
    assert!(ctx.units.iter().any(|u| u.site == site));
    // Its instances were traced in the normal run.
    assert_eq!(ctx.site_instances[site.index()].len(), 20);
}

#[test]
fn full_feedback_reproduces_with_exact_timing() {
    let (scenario, site) = mini_wal_scenario();
    let failure = failure_log(&scenario, site);
    let oracle = timing_oracle();
    let cfg = ExplorerConfig::default();
    let (repro, _ctx) = reproduce(scenario, &failure, &oracle, &cfg).unwrap();
    assert!(repro.success, "rounds = {}", repro.rounds);
    let script = repro.script.expect("script on success");
    assert_eq!(script.site, site);
    assert_eq!(script.occurrence, 7);
    assert_eq!(script.exc, ExceptionType::Io);
    assert!(
        repro.replay_verified,
        "script must replay deterministically"
    );
    assert!(
        repro.rounds <= 40,
        "feedback should find the timing quickly, took {}",
        repro.rounds
    );
}

#[test]
fn feedback_beats_exhaustive() {
    let (scenario, site) = mini_wal_scenario();
    let failure = failure_log(&scenario, site);
    let oracle = timing_oracle();
    let cfg = ExplorerConfig::default();
    let ctx = SearchContext::prepare(scenario, &failure, cfg.base_seed).unwrap();

    let mut full = FeedbackStrategy::new(FeedbackConfig::full());
    let full_run = explore(&ctx, &oracle, &mut full, &cfg, Some(site)).unwrap();
    assert!(full_run.success);

    let mut exhaustive = FeedbackStrategy::new(FeedbackConfig::exhaustive());
    let ex_run = explore(&ctx, &oracle, &mut exhaustive, &cfg, Some(site)).unwrap();
    // Exhaustive eventually reproduces too, but in more rounds.
    assert!(ex_run.success, "exhaustive rounds = {}", ex_run.rounds);
    assert!(
        full_run.rounds <= ex_run.rounds,
        "feedback ({}) must not be worse than exhaustive ({})",
        full_run.rounds,
        ex_run.rounds
    );
}

#[test]
fn impossible_oracle_exhausts_and_reports_failure() {
    let (scenario, site) = mini_wal_scenario();
    let failure = failure_log(&scenario, site);
    // A symptom no fault can produce.
    let oracle = Oracle::LogContains("thermonuclear meltdown".into());
    let cfg = ExplorerConfig {
        max_rounds: 15,
        ..ExplorerConfig::default()
    };
    let (repro, _) = reproduce(scenario, &failure, &oracle, &cfg).unwrap();
    assert!(!repro.success);
    assert!(repro.script.is_none());
    assert!(repro.rounds <= 15);
}

/// The ground truth's rank in each round's plan, from a traced search's
/// `gt_rank` events.
fn ranks(events: &[TraceEvent]) -> Vec<Option<usize>> {
    (events.iter())
        .filter_map(|ev| match ev {
            TraceEvent::GroundTruthRank { rank, .. } => Some(*rank),
            _ => None,
        })
        .collect()
}

#[test]
fn round_events_are_consistent() {
    let (scenario, site) = mini_wal_scenario();
    let failure = failure_log(&scenario, site);
    let oracle = timing_oracle();
    let cfg = ExplorerConfig::default();
    let ctx = SearchContext::prepare(scenario, &failure, cfg.base_seed).unwrap();
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let tracer = VecTracer::new();
    let repro = explore_traced(&ctx, &oracle, &mut strategy, &cfg, Some(site), &tracer).unwrap();
    let events = tracer.take();
    let verdicts: Vec<bool> = (events.iter())
        .filter_map(|ev| match ev {
            TraceEvent::RoundEnd { oracle, .. } => Some(*oracle),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts.len(), repro.rounds);
    assert_eq!(verdicts.last(), Some(&true));
    assert!(repro.injection_requests > 0);
    // Ground-truth rank is tracked once planning has ranked sites.
    let ranks = ranks(&events);
    assert_eq!(ranks.len(), repro.rounds);
    assert!(ranks.iter().any(Option::is_some));
}

#[test]
fn search_dynamics_diagnostics() {
    let (scenario, site) = mini_wal_scenario();
    let failure = failure_log(&scenario, site);
    let oracle = timing_oracle();
    let cfg = ExplorerConfig::default();
    let ctx = SearchContext::prepare(scenario, &failure, cfg.base_seed).unwrap();
    println!(
        "observables={} graph_nodes={} graph_edges={} sources={} units={}",
        ctx.observables.len(),
        ctx.graph.node_count(),
        ctx.graph.edge_count(),
        ctx.graph.sources().len(),
        ctx.units.len()
    );
    for (name, cfg_s) in [
        ("full", FeedbackConfig::full()),
        ("exhaustive", FeedbackConfig::exhaustive()),
        ("site-distance", FeedbackConfig::site_distance()),
        ("multiply", FeedbackConfig::multiply()),
    ] {
        let mut s = FeedbackStrategy::new(cfg_s);
        let tracer = VecTracer::new();
        let r = explore_traced(&ctx, &oracle, &mut s, &cfg, Some(site), &tracer).unwrap();
        println!(
            "{name}: success={} rounds={} ranks={:?}",
            r.success,
            r.rounds,
            ranks(&tracer.take())
        );
    }
}
