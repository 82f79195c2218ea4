//! Differential tests: snapshot-resume against full replay.
//!
//! A run resumed from a [`WorldSnapshot`] must be *byte-identical* to the
//! same `(seed, plan)` run replayed from step zero: same log entries, same
//! fault-site trace and occurrence counters, same RNG draw order, same
//! final thread/node snapshots, same step counts. These tests pin that
//! property over all 22 failure cases, over whole explorations (sequential
//! and `--threads 4` batched, snapshots on and off), and over the cache's
//! eviction and disabled edge cases.
//!
//! Named with a `snapshot_` prefix so CI can verify the suite was not
//! silently filtered out.
//!
//! [`WorldSnapshot`]: anduril_sim::WorldSnapshot

use anduril_core::{
    explore, explore_batched, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, Reproduction, SearchContext,
};
use anduril_failures::all_cases;
use anduril_ir::lower::compile;
use anduril_sim::{
    run_compiled, run_compiled_capture, run_compiled_resume, InjectionPlan, RunResult,
    SnapshotPolicy,
};

/// Asserts every deterministic field of two run results is identical.
/// (`wall` and `decision_ns` are host-time metrics and excluded.)
fn assert_identical(tag: &str, full: &RunResult, resumed: &RunResult) {
    assert_eq!(full.log, resumed.log, "{tag}: log streams differ");
    assert_eq!(full.trace, resumed.trace, "{tag}: fault-site traces differ");
    assert_eq!(
        full.injected, resumed.injected,
        "{tag}: injected records differ"
    );
    assert_eq!(
        full.injected_all, resumed.injected_all,
        "{tag}: injection histories differ"
    );
    assert_eq!(full.crashed, resumed.crashed, "{tag}: crash flags differ");
    assert_eq!(
        full.site_occurrences, resumed.site_occurrences,
        "{tag}: occurrence counters differ"
    );
    assert_eq!(
        full.threads, resumed.threads,
        "{tag}: thread snapshots differ"
    );
    assert_eq!(full.nodes, resumed.nodes, "{tag}: node snapshots differ");
    assert_eq!(full.end_time, resumed.end_time, "{tag}: end times differ");
    assert_eq!(full.steps, resumed.steps, "{tag}: step counts differ");
    assert_eq!(
        full.injection_requests, resumed.injection_requests,
        "{tag}: injection request counts differ"
    );
}

/// A dense capture policy so even the shortest cases take snapshots.
fn dense() -> SnapshotPolicy {
    SnapshotPolicy {
        interval_steps: 64,
        max_snapshots: 32,
    }
}

#[test]
fn snapshot_all_cases_byte_identical() {
    let mut resumed_runs = 0usize;
    for case in all_cases() {
        let gt = case.ground_truth().expect("ground truth resolves");
        let program = &case.scenario.program;
        let topo = &case.scenario.topology;
        let compiled = compile(program);
        let cfg = case.scenario.config.with_seed(gt.seed);

        // Capture must not perturb the run it observes.
        let plain = run_compiled(program, &compiled, topo, &cfg, InjectionPlan::none())
            .expect("fault-free run");
        let (captured, prefix) = run_compiled_capture(
            program,
            &compiled,
            topo,
            &cfg,
            InjectionPlan::none(),
            &dense(),
        )
        .expect("capture run");
        assert_identical(&format!("{} capture vs plain", case.id), &plain, &captured);

        // Every plan shape resumes (or silently falls back) to the exact
        // full-replay result: no plan, the ground-truth injection, and an
        // immediate occurrence-0 injection whose divergence point precedes
        // every snapshot.
        let plans = [
            ("no-op plan", InjectionPlan::none()),
            (
                "ground-truth injection",
                InjectionPlan::exact(gt.site, gt.occurrence, gt.exc),
            ),
            (
                "occurrence-0 injection",
                InjectionPlan::exact(gt.site, 0, gt.exc),
            ),
        ];
        for (name, plan) in plans {
            let full =
                run_compiled(program, &compiled, topo, &cfg, plan.clone()).expect("full run");
            let (resumed, info) =
                run_compiled_resume(program, &compiled, topo, &cfg, plan, &prefix)
                    .expect("resume run");
            assert_identical(&format!("{} {name}", case.id), &full, &resumed);
            resumed_runs += usize::from(info.resumed);
        }
    }
    // The sweep must exercise real mid-timeline resumes, not just the
    // fallback path, or the equivalence claim above is vacuous.
    assert!(
        resumed_runs > 20,
        "only {resumed_runs} runs resumed from a snapshot"
    );
}

/// Capture points on the slice boundaries of a lone runner.
///
/// While `sleeper` sleeps, `worker` is the only thread with anything due:
/// every one of its slice boundaries is one where the scheduler keeps
/// running it without queueing its wake. A snapshot is taken at the event
/// loop's top with the next event still queued, so a boundary where one is
/// due must go through the queue after all — and the capture run, which
/// takes that detour every 64 steps, must still be the plain run, and
/// resuming from such a point the full replay.
#[test]
fn snapshot_capture_on_a_lone_runner_boundary() {
    use anduril_ir::builder::ProgramBuilder;
    use anduril_ir::{expr as e, ExceptionType, Level, SiteId};
    use anduril_sim::{NodeSpec, SimConfig, Topology};

    let mut pb = ProgramBuilder::new("lone-runner");
    let worker = pb.declare("worker", 0);
    let sleeper = pb.declare("sleeper", 0);
    pb.body(worker, |b| {
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(600)), |b| {
            b.try_catch(
                |b| {
                    b.external("disk.read", &[ExceptionType::Io]);
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "read failed at {}", vec![e::var(i)]);
                },
            );
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
        b.log(Level::Info, "worker done", vec![]);
    });
    pb.body(sleeper, |b| {
        // Far enough out to sit in the overflow heap, not the wheel.
        b.sleep(e::int(2_000));
        b.log(Level::Info, "sleeper woke", vec![]);
        b.sleep(e::int(100_000));
    });
    let program = pb.finish().expect("program");
    let topo = Topology::new(vec![
        NodeSpec::new("w", worker, vec![]),
        NodeSpec::new("s", sleeper, vec![]),
    ]);
    let compiled = compile(&program);
    let cfg = SimConfig::default();

    let plain =
        run_compiled(&program, &compiled, &topo, &cfg, InjectionPlan::none()).expect("plain run");
    assert!(plain.has_log("worker done") && plain.has_log("sleeper woke"));
    let (captured, prefix) = run_compiled_capture(
        &program,
        &compiled,
        &topo,
        &cfg,
        InjectionPlan::none(),
        &dense(),
    )
    .expect("capture run");
    assert_identical("lone runner capture vs plain", &plain, &captured);
    assert!(prefix.snapshot_count() >= 8, "captured along the way");

    for occurrence in [0u32, 150, 300, 599] {
        let plan = InjectionPlan::exact(SiteId(0), occurrence, ExceptionType::Io);
        let full = run_compiled(&program, &compiled, &topo, &cfg, plan.clone()).expect("full run");
        let (resumed, info) = run_compiled_resume(&program, &compiled, &topo, &cfg, plan, &prefix)
            .expect("resume run");
        assert_identical(&format!("lone runner occ {occurrence}"), &full, &resumed);
        assert_eq!(info.resumed, occurrence > 0, "occurrence {occurrence}");
    }
}

/// Asserts the deterministic parts of two explorations agree (wall-clock
/// and decision-time metrics excluded).
fn assert_repro_agrees(tag: &str, a: &Reproduction, b: &Reproduction) {
    assert_eq!(a.success, b.success, "{tag}: success differs");
    assert_eq!(a.rounds, b.rounds, "{tag}: round counts differ");
    assert_eq!(a.script, b.script, "{tag}: reproduction scripts differ");
    assert_eq!(
        a.sim_time_total, b.sim_time_total,
        "{tag}: simulated time differs"
    );
    assert_eq!(
        a.injection_requests, b.injection_requests,
        "{tag}: injection requests differ"
    );
}

fn explore_case(case_id: &str, threads: usize, snapshot_capacity: usize) -> Reproduction {
    let case = anduril_failures::case_by_id(case_id).expect("case");
    let failure_log = case.failure_log().expect("failure log");
    let mut ctx =
        SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
    ctx.set_snapshot_capacity(snapshot_capacity);
    let cfg = ExplorerConfig::default();
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let repro = if threads > 1 {
        let batch = BatchExplorerConfig {
            threads,
            ..BatchExplorerConfig::default()
        };
        explore_batched(&ctx, &case.oracle, &mut strategy, &cfg, &batch, None).expect("explore")
    } else {
        explore(&ctx, &case.oracle, &mut strategy, &cfg, None).expect("explore")
    };
    if threads > 1 && snapshot_capacity > 0 {
        let stats = ctx.snapshot_stats();
        assert!(
            stats.stored > 0,
            "{case_id}: batched spec jobs stored no prefixes"
        );
    }
    repro
}

#[test]
fn snapshot_exploration_equivalence_sequential_and_batched() {
    // Snapshot-resume must be invisible to the search: same script, same
    // round count, same simulated time — sequentially, batched with 4
    // worker threads, and with the cache disabled.
    for case_id in ["f3", "f17"] {
        let seq = explore_case(case_id, 1, 16);
        assert!(seq.success, "{case_id}: expected reproduction");
        let batch_on = explore_case(case_id, 4, 16);
        let batch_off = explore_case(case_id, 4, 0);
        assert_repro_agrees(&format!("{case_id} seq vs batch+snap"), &seq, &batch_on);
        assert_repro_agrees(&format!("{case_id} snap on vs off"), &batch_on, &batch_off);
    }
}

#[test]
fn snapshot_cache_evicts_fifo_at_capacity() {
    let case = anduril_failures::case_by_id("f3").expect("case");
    let failure_log = case.failure_log().expect("failure log");
    let mut ctx =
        SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
    ctx.set_snapshot_capacity(1);
    let gt = case.ground_truth().expect("ground truth");
    let plan = InjectionPlan::exact(gt.site, gt.occurrence, gt.exc);

    // Capture three seeds through a capacity-1 cache: only the newest
    // prefix survives, and runs against evicted seeds fall back to full
    // replay with identical results.
    for seed in [2_001, 2_002, 2_003] {
        ctx.run_round_capturing(seed, InjectionPlan::none())
            .expect("capture round");
    }
    assert_eq!(ctx.snapshot_stats().stored, 1, "FIFO eviction to capacity");
    for seed in [2_001, 2_002, 2_003] {
        let via_cache = ctx.run_round(seed, plan.clone()).expect("round");
        let direct = case
            .scenario
            .run_compiled(&ctx.compiled, seed, plan.clone())
            .expect("direct run");
        assert_identical(&format!("f3 seed {seed} capacity-1"), &direct, &via_cache);
    }
    let stats = ctx.snapshot_stats();
    assert_eq!(stats.hits, 1, "only the retained seed can hit");
    assert!(stats.misses >= 2, "evicted seeds must miss");
}

#[test]
fn snapshot_capacity_zero_disables_capture_and_resume() {
    let case = anduril_failures::case_by_id("f3").expect("case");
    let failure_log = case.failure_log().expect("failure log");
    let mut ctx =
        SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
    ctx.set_snapshot_capacity(0);
    ctx.run_round_capturing(3_001, InjectionPlan::none())
        .expect("capture round");
    ctx.run_round(3_001, InjectionPlan::none()).expect("round");
    let stats = ctx.snapshot_stats();
    assert_eq!(stats.stored, 0, "disabled cache must not store");
    assert_eq!(
        stats.hits + stats.misses,
        0,
        "disabled cache must not count"
    );
}
