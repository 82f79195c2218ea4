//! The paper's iterative workflow for multi-fault failures (§3,
//! Assumptions): ANDURIL injects a single fault per round, so a failure
//! needing two causally independent faults cannot be reproduced in one
//! pass — but the near-miss logs guide the developer to bake one fault
//! into the workload and rerun.
//!
//! Run with `cargo run --example iterative_two_faults`.

use std::sync::Arc;

use anduril::ir::builder::ProgramBuilder;
use anduril::ir::expr::build as e;
use anduril::ir::{ExceptionType, Level, Program, Value};
use anduril::sim::{InjectionPlan, NodeSpec, SimConfig, Topology};
use anduril::{reproduce, ExplorerConfig, Oracle, Scenario};

/// A service where corruption needs *two* faults: first the cache-sync
/// fault leaves the cache stale (handled, logged, survivable); then a
/// disk-write fault while the cache is stale corrupts state. `stale_cache`
/// pre-arms the first fault in the workload, the developer's "fix one
/// fault at a time into the workload" move.
fn build_service(stale_cache: bool) -> Program {
    let mut pb = ProgramBuilder::new("two-fault-service");
    let cache_stale = pb.global("cacheStale", Value::Bool(stale_cache));
    let corrupted = pb.global("stateCorrupted", Value::Bool(false));
    let writes = pb.global("writesApplied", Value::Int(0));
    let main = pb.declare("main", 0);
    pb.body(main, |b| {
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(12)), |b| {
            // Fault A: the cache sync can fail; the service tolerates it
            // but remembers the staleness.
            b.try_catch(
                |b| {
                    b.external("cache.sync", &[ExceptionType::Io]);
                },
                ExceptionType::Io,
                |b| {
                    b.log_exc(
                        Level::Warn,
                        "cache sync failed, serving stale entries",
                        vec![],
                    );
                    b.set_global(cache_stale, e::bool_(true));
                },
            );
            // Fault B: a disk-write failure recovers cleanly — unless the
            // cache is stale, in which case the recovery path reads the
            // stale entry and corrupts the state (the two-fault bug).
            b.try_catch(
                |b| {
                    b.external("disk.write", &[ExceptionType::Io]);
                    b.set_global(writes, e::add(e::glob(writes), e::int(1)));
                },
                ExceptionType::Io,
                |b| {
                    b.if_else(
                        e::glob(cache_stale),
                        |b| {
                            b.set_global(corrupted, e::bool_(true));
                            b.log(
                                Level::Error,
                                "recovered from stale cache entry, state corrupted",
                                vec![],
                            );
                        },
                        |b| {
                            b.log(
                                Level::Warn,
                                "disk write failed, recovered from cache",
                                vec![],
                            );
                        },
                    );
                },
            );
            b.sleep(e::rand(3, 10));
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
        b.log(Level::Info, "service run complete", vec![]);
    });
    pb.finish().expect("program builds")
}

fn scenario(stale_cache: bool) -> Scenario {
    let program = build_service(stale_cache);
    Scenario {
        name: "two-fault".into(),
        topology: Topology::new(vec![NodeSpec::new(
            "svc",
            program.func_named("main").unwrap(),
            vec![],
        )]),
        program: Arc::new(program),
        config: SimConfig::default(),
    }
}

fn main() {
    let oracle = Oracle::And(vec![
        Oracle::LogContains("state corrupted".into()),
        Oracle::GlobalEquals {
            node: "svc".into(),
            global: "stateCorrupted".into(),
            value: Value::Bool(true),
        },
    ]);

    // The production failure needed BOTH faults. Produce its log by
    // injecting fault A exactly once organically... here, by running the
    // two-fault plan (cache.sync occ 2, then disk.write occ 5) by hand.
    let base = scenario(false);
    let cache_site = base
        .program
        .sites
        .iter()
        .find(|s| s.desc == "cache.sync")
        .unwrap()
        .id;
    let disk_site = base
        .program
        .sites
        .iter()
        .find(|s| s.desc == "disk.write")
        .unwrap()
        .id;
    // A two-candidate plan fires only once (single-injection semantics),
    // so the genuine two-fault production run is emulated with the
    // pre-armed variant: fault A happened in production before the log
    // window we got.
    let production = scenario(true)
        .run(999, InjectionPlan::exact(disk_site, 5, ExceptionType::Io))
        .expect("production run");
    assert!(oracle.check(&production));
    let failure_log = production.log_text();

    // Pass 1: ANDURIL on the original scenario. A single injection cannot
    // produce both faults, so reproduction fails — but the near-miss logs
    // show the disk-write recovery path.
    println!("pass 1: original workload (single fault cannot corrupt)");
    let cfg = ExplorerConfig {
        max_rounds: 120,
        ..ExplorerConfig::default()
    };
    let (pass1, _) = reproduce(scenario(false), &failure_log, &oracle, &cfg).unwrap();
    println!(
        "  reproduced: {} after {} rounds (expected: false)",
        pass1.success, pass1.rounds
    );
    assert!(!pass1.success);

    // The developer inspects the round logs, sees `disk write failed,
    // recovered from cache` everywhere but never `stale`, and concludes a
    // *second* fault (the cache sync) must precede it. Following §3, they
    // fix fault A into the workload and rerun:
    println!("\npass 2: workload updated to enforce the first fault (stale cache)");
    let (pass2, _) = reproduce(scenario(true), &failure_log, &oracle, &cfg).unwrap();
    println!("  reproduced: {} in {} rounds", pass2.success, pass2.rounds);
    let script = pass2.script.expect("script");
    println!(
        "  root cause: inject {} at `{}` occurrence {}",
        script.exc, script.desc, script.occurrence
    );
    assert!(pass2.success);
    assert_eq!(script.site, disk_site);
    let _ = cache_site;
    println!("\nthe two-fault failure is reproduced iteratively, one fault per pass");
}
