//! Quickstart: build a tiny faulty service, seed a "production" failure,
//! and let ANDURIL find the root-cause fault and timing.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use anduril::ir::builder::ProgramBuilder;
use anduril::ir::expr::build as e;
use anduril::ir::{ExceptionType, Level, Value};
use anduril::sim::{InjectionPlan, NodeSpec, SimConfig, Topology};
use anduril::{reproduce, ExplorerConfig, Oracle, Scenario};

fn main() {
    // 1. A miniature service: a server appends client records to external
    //    storage; one append fault permanently wedges it.
    let mut pb = ProgramBuilder::new("quickstart");
    let broken = pb.global("broken", Value::Bool(false));
    let stored = pb.global("stored", Value::Int(0));
    let records = pb.chan("records");
    let server = pb.declare("server_main", 0);
    let client = pb.declare("client_main", 0);
    pb.body(server, |b| {
        let msg = b.local();
        b.log(Level::Info, "server ready", vec![]);
        b.loop_(|b| {
            b.try_catch(
                |b| {
                    b.recv(records, msg, Some(e::int(3_000)));
                },
                ExceptionType::Timeout,
                |b| {
                    b.break_();
                },
            );
            b.try_catch(
                |b| {
                    b.external("storage.append", &[ExceptionType::Io]);
                    b.set_global(stored, e::add(e::glob(stored), e::int(1)));
                },
                ExceptionType::Io,
                |b| {
                    b.log_exc(
                        Level::Error,
                        "storage append failed, wedging writes",
                        vec![],
                    );
                    b.set_global(broken, e::bool_(true));
                    b.break_();
                },
            );
        });
        b.log(Level::Info, "server stopped", vec![]);
    });
    pb.body(client, |b| {
        let i = b.local();
        b.assign(i, e::int(0));
        b.while_(e::lt(e::var(i), e::int(15)), |b| {
            b.send(e::str_("srv"), records, e::var(i));
            b.sleep(e::rand(5, 20));
            b.assign(i, e::add(e::var(i), e::int(1)));
        });
    });
    let program = pb.finish().expect("program builds");

    let scenario = Scenario {
        name: "quickstart".into(),
        topology: Topology::new(vec![
            NodeSpec::new("srv", program.func_named("server_main").unwrap(), vec![]),
            NodeSpec::new("cli", program.func_named("client_main").unwrap(), vec![]),
        ]),
        program: Arc::new(program),
        config: SimConfig::default(),
    };

    // 2. The failure symptom: the server wedged after storing exactly 7
    //    records. Produce the "production" failure log by injecting the
    //    (here known) root cause.
    let oracle = Oracle::And(vec![
        Oracle::LogContains("storage append failed".into()),
        Oracle::GlobalEquals {
            node: "srv".into(),
            global: "stored".into(),
            value: Value::Int(7),
        },
    ]);
    let root_site = scenario.program.sites[0].id;
    let production = scenario
        .run(999, InjectionPlan::exact(root_site, 7, ExceptionType::Io))
        .expect("production run");
    assert!(oracle.check(&production));
    let failure_log = production.log_text();
    println!("--- production failure log ---\n{failure_log}");

    // 3. Hand ANDURIL the scenario, the failure log, and the oracle; it
    //    searches the fault space for the root cause and timing.
    let (repro, ctx) = reproduce(scenario, &failure_log, &oracle, &ExplorerConfig::default())
        .expect("exploration runs");

    println!("--- reproduction ---");
    println!("relevant observables : {}", ctx.observables.len());
    println!("candidate fault units: {}", ctx.units.len());
    println!("reproduced           : {}", repro.success);
    println!("rounds               : {}", repro.rounds);
    let script = repro.script.expect("script on success");
    println!(
        "root cause           : inject {} at `{}` occurrence {}",
        script.exc, script.desc, script.occurrence
    );
    println!("replay verified      : {}", repro.replay_verified);
}
