//! The three Kafka failures (f18–f20).

use std::sync::Arc;

use anduril_core::{Oracle, Scenario};
use anduril_ir::{ExceptionType, Program, Value};
use anduril_sim::{NodeSpec, SimConfig, Topology};
use anduril_targets::kafka::{self, names};

use crate::case::{DeeperCause, FailureCase};

fn scenario(program: &Arc<Program>, name: &str, nodes: Vec<NodeSpec>, max_time: u64) -> Scenario {
    Scenario {
        name: name.to_string(),
        program: Arc::clone(program),
        topology: Topology::new(nodes),
        config: SimConfig {
            max_time,
            ..SimConfig::default()
        },
    }
}

/// f18 — KA-12508: emit-on-change tables lose updates after an error and
/// restart.
pub fn f18(program: &Arc<Program>) -> FailureCase {
    let streams = program.func_named(names::STREAMS_MAIN).expect("streams");
    let broker = program.func_named(names::BROKER_MAIN).expect("broker");
    let wl = program.func_named(names::WL_F18).expect("wl");
    FailureCase {
        id: "f18",
        ticket: "KA-12508",
        system: "Kafka",
        description: "Emit-on-change tables lose updates after error and restart",
        scenario: scenario(
            program,
            "KA-12508",
            vec![
                NodeSpec::new("broker1", broker, vec![Value::Int(800)]),
                NodeSpec::new("streams", streams, vec![Value::Int(700)]),
                NodeSpec::new("client", wl, vec![Value::Int(5)]),
            ],
            18_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("restarting stream task".into()),
            // Timing pin: the lost change is value 2 (two changes emitted
            // before the fault).
            Oracle::GlobalEquals {
                node: "streams".into(),
                global: "changesEmitted".into(),
                value: Value::Int(4),
            },
            Oracle::LogAbsent("Emitted change for value 2".into()),
        ]),
        root_site_desc: names::SITE_F18,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f19 — KA-9374: a blocked connector disables the whole worker. The
/// deeper-cause entry (KA-15339 analog) notes the startup changelog append
/// can block the same herder path.
pub fn f19(program: &Arc<Program>) -> FailureCase {
    let worker = program.func_named(names::WORKER_MAIN).expect("worker");
    let broker = program.func_named(names::BROKER_MAIN).expect("broker");
    let wl = program.func_named(names::WL_F19).expect("wl");
    FailureCase {
        id: "f19",
        ticket: "KA-9374",
        system: "Kafka",
        description: "Blocked connectors disable the Workers",
        scenario: scenario(
            program,
            "KA-9374",
            vec![
                NodeSpec::new("broker1", broker, vec![Value::Int(800)]),
                NodeSpec::new("worker", worker, vec![Value::Int(1_200)]),
                NodeSpec::new("client", wl, vec![Value::Int(0)]),
            ],
            18_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("REST request timed out".into()),
            Oracle::LogContains("Starting connector".into()),
            Oracle::GlobalEquals {
                node: "worker".into(),
                global: "connectorsStarted".into(),
                value: Value::Int(0),
            },
        ]),
        root_site_desc: names::SITE_F19,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![DeeperCause {
            site_desc: "store.appendConfigLog",
            exc: ExceptionType::Io,
            note: "KA-15339 analog: a disk fault appending records at \
                   connector startup blocks the same herder path",
        }],
    }
}

/// f20 — KA-10048: consumer failover under MM2 leaves a data gap between
/// clusters.
pub fn f20(program: &Arc<Program>) -> FailureCase {
    let broker = program.func_named(names::BROKER_MAIN).expect("broker");
    let mm2 = program.func_named(names::MM2_MAIN).expect("mm2");
    let wl = program.func_named(names::WL_F20).expect("wl");
    FailureCase {
        id: "f20",
        ticket: "KA-10048",
        system: "Kafka",
        description: "Consumer's failover under MM2 replication configuration causes data gap between 2 clusters",
        scenario: scenario(
            program,
            "KA-10048",
            vec![
                NodeSpec::new("broker1", broker, vec![Value::Int(900)]),
                NodeSpec::new("mm2", mm2, vec![Value::Int(8)]),
                NodeSpec::new("client", wl, vec![Value::Int(12)]),
            ],
            18_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Data gap of".into()),
            Oracle::GlobalAtLeast {
                node: "mm2".into(),
                global: "gapRecords".into(),
                min: 1,
            },
        ]),
        root_site_desc: names::SITE_F20,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// All Kafka cases, sharing one build of the program.
pub fn cases() -> Vec<FailureCase> {
    let program = Arc::new(kafka::build());
    vec![f18(&program), f19(&program), f20(&program)]
}
