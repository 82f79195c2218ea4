//! The two Cassandra failures (f21–f22).

use std::sync::Arc;

use anduril_core::{Oracle, Scenario};
use anduril_ir::{ExceptionType, Program, Value};
use anduril_sim::{NodeSpec, SimConfig, Topology};
use anduril_targets::cassandra::{self, names};

use crate::case::{DeeperCause, FailureCase};

fn scenario(program: &Arc<Program>, name: &str, wl: &str, arg: i64, max_time: u64) -> Scenario {
    let main = program.func_named(names::CASS_MAIN).expect("cass main");
    let nodes = vec![
        NodeSpec::new("c1", main, vec![Value::Bool(true), Value::Int(1_200)]),
        NodeSpec::new("c2", main, vec![Value::Bool(false), Value::Int(1_200)]),
        NodeSpec::new("c3", main, vec![Value::Bool(false), Value::Int(1_200)]),
        NodeSpec::new(
            "client",
            program.func_named(wl).expect("workload"),
            vec![Value::Int(arg)],
        ),
    ];
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

/// f21 — C*-17663: an interrupted FileStreamTask compromises the shared
/// channel proxy.
pub fn f21(program: &Arc<Program>) -> FailureCase {
    FailureCase {
        id: "f21",
        ticket: "C*-17663",
        system: "Cassandra",
        description: "Interrupted FileStreamTask compromise shared channel proxy",
        scenario: scenario(program, "C*-17663", names::WL_F21, 5, 18_000),
        oracle: Oracle::And(vec![
            Oracle::LogContains("FileStreamTask aborted".into()),
            Oracle::LogContains("Invalid frame received on shared channel proxy".into()),
            Oracle::GlobalEquals {
                node: "c1".into(),
                global: "channelProxyCorrupt".into(),
                value: Value::Bool(true),
            },
        ]),
        root_site_desc: names::SITE_F21,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f22 — C*-6415: snapshot repair blocks forever when a makeSnapshot
/// response never arrives.
pub fn f22(program: &Arc<Program>) -> FailureCase {
    FailureCase {
        id: "f22",
        ticket: "C*-6415",
        system: "Cassandra",
        description: "Snapshot repair blocks forever if get no response of makeSnapshot",
        scenario: scenario(program, "C*-6415", names::WL_F22, 0, 18_000),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Starting repair session".into()),
            Oracle::LogAbsent("Repair session completed".into()),
            Oracle::ThreadBlockedIn {
                thread: "RepairJob".into(),
                func: "awaitSnapshots".into(),
            },
        ]),
        root_site_desc: names::SITE_F22,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![DeeperCause {
            site_desc: names::SITE_F22_DEEPER,
            exc: ExceptionType::Io,
            note: "CA-18748 analog: a disk fault creating the column family \
                   at startup makes the replica drop the repair message — \
                   the same blocked-repair symptom, deeper in the chain",
        }],
    }
}

/// All Cassandra cases, sharing one build of the program.
pub fn cases() -> Vec<FailureCase> {
    let program = Arc::new(cassandra::build());
    vec![f21(&program), f22(&program)]
}
