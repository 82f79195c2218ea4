//! The four ZooKeeper failures (f1–f4).

use std::sync::Arc;

use anduril_core::{Oracle, Scenario};
use anduril_ir::{ExceptionType, Program, Value};
use anduril_sim::{NodeSpec, SimConfig, Topology};
use anduril_targets::zookeeper::{self, names};

use crate::case::{DeeperCause, FailureCase};

fn scenario(
    program: &Arc<Program>,
    name: &str,
    wl: Option<(&str, i64)>,
    max_time: u64,
) -> Scenario {
    let server = program.func_named(names::SERVER_MAIN).expect("server main");
    let mut nodes = vec![
        NodeSpec::new(
            "zk1",
            server,
            vec![Value::Bool(true), Value::Int(0), Value::Int(1_200)],
        ),
        NodeSpec::new(
            "zk2",
            server,
            vec![Value::Bool(false), Value::Int(100), Value::Int(600)],
        ),
        NodeSpec::new(
            "zk3",
            server,
            vec![Value::Bool(false), Value::Int(700), Value::Int(600)],
        ),
    ];
    if let Some((wl, arg)) = wl {
        nodes.push(NodeSpec::new(
            "client",
            program.func_named(wl).expect("workload"),
            vec![Value::Int(arg)],
        ));
    }
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

/// f1 — ZK-2247: server unavailable when the leader fails to write its
/// transaction log.
pub fn f1(program: &Arc<Program>) -> FailureCase {
    FailureCase {
        id: "f1",
        ticket: "ZK-2247",
        system: "ZooKeeper",
        description: "Server unavailable when leader fails to write transaction log",
        scenario: scenario(program, "ZK-2247", Some((names::WL_F1, 12)), 18_000),
        oracle: Oracle::And(vec![
            Oracle::NodeAborted("zk1".into()),
            Oracle::LogContains("unable to write transaction log".into()),
            Oracle::LogContains("Giving up on server connection".into()),
            // Timing pin: three transactions committed before the fault.
            Oracle::GlobalEquals {
                node: "zk1".into(),
                global: "txnCount".into(),
                value: Value::Int(3),
            },
        ]),
        root_site_desc: names::SITE_F1,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f2 — ZK-3157: a connection loss makes the client fail.
pub fn f2(program: &Arc<Program>) -> FailureCase {
    FailureCase {
        id: "f2",
        ticket: "ZK-3157",
        system: "ZooKeeper",
        description: "Connection loss causes the client to fail",
        scenario: scenario(program, "ZK-3157", Some((names::WL_F2, 12)), 18_000),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Uncaught exception IllegalStateException".into()),
            Oracle::LogContains("closing session".into()),
            Oracle::ThreadDied("main".into()),
        ]),
        root_site_desc: names::SITE_F2,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f3 — ZK-4203: the leader election listener exits forever on a socket
/// error.
pub fn f3(program: &Arc<Program>) -> FailureCase {
    FailureCase {
        id: "f3",
        ticket: "ZK-4203",
        system: "ZooKeeper",
        description: "The leader election is stuck forever due to connection error",
        scenario: scenario(program, "ZK-4203", None, 18_000),
        oracle: Oracle::And(vec![
            Oracle::LogContains("shutting down listener thread".into()),
            Oracle::LogContains("no response from leader".into()),
        ]),
        root_site_desc: names::SITE_F3,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f4 — ZK-3006: invalid disk content leads to an NPE; the deeper-cause
/// variant (ZK-4737 analog) shows the snapshot-header read can produce the
/// same symptom as the developer-blamed network sync.
pub fn f4(program: &Arc<Program>) -> FailureCase {
    FailureCase {
        id: "f4",
        ticket: "ZK-3006",
        system: "ZooKeeper",
        description: "Invalid disk file content causes null pointer exception",
        scenario: scenario(program, "ZK-3006", Some((names::WL_F4, 8)), 18_000),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Uncaught exception RuntimeException".into()),
            Oracle::LogContains("Giving up on server connection".into()),
        ]),
        root_site_desc: names::SITE_F4,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![DeeperCause {
            site_desc: names::SITE_F4_DEEPER,
            exc: ExceptionType::Io,
            note: "ZK-4737 analog: a disk fault reading the snapshot header \
                   (not the blamed network sync) leaves the database \
                   uninitialized and produces the same NPE symptom",
        }],
    }
}

/// All ZooKeeper cases, sharing one build of the program.
pub fn cases() -> Vec<FailureCase> {
    let program = Arc::new(zookeeper::build());
    vec![f1(&program), f2(&program), f3(&program), f4(&program)]
}
