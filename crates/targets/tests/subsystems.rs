//! Behavioural tests for the subsystems added beyond each target's failure
//! paths: request pipelines, chores, coordinators, and read paths.

use anduril_ir::Value;
use anduril_sim::{run, InjectionPlan, NodeSpec, SimConfig, Topology};
use anduril_targets::{cassandra, hbase, hdfs, kafka, zookeeper};

fn cfg(max_time: u64) -> SimConfig {
    SimConfig {
        max_time,
        ..SimConfig::default()
    }
}

#[test]
fn zookeeper_pipeline_tracks_zxid_and_proposals() {
    let p = zookeeper::build();
    let server = p.func_named(zookeeper::names::SERVER_MAIN).unwrap();
    let topo = Topology::new(vec![
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
        NodeSpec::new(
            "client",
            p.func_named(zookeeper::names::WL_F1).unwrap(),
            vec![Value::Int(12)],
        ),
    ]);
    let r = run(&p, &topo, &cfg(20_000), InjectionPlan::none()).unwrap();
    // Every committed write went through prep (zxid) and final
    // (outstanding back to zero).
    assert_eq!(r.global("zk1", "lastZxid"), Some(&Value::Int(12)));
    assert_eq!(
        r.global("zk1", "outstandingProposals"),
        Some(&Value::Int(0))
    );
    assert_eq!(r.global("zk1", "txnCount"), Some(&Value::Int(12)));
    // The monitoring pings were answered.
    assert!(r.has_log("Ensemble health check ok"), "{}", r.log_text());
    // The snapshot chore ran on every server.
    assert!(r.count_log("Snapshot written up to zxid") >= 3);
}

#[test]
fn hdfs_replication_monitor_rereplicates_lost_blocks() {
    let p = hdfs::build();
    let topo = Topology::new(vec![
        NodeSpec::new(
            "nn",
            p.func_named(hdfs::names::NN_MAIN).unwrap(),
            vec![Value::Int(0), Value::Int(1_500)],
        ),
        NodeSpec::new(
            "dn1",
            p.func_named(hdfs::names::DN_MAIN).unwrap(),
            vec![Value::Int(900)],
        ),
        NodeSpec::new(
            "dn2",
            p.func_named(hdfs::names::DN_MAIN).unwrap(),
            vec![Value::Int(900)],
        ),
        NodeSpec::new(
            "client",
            p.func_named(hdfs::names::WL_F8).unwrap(),
            vec![Value::Int(6)],
        ),
    ]);
    // Scan seeds until the seed-dependent replica-loss process fires.
    let mut saw_rereplication = false;
    for seed in 0..8 {
        let c = SimConfig {
            seed,
            max_time: 25_000,
            ..SimConfig::default()
        };
        let r = run(&p, &topo, &c, InjectionPlan::none()).unwrap();
        if r.has_log("Re-replicated one under-replicated block") {
            saw_rereplication = true;
            break;
        }
    }
    assert!(saw_rereplication, "monitor never re-replicated in 8 seeds");
}

#[test]
fn hbase_master_assigns_regions_at_registration() {
    let p = hbase::build();
    let topo = Topology::new(vec![
        NodeSpec::new(
            "master",
            p.func_named(hbase::names::MASTER_MAIN).unwrap(),
            vec![Value::Int(1_500)],
        ),
        NodeSpec::new(
            "rs1",
            p.func_named(hbase::names::RS_MAIN).unwrap(),
            vec![Value::Int(0), Value::Int(0), Value::Int(900)],
        ),
        NodeSpec::new(
            "client",
            p.func_named(hbase::names::WL_F13).unwrap(),
            vec![Value::Int(2)],
        ),
    ]);
    let r = run(&p, &topo, &cfg(20_000), InjectionPlan::none()).unwrap();
    assert!(r.has_log("registered with master"));
    assert!(r.has_log("Assigned 3 regions to rs1"));
    assert_eq!(r.global("rs1", "regionsOnline"), Some(&Value::Int(3)));
    assert_eq!(r.count_log("opened"), 3);
}

#[test]
fn kafka_group_coordinator_serves_join_and_heartbeats() {
    let p = kafka::build();
    let topo = Topology::new(vec![
        NodeSpec::new(
            "broker1",
            p.func_named(kafka::names::BROKER_MAIN).unwrap(),
            vec![Value::Int(900)],
        ),
        NodeSpec::new(
            "mm2",
            p.func_named(kafka::names::MM2_MAIN).unwrap(),
            vec![Value::Int(8)],
        ),
        NodeSpec::new(
            "client",
            p.func_named(kafka::names::WL_F20).unwrap(),
            vec![Value::Int(12)],
        ),
    ]);
    let r = run(&p, &topo, &cfg(20_000), InjectionPlan::none()).unwrap();
    assert!(r.has_log("joined group (generation 1)"), "{}", r.log_text());
    assert_eq!(r.global("broker1", "groupMembers"), Some(&Value::Int(1)));
    assert_eq!(
        r.global("broker1", "groupLeader"),
        Some(&Value::str("client"))
    );
    assert!(!r.has_log("Group heartbeat timed out"));
}

#[test]
fn cassandra_read_path_runs_and_repairs() {
    let p = cassandra::build();
    let main = p.func_named(cassandra::names::CASS_MAIN).unwrap();
    let topo = Topology::new(vec![
        NodeSpec::new("c1", main, vec![Value::Bool(true), Value::Int(1_200)]),
        NodeSpec::new("c2", main, vec![Value::Bool(false), Value::Int(1_200)]),
        NodeSpec::new("c3", main, vec![Value::Bool(false), Value::Int(1_200)]),
        NodeSpec::new(
            "client",
            p.func_named(cassandra::names::WL_F21).unwrap(),
            vec![Value::Int(6)],
        ),
    ]);
    // Reads run in every seed; digest-mismatch repair fires in some.
    let mut saw_repair = false;
    for seed in 0..8 {
        let c = SimConfig {
            seed,
            max_time: 20_000,
            ..SimConfig::default()
        };
        let r = run(&p, &topo, &c, InjectionPlan::none()).unwrap();
        assert_eq!(r.global("c1", "filesStreamed"), Some(&Value::Int(6)));
        if r.has_log("running read repair") {
            saw_repair = true;
        }
    }
    assert!(saw_repair, "no digest mismatch in 8 seeds");
}

#[test]
fn every_target_has_meta_info_globals_for_crashtuner() {
    for (name, program) in [
        ("zookeeper", zookeeper::build()),
        ("hdfs", hdfs::build()),
        ("hbase", hbase::build()),
        ("kafka", kafka::build()),
        ("cassandra", cassandra::build()),
    ] {
        let metas = program.globals.iter().filter(|g| g.meta_info).count();
        assert!(metas >= 1, "{name} has no meta-info globals");
        let points = anduril_ir::lower::meta_access_points(&program);
        assert!(!points.is_empty(), "{name} has no meta access points");
    }
}

#[test]
fn every_target_program_is_structurally_sound() {
    for program in [
        zookeeper::build(),
        hdfs::build(),
        hbase::build(),
        kafka::build(),
        cassandra::build(),
    ] {
        // Unique site descriptions (the failures crate looks sites up by
        // description).
        let mut descs: Vec<&str> = program.sites.iter().map(|s| s.desc.as_str()).collect();
        let before = descs.len();
        descs.sort_unstable();
        descs.dedup();
        assert_eq!(
            descs.len(),
            before,
            "{}: duplicate site descs",
            program.name
        );
        // Every site's statement resolves back to the site.
        for site in &program.sites {
            assert_eq!(program.stmt(site.stmt).site(), Some(site.id));
            assert_eq!(program.func_of_stmt(site.stmt), site.func);
        }
        // Reasonable size.
        assert!(program.stmt_count() > 80, "{}", program.name);
    }
}
