//! Per-case invariants for the 22 failure definitions.

use std::sync::Arc;

use anduril_core::OccurrenceBounds;
use anduril_failures::{all_cases, case_by_id, CaseError};
use anduril_ir::{Program, Value};
use anduril_logdiff::parse_log;
use anduril_sim::InjectionPlan;
use anduril_targets::{cassandra, hbase, hdfs, kafka, zookeeper};

#[test]
fn lookup_by_id_and_ticket() {
    assert!(case_by_id("f1").is_some());
    assert!(case_by_id("ZK-2247").is_some());
    assert!(
        case_by_id("hb-25905").is_some(),
        "ticket lookup is case-insensitive"
    );
    assert_eq!(
        case_by_id("F17").map(|c| c.id),
        Some("f17"),
        "id lookup is case-insensitive"
    );
    assert!(case_by_id("f23").is_none());
    assert!(case_by_id("NOPE-1").is_none());
}

/// A program's `Debug` rendering without its two name indexes, whose
/// hash order differs from one build to the next; they are derived from
/// the fields rendered here.
fn rendering(p: &Program) -> String {
    format!(
        "{:?}",
        (
            &p.name,
            &p.funcs,
            &p.blocks,
            &p.templates,
            &p.sites,
            &p.globals,
            &p.conds,
            &p.chans,
            &p.execs
        )
    )
}

/// The registry builds one program per system and every case of that
/// system holds the same `Arc`, which is what a fresh build makes.
#[test]
fn each_system_shares_one_program_across_its_cases() {
    let builds = [
        ("ZooKeeper", zookeeper::build as fn() -> Program),
        ("HDFS", hdfs::build),
        ("HBase", hbase::build),
        ("Kafka", kafka::build),
        ("Cassandra", cassandra::build),
    ];
    let cases = all_cases();
    // Paper order keeps a system's cases together.
    let mut programs: Vec<&Arc<Program>> = cases.iter().map(|c| &c.scenario.program).collect();
    programs.dedup_by(|a, b| Arc::ptr_eq(a, b));
    assert_eq!(programs.len(), 5, "one program per system");
    for (system, build) in builds {
        let mut of_system = cases.iter().filter(|c| c.system == system);
        let shared = &of_system.next().expect(system).scenario.program;
        for case in of_system {
            assert!(
                Arc::ptr_eq(shared, &case.scenario.program),
                "{}: not {system}'s shared program",
                case.id
            );
        }
        assert_eq!(rendering(shared), rendering(&build()), "{system}");
    }
}

/// `with_workload` rewrites the named nodes' arguments, and a name the
/// topology lacks is an error rather than the unscaled case.
#[test]
fn with_workload_rejects_a_node_the_topology_lacks() {
    let f17 = case_by_id("f17").expect("case");
    let scaled = f17
        .with_workload(&[("client", &[900])], Some(90_000))
        .expect("client is a node");
    let client = scaled
        .scenario
        .topology
        .nodes
        .iter()
        .find(|n| n.name == "client");
    assert_eq!(client.expect("client").args, vec![Value::Int(900)]);
    assert_eq!(scaled.scenario.config.max_time, 90_000);
    match f17.with_workload(&[("client", &[900]), ("clinet", &[1])], None) {
        Err(CaseError::NoSuchNode(name)) => assert_eq!(name, "f17: clinet"),
        other => panic!("expected NoSuchNode, got {other:?}"),
    }
}

#[test]
fn failure_logs_parse_and_differ_from_normal_runs() {
    for case in all_cases() {
        let failure_text = case.failure_log().expect("failure log renders");
        let parsed = parse_log(&failure_text);
        assert!(
            parsed.len() >= 10,
            "{}: failure log suspiciously short ({} entries)",
            case.id,
            parsed.len()
        );
        // The failure log must be discriminative: it differs from a
        // fault-free run under the same seed (the paper's assumption that
        // logging distinguishes faulty and non-faulty executions).
        let normal = case
            .scenario
            .run(case.failure_seed, InjectionPlan::none())
            .expect("normal run");
        assert_ne!(
            normal.log_text(),
            failure_text,
            "{}: failure log identical to a fault-free run",
            case.id
        );
    }
}

#[test]
fn ground_truth_occurrence_is_within_observed_instances() {
    for case in all_cases() {
        let gt = case.ground_truth().expect("resolvable");
        let normal = case
            .scenario
            .run(case.failure_seed, InjectionPlan::none())
            .expect("normal run");
        let total = normal.site_occurrences[gt.site.index()];
        assert!(
            gt.occurrence < total,
            "{}: ground-truth occurrence {} outside observed range {}",
            case.id,
            gt.occurrence,
            total
        );
    }
}

#[test]
fn injecting_at_a_wrong_site_does_not_satisfy_timing_pinned_oracles() {
    // For the timing-pinned cases, a different occurrence of the root site
    // must NOT satisfy the oracle — the timing is part of the failure.
    for id in ["f1", "f13", "f20"] {
        let case = case_by_id(id).expect("case");
        let gt = case.ground_truth().expect("gt");
        let wrong_occ = if gt.occurrence == 0 {
            1
        } else {
            gt.occurrence - 1
        };
        let r = case
            .scenario
            .run(
                case.failure_seed,
                InjectionPlan::exact(gt.site, wrong_occ, gt.exc),
            )
            .expect("run");
        assert!(
            !case.oracle.check(&r),
            "{id}: occurrence {wrong_occ} also satisfies — timing is not pinned"
        );
    }
}

#[test]
fn ground_truth_sites_survive_static_pruning() {
    // The reachability pruner and the causal graph may only remove noise:
    // for every case the known root-cause site must remain (a) statically
    // reachable, (b) a causal-graph source, (c) present among the
    // candidate units with its ground-truth exception type, and (d) alive
    // under the static occurrence bounds.
    for case in all_cases() {
        let gt = case.ground_truth().expect("resolvable");
        let failure_log = case.failure_log().expect("failure log");
        let ctx = anduril_core::SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
            .expect("context");
        assert!(
            ctx.candidate_sites.contains(&gt.site),
            "{}: root-cause site pruned as unreachable",
            case.id
        );
        assert!(
            ctx.graph.sources().contains(&gt.site),
            "{}: root-cause site not a causal-graph source",
            case.id
        );
        assert!(
            ctx.units
                .iter()
                .any(|u| u.site == gt.site && u.exc == gt.exc),
            "{}: ground-truth (site, exception) unit missing after pruning",
            case.id
        );
        // (d) The static occurrence bounds `anduril analyze` reports must
        // leave the ground truth alive: the site is not dead and the exact
        // occurrence is feasible.
        let scenario = &case.scenario;
        let bounds = OccurrenceBounds::compute(&scenario.program, &scenario.root_calls());
        let bound = bounds.site(gt.site);
        assert!(
            !bound.is_dead(),
            "{}: root-cause site statically dead ({bound})",
            case.id
        );
        assert!(
            bounds.feasible(gt.site, Some(gt.occurrence)),
            "{}: ground-truth occurrence {} infeasible under bound {bound}",
            case.id,
            gt.occurrence
        );
    }
}

#[test]
fn descriptions_match_paper_table5_tickets() {
    let expected: &[(&str, &str)] = &[
        ("f1", "ZK-2247"),
        ("f2", "ZK-3157"),
        ("f3", "ZK-4203"),
        ("f4", "ZK-3006"),
        ("f5", "HD-4233"),
        ("f6", "HD-12248"),
        ("f7", "HD-12070"),
        ("f8", "HD-13039"),
        ("f9", "HD-16332"),
        ("f10", "HD-14333"),
        ("f11", "HD-15032"),
        ("f12", "HB-18137"),
        ("f13", "HB-19608"),
        ("f14", "HB-19876"),
        ("f15", "HB-20583"),
        ("f16", "HB-16144"),
        ("f17", "HB-25905"),
        ("f18", "KA-12508"),
        ("f19", "KA-9374"),
        ("f20", "KA-10048"),
        ("f21", "C*-17663"),
        ("f22", "C*-6415"),
    ];
    let cases = all_cases();
    for (id, ticket) in expected {
        let case = cases.iter().find(|c| c.id == *id).expect("present");
        assert_eq!(&case.ticket, ticket);
    }
}

#[test]
fn injected_fault_types_match_paper_table5() {
    use anduril_ir::ExceptionType::*;
    for case in all_cases() {
        let expected = match case.id {
            "f5" => FileNotFound,
            "f6" => Interrupted,
            "f11" => Socket,
            _ => Io,
        };
        assert_eq!(case.root_exc, expected, "{}", case.id);
    }
}
