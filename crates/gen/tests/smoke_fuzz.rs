//! 500-seed smoke fuzz over the scenario generator.
//!
//! For every seed the generated program must (1) pass `finish_linted`
//! with no errors and no advisory warnings, (2) simulate to completion
//! under both the register VM and the tree-walk oracle with
//! byte-identical results — fault-free AND under the planted plan — (3)
//! keep its planted ground truth feasible under the search context's
//! reachability pruning, and (4) under the abstract occurrence bounds
//! `anduril analyze` reports.
//!
//! Named with a `smoke_fuzz_` prefix so CI can verify the suite was not
//! silently filtered out.

use anduril_core::OccurrenceBounds;
use anduril_gen::{generate_one, verify_sound, GenConfig, SizeClass};
use anduril_sim::{run, Engine, InjectionPlan, RunResult, SimConfig};

const SEEDS: usize = 500;
/// Every 5th case plants a two-fault cascade.
const MULTI_EVERY: usize = 5;

/// Asserts every deterministic field of two run results is identical.
/// (`wall` and `decision_ns` are host-time metrics and excluded.)
fn assert_identical(tag: &str, vm: &RunResult, ast: &RunResult) {
    assert_eq!(vm.log, ast.log, "{tag}: log streams differ");
    assert_eq!(vm.trace, ast.trace, "{tag}: fault-site traces differ");
    assert_eq!(vm.injected, ast.injected, "{tag}: injected records differ");
    assert_eq!(
        vm.injected_all, ast.injected_all,
        "{tag}: injection histories differ"
    );
    assert_eq!(vm.crashed, ast.crashed, "{tag}: crash flags differ");
    assert_eq!(
        vm.site_occurrences, ast.site_occurrences,
        "{tag}: occurrence counters differ"
    );
    assert_eq!(vm.threads, ast.threads, "{tag}: thread snapshots differ");
    assert_eq!(vm.nodes, ast.nodes, "{tag}: node snapshots differ");
    assert_eq!(vm.end_time, ast.end_time, "{tag}: end times differ");
    assert_eq!(vm.steps, ast.steps, "{tag}: step counts differ");
    assert_eq!(
        vm.injection_requests, ast.injection_requests,
        "{tag}: injection request counts differ"
    );
}

fn run_both(tag: &str, gc: &anduril_gen::GeneratedCase, plan: InjectionPlan) {
    let scenario = &gc.case.scenario;
    let vm_cfg = SimConfig {
        engine: Engine::Vm,
        ..scenario.config.with_seed(gc.case.failure_seed)
    };
    let ast_cfg = SimConfig {
        engine: Engine::TreeWalk,
        ..vm_cfg.clone()
    };
    let vm = run(&scenario.program, &scenario.topology, &vm_cfg, plan.clone())
        .unwrap_or_else(|e| panic!("{tag}: vm run failed: {e:?}"));
    let ast = run(&scenario.program, &scenario.topology, &ast_cfg, plan)
        .unwrap_or_else(|e| panic!("{tag}: tree-walk run failed: {e:?}"));
    assert_identical(tag, &vm, &ast);
}

#[test]
fn smoke_fuzz_500_seeds_lint_clean_engine_identical_and_sound() {
    let mut multi_cases = 0usize;
    let mut nonzero_occurrence_plants = 0usize;
    for i in 0..SEEDS {
        let cfg = GenConfig {
            seed: 0xF00D,
            size: SizeClass::Small,
            multi_fault: i % MULTI_EVERY == MULTI_EVERY - 1,
        };
        let gc =
            generate_one(&cfg, i).unwrap_or_else(|e| panic!("case {i}: generation failed: {e}"));

        // (1) Lint-clean: `generate_one` already rejects IR errors; the
        // grammar's pairing discipline must also leave zero advisories.
        assert_eq!(gc.warnings, 0, "case {i}: advisory lint warnings");

        // (2) Engine-differential, fault-free and planted.
        run_both(&format!("case {i} fault-free"), &gc, InjectionPlan::none());
        run_both(&format!("case {i} planted"), &gc, gc.plan());

        // (3) Ground truth survives pruning and replays to the oracle.
        verify_sound(&gc).unwrap_or_else(|e| panic!("case {i}: unsound: {e}"));

        // (4) The static bounds never prove a planted fault infeasible.
        let scenario = &gc.case.scenario;
        let bounds = OccurrenceBounds::compute(&scenario.program, &scenario.root_calls());
        for f in &gc.plant {
            assert!(
                bounds.feasible(f.site, Some(f.occurrence)),
                "case {i}: occurrence bounds prune planted ({:?}, {})",
                f.site,
                f.occurrence
            );
        }

        multi_cases += usize::from(gc.is_multi_fault());
        nonzero_occurrence_plants += usize::from(gc.plant.iter().any(|f| f.occurrence > 0));
    }
    assert_eq!(multi_cases, SEEDS / MULTI_EVERY, "multi-fault mix drifted");
    // The phase gate must actually matter on a healthy fraction of
    // cases: if every plant landed on occurrence 0 the occurrence search
    // dimension would be untested.
    assert!(
        nonzero_occurrence_plants > SEEDS / 10,
        "only {nonzero_occurrence_plants}/{SEEDS} plants at occurrence > 0"
    );
}
