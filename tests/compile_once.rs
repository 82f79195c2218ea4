//! A program is lowered to register-VM code once, and every run of it reads
//! that one copy: `Program::compiled` is a derived table of the immutable
//! program, like its block parents, not a per-search cache. So are the
//! facts the analysis derives from the program alone (`ProgramFacts`: the
//! call graph, the exception summaries, the use-def tables), which every
//! `prepare` of the program reads.
//!
//! The registry shares one program among a system's cases, so the cases of
//! one system share its code too, whichever of them ran first. That no
//! path lowers a throwaway copy besides is a count, pinned by
//! `alloc_budget`'s `tickets22` bound.

use std::sync::Arc;

use anduril::causal::{analyze, CallGraph, ProgramFacts, UseDefTables};
use anduril::failures::{all_cases, FailureCase};
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::ir::lower::compile;
use anduril::sim::InjectionPlan;
use anduril::{NoopTracer, SearchContext};

/// Two cases of one system, from the registry's shared programs.
fn two_tickets_of_one_system(cases: &[FailureCase]) -> (&FailureCase, &FailureCase) {
    cases
        .iter()
        .enumerate()
        .find_map(|(i, a)| {
            let b = cases[i + 1..]
                .iter()
                .find(|b| Arc::ptr_eq(&a.scenario.program, &b.scenario.program))?;
            Some((a, b))
        })
        .expect("a system with two tickets")
}

#[test]
fn two_tickets_of_one_system_run_over_one_compiled_program() {
    let cases = all_cases();
    let (a, b) = two_tickets_of_one_system(&cases);
    assert!(!a.scenario.program.is_compiled(), "a fresh registry");
    let first = a.prepare(1_000, &NoopTracer).expect("prepare");
    let second = b.prepare(1_000, &NoopTracer).expect("prepare");
    assert!(
        std::ptr::eq(
            first.ctx.scenario.program.compiled(),
            second.ctx.scenario.program.compiled()
        ),
        "{} and {} run over one compiled program",
        a.id,
        b.id
    );
}

#[test]
fn two_tickets_of_one_system_share_one_set_of_program_facts() {
    let cases = all_cases();
    let (a, b) = two_tickets_of_one_system(&cases);
    let first = a.prepare(1_000, &NoopTracer).expect("prepare");
    let second = b.prepare(1_000, &NoopTracer).expect("prepare");
    let facts = ProgramFacts::of(&first.ctx.scenario.program);
    assert!(
        std::ptr::eq(facts, ProgramFacts::of(&second.ctx.scenario.program)),
        "{} and {} read one set of facts",
        a.id,
        b.id
    );
    let program = &a.scenario.program;
    assert_eq!(facts.calls, CallGraph::build(program));
    assert_eq!(facts.exceptions, analyze(program));
    assert_eq!(facts.tables, UseDefTables::build(program));
}

#[test]
fn a_failure_log_then_a_prepare_compile_once() {
    let case = all_cases().swap_remove(0);
    let program = &case.scenario.program;
    assert!(!program.is_compiled());
    let failure_log = case.failure_log().expect("failure log");
    assert!(program.is_compiled(), "resolving the ground truth ran it");
    let code = program.compiled();
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    assert_eq!(prepared.failure_log, failure_log);
    assert!(std::ptr::eq(prepared.ctx.scenario.program.compiled(), code));
}

#[test]
fn a_run_over_the_programs_own_code_is_a_run_over_a_fresh_compile() {
    for case in all_cases() {
        let scenario = &case.scenario;
        let seed = case.failure_seed;
        let own = scenario.run(seed, InjectionPlan::none()).expect("run");
        let fresh = compile(&scenario.program);
        let over_fresh = (scenario.run_compiled(&fresh, seed, InjectionPlan::none()))
            .expect("run over a fresh compile");
        assert!(own.same_run(&over_fresh), "{}", case.id);
    }
}

/// A generated case is there to be run, so planting runs over the
/// program's own compiled form and the case comes back lowered:
/// `prepare`'s `sim.compile` phase reads that form instead of lowering a
/// second one.
#[test]
fn a_generated_case_comes_back_lowered_and_prepare_reads_that_form() {
    let cfg = GenConfig {
        seed: 0xA11D,
        size: SizeClass::Small,
        multi_fault: false,
    };
    let gc = generate_one(&cfg, 0).expect("generated case");
    let program = &gc.case.scenario.program;
    assert!(program.is_compiled(), "planting ran the program's own form");
    let code = program.compiled();
    let ctx =
        SearchContext::prepare(gc.case.scenario.clone(), &gc.failure_log, 1_000).expect("prepare");
    assert!(std::ptr::eq(ctx.scenario.program.compiled(), code));
}
