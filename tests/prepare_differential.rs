//! What `SearchContext::prepare` shares or skips, against doing it the
//! long way — on the 22 tickets and `e2e --smoke`'s generated corpus.
//!
//! - **One alignment lookup per distinct log position.** Every instance
//!   of `site_instances` carries, bit for bit, what `Alignment::map`
//!   returns for that trace entry on its own.
//! - **One call graph, lent three times.** The graph, the reachable sites,
//!   the occurrence bounds and the exception summaries built over the
//!   context's shared `CallGraph` equal what the stand-alone entry points
//!   build over call graphs of their own.
//! - **One set of buffers for all distance tables.** `distances_all` equals
//!   `distances(k)` table by table.
//!
//! (`tests/static_golden.rs` pins the same outputs against the values they
//! had before any of this; here each is compared with its reference
//! directly, so a future corpus needs no regenerated table.)

use anduril::causal::{
    analyze, analyze_over, build_graph, CallGraph, Observable, OccurrenceBounds, Reachability,
};
use anduril::failures::all_cases;
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::logdiff::Alignment;
use anduril::{Scenario, SearchContext};

fn check(name: &str, scenario: &Scenario, failure_log: &str) -> usize {
    let ctx = SearchContext::prepare(scenario.clone(), failure_log, 1_000).expect("context");
    let program = &scenario.program;

    // Alignment: entry by entry, in the order the trace files them.
    let diff = ctx.failure_interned.compare(&ctx.normal.log);
    let alignment = Alignment::build(&diff.matches, ctx.normal.log.len(), ctx.failure.len());
    let mut next = vec![0usize; program.sites.len()];
    for t in &ctx.normal.trace {
        let (occurrence, mapped) = ctx.site_instances[t.site.index()][next[t.site.index()]];
        next[t.site.index()] += 1;
        assert_eq!(occurrence, t.occurrence, "{name}: {t:?}");
        assert_eq!(
            mapped.to_bits(),
            alignment.map(t.log_pos as f64).to_bits(),
            "{name}: {t:?}"
        );
    }
    for (site, instances) in ctx.site_instances.iter().enumerate() {
        assert_eq!(instances.len(), next[site], "{name}: site {site}");
    }

    // The three passes over call graphs of their own.
    let roots = scenario.roots();
    let observables: Vec<Observable> = (ctx.observables.iter())
        .map(|o| Observable {
            template: o.template,
        })
        .collect();
    let (graph, _) = build_graph(program, &observables, &roots);
    assert_eq!(graph.nodes, ctx.graph.nodes, "{name}: nodes");
    assert_eq!(graph.sinks, ctx.graph.sinks, "{name}: sinks");
    assert_eq!(graph.sources(), ctx.graph.sources(), "{name}: sources");
    for n in 0..graph.node_count() as u32 {
        assert_eq!(
            graph.priors(n),
            ctx.graph.priors(n),
            "{name}: priors of {n}"
        );
    }
    let reach = Reachability::compute(program, &roots);
    assert_eq!(
        reach.reachable_sites(program),
        ctx.candidate_sites,
        "{name}"
    );
    let bounds = OccurrenceBounds::compute(program, &scenario.root_calls());
    assert_eq!(bounds.sites(), ctx.bounds.sites(), "{name}: site bounds");
    for f in 0..program.funcs.len() as u32 {
        let f = anduril::ir::FuncId(f);
        assert_eq!(
            bounds.func_invocations(f),
            ctx.bounds.func_invocations(f),
            "{name}: {f}"
        );
    }
    let (own, lent) = (
        analyze(program),
        analyze_over(program, &CallGraph::build(program)),
    );
    assert_eq!(own.escapes, lent.escapes, "{name}: escape sets");
    assert_eq!(
        own.escape_points, lent.escape_points,
        "{name}: escape points"
    );

    // Distance tables.
    assert_eq!(ctx.distances, ctx.graph.distances_all(), "{name}");
    for (k, table) in ctx.distances.iter().enumerate() {
        assert_eq!(*table, ctx.graph.distances(k), "{name}: observable {k}");
    }
    ctx.normal.trace.len()
}

#[test]
fn every_ticket_prepares_as_the_long_way_does() {
    let mut instances = 0;
    for case in all_cases() {
        let failure_log = case.failure_log().expect("failure log");
        instances += check(case.id, &case.scenario, &failure_log);
    }
    assert!(instances > 1_000, "{instances} fault instances checked");
}

#[test]
fn every_generated_program_prepares_as_the_long_way_does() {
    let mut instances = 0;
    for (size, count) in [
        (SizeClass::Small, 6),
        (SizeClass::Medium, 3),
        (SizeClass::Large, 1),
    ] {
        let cfg = GenConfig {
            seed: 0xA11D,
            size,
            multi_fault: false,
        };
        for index in 0..count {
            let gc = generate_one(&cfg, index).expect("generated case");
            let name = format!("{size}-{index:02}");
            instances += check(&name, &gc.case.scenario, &gc.failure_log);
        }
    }
    assert!(instances > 1_000, "{instances} fault instances checked");
}
