//! Inspect what ANDURIL's Instrumenter/Explorer front end derives from a
//! failure log: the relevant observables (§5.1), the causal graph sinks
//! and sources, and per-observable spatial distances (§5.2.2).
//!
//! Run with `cargo run --example inspect_observables [case-id]`.

use anduril::failures::{case_by_id, PreparedCase};
use anduril::NoopTracer;

fn main() {
    let id = std::env::args().nth(1).unwrap_or_else(|| "f17".to_string());
    let case = case_by_id(&id).expect("known case id");
    println!("{} — {}\n", case.ticket, case.description);

    let PreparedCase {
        gt,
        failure_log,
        ctx,
    } = case.prepare(1_000, &NoopTracer).expect("case prepares");
    println!(
        "failure log: {} lines (first 5 shown)",
        failure_log.lines().count()
    );
    for line in failure_log.lines().take(5) {
        println!("  | {line}");
    }

    let program = &ctx.scenario.program;

    println!("\nrelevant observables (failure-only messages):");
    for (k, obs) in ctx.observables.iter().enumerate() {
        println!(
            "  o{k}: {:60}  at failure-log positions {:?}",
            format!("{:?}", program.templates[obs.template.index()].text),
            obs.positions
        );
    }

    println!(
        "\ncausal graph: {} nodes, {} edges; {} source fault sites of {} total",
        ctx.graph.node_count(),
        ctx.graph.edge_count(),
        ctx.graph.sources().len(),
        program.sites.len()
    );

    println!("\nspatial distances L[site][observable] (rows = inferred sites):");
    print!("{:32}", "site");
    for k in 0..ctx.observables.len() {
        print!(" o{k:<3}");
    }
    println!(" instances");
    for site in ctx.graph.sources() {
        print!("{:32}", program.sites[site.index()].desc);
        for dists in &ctx.distances {
            match dists.get(&site) {
                Some(d) => print!(" {d:<4}"),
                None => print!(" -   "),
            }
        }
        println!(" {}", ctx.site_instances[site.index()].len());
    }

    println!(
        "\nground truth: {} at occurrence {} — {}",
        case.root_site_desc,
        gt.occurrence,
        if ctx.graph.sources().contains(&gt.site) {
            "INSIDE the pruned candidate set"
        } else {
            "OUTSIDE the candidate set (pruning too aggressive!)"
        }
    );
}
