//! Every table and figure of the paper's evaluation, one artifact per
//! function, over tickets prepared once per process.
//!
//! `cargo run --release -p anduril-bench --bin paper -- <artifact> [args]`
//! prints one artifact, `paper list` names them, and `paper all` writes
//! each to `results/<artifact>.txt`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use anduril_baselines::{by_name, table2_strategies};
use anduril_bench::{
    cell, median, phase_ns, run_strategy, timer_floor_note, Cases, TextTable, Ticket,
};
use anduril_core::trace::NoopTracer;
use anduril_core::{explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Reproduction};
use anduril_failures::CaseError;
use anduril_sim::InjectionPlan;

/// An artifact: renders what `paper <name> [args]` prints.
type Artifact = fn(&Cases, &[String]) -> String;

/// `(name, what it shows, renderer)`, in the order `paper all` runs them.
#[rustfmt::skip] // a table: one row a line
const ARTIFACTS: [(&str, &str, Artifact); 12] = [
    ("table1", "target-system sizes and fault-site counts", table1),
    ("table2", "rounds per failure and strategy [round cap, default 300]", table2),
    ("table3", "sensitivity to window size k and adjustment s", table3),
    ("table4", "per-system Explorer performance", table4),
    ("table5", "the failures and the stacktrace-injector's results", table5),
    ("table6", "deeper root causes behind the same oracle", table6),
    ("table7", "static-analysis time breakdown", table7),
    ("table8", "per-failure Explorer runtime details", table8),
    ("figure6", "rank of the root-cause site per trial (f17, f16)", figure6),
    ("ablations", "extended ablations of DESIGN.md section 6", ablations),
    ("workloads", "the same failure under different workloads", workloads),
    ("seed_sweep", "rounds under different Explorer base seeds", seed_sweep),
];

/// A title line, a blank line, the table, a blank line.
fn titled(title: &str, t: &TextTable) -> String {
    format!("{title}\n\n{}\n", t.render())
}

/// `HB-25905 (f17)`.
fn label(t: Ticket<'_>) -> String {
    format!("{} ({})", t.case.ticket, t.case.id)
}

fn full_feedback(t: Ticket<'_>, max_rounds: usize) -> Reproduction {
    run_strategy(
        t,
        &mut FeedbackStrategy::new(FeedbackConfig::full()),
        max_rounds,
    )
}

/// Rounds to reproduce, `-` when not reproduced.
fn rounds(r: &Reproduction) -> String {
    if r.success {
        r.rounds.to_string()
    } else {
        "-".into()
    }
}

/// Table 1: target-system sizes and fault-site counts.
///
/// LOC is the IR statement count of the target program (the analog of the
/// paper's source LOC); *Total* is every static fault site; *Reachable* is
/// the sites whose containing function the workload roots can reach
/// (static call-graph pruning); *Inferred* is the causal graph's source
/// set (mean over the system's failures); *Dynamic* is the mean number of
/// traced fault-site instances in one fault-free workload run.
fn table1(cases: &Cases, _: &[String]) -> String {
    let mut per_system: BTreeMap<&str, Vec<[usize; 5]>> = BTreeMap::new();
    for t in cases.tickets() {
        let ctx = &t.prepared.ctx;
        let program = &ctx.scenario.program;
        per_system.entry(t.case.system).or_default().push([
            program.stmt_count(),
            program.sites.len(),
            ctx.candidate_sites.len(),
            ctx.graph.sources().len(),
            ctx.normal.trace.len(),
        ]);
    }
    let mut t = TextTable::new(&[
        "System",
        "LOC (IR stmts)",
        "Total",
        "Reachable",
        "Inferred",
        "Dynamic",
    ]);
    for (system, rows) in per_system {
        let mut row = vec![system.to_string()];
        row.extend(
            (0..5).map(|c| (rows.iter().map(|r| r[c]).sum::<usize>() / rows.len()).to_string()),
        );
        t.row(row);
    }
    titled(
        "Table 1: target systems and fault sites (means over each system's failures)",
        &t,
    )
}

/// Table 2: reproduction efficacy of ANDURIL, its ablation variants, and
/// the external comparators on all 22 failures.
///
/// Cells are `rounds / simulated kiloticks / host ms`, or `-` when the
/// failure was not reproduced within the round cap (the first argument).
fn table2(cases: &Cases, args: &[String]) -> String {
    let cap: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(300);
    let mut header = vec!["Failure"];
    header.extend(table2_strategies().iter().map(|(_, column, _)| *column));
    let mut t = TextTable::new(&header);
    for ticket in cases.tickets() {
        let mut row = vec![label(ticket)];
        for (_, _, make) in table2_strategies() {
            row.push(cell(&run_strategy(ticket, make().as_mut(), cap)));
        }
        t.row(row);
    }
    titled(
        &format!(
            "Table 2: rounds / sim-kiloticks / wall-ms per failure and strategy (cap {cap} rounds)"
        ),
        &t,
    )
}

/// Table 3: sensitivity of the initial window size `k` and the observable
/// priority adjustment `s`.
fn table3(cases: &Cases, _: &[String]) -> String {
    let mut header = vec!["Param"];
    header.extend(cases.definitions().iter().map(|c| c.id));
    let mut t = TextTable::new(&header);
    let settings = [1usize, 3, 10]
        .map(|k| (format!("k={k} (s=+1)"), k, 1.0))
        .into_iter()
        .chain([1.0f64, 2.0, 10.0].map(|s| (format!("s=+{s} (k=10)"), 10, s)));
    for (name, k, s) in settings {
        let mut row = vec![name];
        for ticket in cases.tickets() {
            let mut strategy = FeedbackStrategy::new(FeedbackConfig::full_with(k, s));
            row.push(rounds(&run_strategy(ticket, &mut strategy, 400)));
        }
        t.row(row);
    }
    titled(
        "Table 3: rounds to reproduce under different k and s settings",
        &t,
    )
}

/// What Tables 4 and 8 show of one full-feedback search: decision latency
/// per armed request (a request that meets no armed candidate decides
/// nothing and is not timed), median round initialization time, median
/// workload time, in host nanoseconds.
fn explorer_costs(r: &Reproduction) -> [u64; 3] {
    let mut inits: Vec<u64> = r.per_round.iter().map(|x| x.init_ns).collect();
    let mut works: Vec<u64> = r.per_round.iter().map(|x| x.workload_ns).collect();
    [
        r.decision_ns.checked_div(r.armed_requests).unwrap_or(0),
        median(&mut inits),
        median(&mut works),
    ]
}

/// The three cells of [`explorer_costs`].
fn cost_cells([latency, init, work]: [u64; 3]) -> [String; 3] {
    [
        format!("{latency} ns"),
        format!("{:.2} ms", init as f64 / 1e6),
        format!("{:.2} ms", work as f64 / 1e6),
    ]
}

/// Table 4: per-system Explorer performance — median injection requests
/// per run, how many of them met an armed candidate, and the medians of
/// [`explorer_costs`] over each system's failures.
fn table4(cases: &Cases, _: &[String]) -> String {
    let mut per_system: BTreeMap<&str, [Vec<u64>; 5]> = BTreeMap::new();
    for ticket in cases.tickets() {
        let r = full_feedback(ticket, 400);
        let per_run = r.per_round.len().max(1) as u64;
        let [latency, init, work] = explorer_costs(&r);
        let stats = [
            r.injection_requests / per_run,
            r.armed_requests / per_run,
            latency,
            init,
            work,
        ];
        let columns = per_system.entry(ticket.case.system).or_default();
        for (column, stat) in columns.iter_mut().zip(stats) {
            column.push(stat);
        }
    }
    let mut t = TextTable::new(&[
        "System",
        "Inject. req./run",
        "Armed req./run",
        "Decision latency/armed req.",
        "Round init",
        "Workload",
    ]);
    for (system, mut columns) in per_system {
        let [reqs, armed, latency, init, work] = columns.each_mut().map(|c| median(c));
        let mut row = vec![system.to_string(), reqs.to_string(), armed.to_string()];
        row.extend(cost_cells([latency, init, work]));
        t.row(row);
    }
    titled(
        "Table 4: Explorer performance (medians over each system's failures)",
        &t,
    ) + &timer_floor_note()
        + "\n"
}

/// Table 5: the 22 failures, injected fault types, and the
/// stacktrace-injector's per-case results.
fn table5(cases: &Cases, _: &[String]) -> String {
    let mut t = TextTable::new(&[
        "Id",
        "Ticket",
        "Injected Fault",
        "ST-inj Rnd",
        "ST-inj time",
        "Description",
    ]);
    for ticket in cases.tickets() {
        let mut st = by_name("stacktrace").expect("registered");
        let r = run_strategy(ticket, st.as_mut(), 300);
        let time = if r.success {
            format!("{}ms", r.wall.as_millis())
        } else {
            "-".into()
        };
        t.row(vec![
            ticket.case.id.to_string(),
            ticket.case.ticket.to_string(),
            ticket.prepared.gt.exc.name().to_string(),
            rounds(&r),
            time,
            ticket.case.description.chars().take(60).collect(),
        ]);
    }
    titled(
        "Table 5: failures, injected fault types, stacktrace-injector results",
        &t,
    )
}

/// Table 6: deeper root causes discovered behind the same oracle.
///
/// For each case with a registered deeper cause, the harness verifies that
/// injecting at the deeper site also satisfies the oracle, mirroring the
/// paper's finding that ANDURIL's reproduction can surface a root cause
/// the developers' diagnosis (and patch) missed.
fn table6(cases: &Cases, _: &[String]) -> String {
    let mut t = TextTable::new(&[
        "Id",
        "Ticket",
        "Old root cause (developer)",
        "New root cause (deeper)",
        "Also satisfies oracle",
        "Analog",
    ]);
    for case in cases.definitions() {
        for deeper in &case.deeper_causes {
            let sites = &case.scenario.program.sites;
            let site = sites
                .iter()
                .find(|s| s.desc == deeper.site_desc)
                .expect("deeper site exists")
                .id;
            let run = |plan| case.scenario.run(case.failure_seed, plan).expect("run");
            let total = run(InjectionPlan::none()).site_occurrences[site.index()].max(1);
            let satisfied = (0..total).any(|occ| {
                let r = run(InjectionPlan::exact(site, occ, deeper.exc));
                r.injected.is_some() && case.oracle.check(&r)
            });
            t.row(vec![
                case.id.to_string(),
                case.ticket.to_string(),
                case.root_site_desc.to_string(),
                deeper.site_desc.to_string(),
                if satisfied { "yes" } else { "NO" }.to_string(),
                deeper.note.split(':').next().unwrap_or("").to_string(),
            ]);
        }
    }
    titled(
        "Table 6: deeper root causes that satisfy the same failure oracle",
        &t,
    )
}

/// Table 7: static-analysis time breakdown per failure.
///
/// Timings are the `graph.*` context phases of each preparation's trace
/// (see `anduril-core::trace`) rather than `ctx.timings`, so the table
/// exercises the same spans `anduril trace --summary` reports. The
/// exception analysis (with the call graph it walks) is a fact of the
/// program, paid once per system when the program's facts are derived:
/// its column is that one cost, repeated on each of the system's rows.
/// Slicing, chaining and the total are what each failure's own graph
/// build took, so after a system's first row the total no longer holds
/// the exception analysis.
fn table7(cases: &Cases, _: &[String]) -> String {
    let mut t = TextTable::new(&[
        "Failure",
        "LOC (IR stmts)",
        "Exception",
        "Slicing",
        "Chaining",
        "Total",
    ]);
    for ticket in cases.tickets() {
        let us = |name| format!("{:.1} us", phase_ns(ticket.prep_trace, name) as f64 / 1e3);
        t.row(vec![
            label(ticket),
            ticket
                .prepared
                .ctx
                .scenario
                .program
                .stmt_count()
                .to_string(),
            us("graph.exception"),
            us("graph.slicing"),
            us("graph.chaining"),
            us("graph"),
        ]);
    }
    titled("Table 7: static causal-graph analysis time breakdown", &t)
}

/// Table 8: per-failure Explorer runtime details ([`explorer_costs`] of
/// each ticket's full-feedback search).
fn table8(cases: &Cases, _: &[String]) -> String {
    let mut t = TextTable::new(&[
        "Failure",
        "Inject. req.",
        "Armed req.",
        "Decision latency/armed req.",
        "Round init",
        "Workload",
    ]);
    for ticket in cases.tickets() {
        let r = full_feedback(ticket, 400);
        let mut row = vec![
            label(ticket),
            r.injection_requests.to_string(),
            r.armed_requests.to_string(),
        ];
        row.extend(cost_cells(explorer_costs(&r)));
        t.row(row);
    }
    titled(
        "Table 8: per-failure Explorer runtime details (full feedback)",
        &t,
    ) + &timer_floor_note()
        + "\n"
}

/// Figure 6: rank of the root-cause fault site across trials for
/// HBase-25905 (f17), then the same for f16.
///
/// Prints the per-round rank series plus an ASCII plot; the rank improves
/// as the feedback deprioritizes observables that keep appearing in
/// unsuccessful rounds.
fn figure6(cases: &Cases, _: &[String]) -> String {
    let mut out = String::new();
    for (id, title) in [
        (
            "f17",
            "Figure 6: rank of the root-cause fault site per trial (f17 / HBase-25905)",
        ),
        (
            "f16",
            "Supplementary: the same trace for f16 / HBase-16144, whose ABORT \
             observable drags in decoy sites (the paper's rank-movement case)",
        ),
    ] {
        let r = full_feedback(cases.ticket(id), 400);
        let _ = writeln!(out, "{title}\n\ntrial  rank  injected");
        for x in &r.per_round {
            let _ = writeln!(
                out,
                "{:5}  {:>4}  {}",
                x.round + 1,
                x.gt_rank.map(|g| g.to_string()).unwrap_or("-".into()),
                x.injected
                    .map(|(s, o, e)| format!("site {} occ {} {}", s.0, o, e.name()))
                    .unwrap_or_else(|| "(none)".into())
            );
        }
        let ranks: Vec<usize> = r.per_round.iter().filter_map(|x| x.gt_rank).collect();
        if let Some(&max) = ranks.iter().max() {
            let _ = writeln!(out, "\nrank (1 = best), one column per trial:");
            for level in (1..=max).rev() {
                let marks: String = ranks
                    .iter()
                    .map(|&g| if g == level { '*' } else { ' ' })
                    .collect();
                let _ = writeln!(out, "{level:3} |{marks}");
            }
            let _ = writeln!(out, "    +{}", "-".repeat(ranks.len()));
        }
        let _ = writeln!(
            out,
            "\nreproduced: {} in {} rounds (site {:?} occurrence {:?})\n",
            r.success,
            r.rounds,
            r.script.as_ref().map(|s| s.desc.clone()),
            r.script.as_ref().map(|s| s.occurrence)
        );
    }
    out
}

/// Extended ablations beyond Table 2 (DESIGN.md §6): min-vs-sum
/// aggregation, message-count vs instance-order temporal distance, and
/// per-thread vs global log diff.
fn ablations(cases: &Cases, _: &[String]) -> String {
    let strategies = [
        "full-feedback",
        "sum-aggregate",
        "order-distance",
        "global-diff",
    ];
    let mut t = TextTable::new(&[&["Failure"][..], &strategies].concat());
    // Per configuration: total rounds (a miss counts the cap), misses.
    let mut totals = [(0usize, 0usize); 4];
    for ticket in cases.tickets() {
        let mut row = vec![label(ticket)];
        for (name, (total, misses)) in strategies.iter().zip(&mut totals) {
            let mut strategy = by_name(name).expect("registered");
            let r = run_strategy(ticket, strategy.as_mut(), 400);
            *total += if r.success { r.rounds } else { 400 };
            *misses += usize::from(!r.success);
            row.push(cell(&r));
        }
        t.row(row);
    }
    let mut total_row = vec!["TOTAL rounds (fail=400)".to_string()];
    total_row.extend(totals.map(|(total, misses)| format!("{total} ({misses} failed)")));
    t.row(total_row);
    titled(
        "Extended ablations (DESIGN.md section 6): design choices of the feedback algorithm",
        &t,
    )
}

/// Workload sensitivity (paper §8, "Workload generation"): the same
/// failure reproduces under different driving workloads, as long as they
/// exercise the affected code path.
fn workloads(cases: &Cases, _: &[String]) -> String {
    // Cases whose oracles describe the symptom independent of workload
    // volume, swept across three volumes each.
    let sweeps: [(&str, &str, [i64; 3]); 3] = [
        ("f17", "client", [48, 64, 96]),
        ("f21", "client", [4, 5, 8]),
        ("f13", "client", [6, 8, 12]),
    ];
    let mut t = TextTable::new(&["Case", "Workload arg", "GT occurrence", "Rounds", "Success"]);
    for (id, node_name, args) in sweeps {
        let definition = cases.definitions().iter().find(|c| c.id == id);
        for arg in args {
            // A case of its own — another workload, so another ground
            // truth and failure log — prepared like any other.
            let case = (definition.expect("case"))
                .with_workload(&[(node_name, &[arg])], None)
                .expect("workload node");
            let cells = match case.prepare(1_000, &NoopTracer) {
                Ok(p) => {
                    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
                    let cfg = ExplorerConfig::default();
                    let r = explore(&p.ctx, &case.oracle, &mut s, &cfg, Some(p.gt.site))
                        .expect("explore");
                    [
                        p.gt.occurrence.to_string(),
                        r.rounds.to_string(),
                        r.success.to_string(),
                    ]
                }
                Err(CaseError::NotReproducible(_)) => [
                    "-".into(),
                    "-".into(),
                    "workload misses the fault state".into(),
                ],
                Err(e) => panic!("{id} at {arg}: {e}"),
            };
            let mut row = vec![id.to_string(), arg.to_string()];
            row.extend(cells);
            t.row(row);
        }
    }
    titled(
        "Workload sensitivity: same failure, different driving workloads",
        &t,
    )
}

/// Base-seed sweep: the Explorer's normal-run seed must not be special.
/// Reproduces every case under several Explorer base seeds and reports
/// rounds per seed (a flakiness audit, not a paper artifact).
///
/// # Panics
///
/// Panics if some case is not reproduced under some seed.
fn seed_sweep(cases: &Cases, _: &[String]) -> String {
    let seeds = [1_000u64, 5_000, 12_345, 777_777];
    let header: Vec<String> = std::iter::once("Case".to_string())
        .chain(seeds.iter().map(|s| format!("base {s}")))
        .collect();
    let mut t = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut misses = 0;
    for ticket in cases.tickets() {
        let mut row = vec![ticket.case.id.to_string()];
        for base in seeds {
            let other_seed;
            let prepared = if base == 1_000 {
                ticket.prepared
            } else {
                other_seed = ticket.case.prepare(base, &NoopTracer).expect("prepare");
                &other_seed
            };
            let cfg = ExplorerConfig {
                base_seed: base,
                ..ExplorerConfig::default()
            };
            let mut s = FeedbackStrategy::new(FeedbackConfig::full());
            let gt_site = Some(prepared.gt.site);
            let r = explore(&prepared.ctx, &ticket.case.oracle, &mut s, &cfg, gt_site)
                .expect("explore");
            misses += usize::from(!r.success);
            row.push(rounds(&r));
        }
        t.row(row);
    }
    let out = titled(
        "Base-seed sweep: rounds to reproduce under different Explorer seeds",
        &t,
    ) + &format!("total misses: {misses}\n");
    assert_eq!(misses, 0, "some case failed under some base seed:\n{out}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cases = Cases::default();
    match args.first().map(String::as_str) {
        Some("list") => {
            for (name, about, _) in ARTIFACTS {
                println!("{name:11} {about}");
            }
        }
        Some("all") => {
            std::fs::create_dir_all("results").expect("create results dir");
            for (name, _, render) in ARTIFACTS {
                let path = format!("results/{name}.txt");
                std::fs::write(&path, render(&cases, &[])).expect("write result");
                eprintln!("wrote {path}");
            }
            eprintln!("all artifacts written under results/");
        }
        Some(name) => match ARTIFACTS.iter().find(|(n, ..)| *n == name) {
            Some((_, _, render)) => print!("{}", render(&cases, &args[1..])),
            None => {
                eprintln!("paper: no artifact `{name}`; `paper list` names them");
                return ExitCode::from(2);
            }
        },
        None => {
            eprintln!("usage: paper <artifact> [args] | paper all | paper list");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every artifact renders from one shared `Cases`, the per-ticket ones
    /// with a row per ticket, and all of it over 22 preparations at seed
    /// 1000 — the thirteen bins this file replaced made 176.
    #[test]
    fn every_artifact_renders_from_tickets_prepared_once() {
        let cases = Cases::default();
        assert_eq!(cases.preparations(), 0, "preparation is lazy");
        for (name, _, render) in ARTIFACTS {
            let out = render(&cases, &[]);
            assert!(out.lines().count() > 5 && out.ends_with('\n'), "{name}");
            let body: Vec<&str> = out.lines().skip_while(|l| !l.starts_with("---")).collect();
            let per_ticket = [
                "table2",
                "table5",
                "table7",
                "table8",
                "ablations",
                "seed_sweep",
            ];
            if per_ticket.contains(&name) {
                let ids = cases.definitions().iter().map(|c| c.id);
                let rows = ids
                    .filter(|id| {
                        let (bare, labelled) = (format!("{id} "), format!("({id})"));
                        body.iter()
                            .any(|l| l.starts_with(&bare) || l.contains(&labelled))
                    })
                    .count();
                assert_eq!(rows, 22, "{name}:\n{out}");
            }
        }
        assert_eq!(cases.preparations(), 22);
    }
}
