//! The `anduril` command-line tool: inspect and reproduce the bundled
//! failure cases.
//!
//! ```console
//! $ anduril list
//! $ anduril show f17
//! $ anduril log f17 | head
//! $ anduril reproduce f17 [--strategy full|exhaustive|site-distance|...]
//! ```

use anduril::baselines::{CrashTuner, Fate, StacktraceInjector};
use anduril::failures::{all_cases, case_by_id, FailureCase};
use anduril::trace::report::{self, TextTable};
use anduril::trace::{json_escape, read_stream, FileTracer, NoopTracer, Tracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, SearchContext, Strategy,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  anduril list\n  anduril show <case>\n  anduril log <case>\n  \
         anduril analyze [<case>|<system>|all] [--json FILE]\n  \
         anduril reproduce <case> [--strategy NAME] [--max-rounds N] [--emit-script FILE]\n  \
         {0:21}[--threads N] [--batch N] [--trace FILE]\n  \
         {0:21}[--adaptive on|off]\n  \
         anduril trace <file> [--summary | --round N | --promotions | --json]\n  \
         anduril replay <case> <script-file>\n  \
         anduril explain <case>\n  \
         anduril generate [--seed S] [--count N] [--size small|medium|large]\n  \
         {0:21}[--multi-fault] [--reproduce]\n\n\
         strategies: full (default), exhaustive, site-distance, site-distance-limit3,\n\
         site-feedback, multiply, sum-aggregate, order-distance, global-diff,\n\
         fate, crashtuner, crashtuner-meta-exc, stacktrace\n\n\
         reproduce reports `replay verified`: the oracle's verdict on the\n\
         emitted script's run. That run is the reproducing round itself\n\
         (one injection fired, and a run is a function of seed and plan),\n\
         so it is not made twice; `anduril replay` runs a script for real\n\n\
         --threads > 1 explores in speculative parallel batches (identical\n\
         results, less wall time); feedback-strategy variants only\n\n\
         --trace FILE records the structured search-trace stream (context\n\
         phases, per-round decisions with priority provenance, feedback,\n\
         speculation) as JSONL; `anduril trace FILE` renders it\n\n\
         --adaptive on promotes synthetic observables from causal-graph\n\
         interior nodes when the search stalls (a retry pass begins),\n\
         re-shaping priorities around the top-ranked sites; off (default)\n\
         keeps the paper's frozen observable set. Feedback-strategy\n\
         variants only; sequential and --threads runs stay byte-identical\n\n\
         trace --promotions lists each promoted observable with its\n\
         provenance (source graph node, trigger pass, distance delta)\n\n\
         analyze prints the static-analysis report (site reduction, graph\n\
         size, phase timings, per-observable distances); --json FILE also\n\
         writes the same data as JSON (`--json -` for stdout)\n\n\
         generate synthesizes random well-formed scenarios with a planted\n\
         root-cause fault (ground truth correct by construction), verifies\n\
         each is sound, and with --reproduce runs the feedback explorer on\n\
         single-fault cases; --multi-fault plants a two-fault cascade",
        ""
    );
    std::process::exit(2);
}

/// Prints an error to stderr and exits nonzero. Every runtime failure path
/// (missing case, unreadable file, simulator error) funnels through here so
/// no subcommand can fail with exit 0.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("anduril: {msg}");
    std::process::exit(1);
}

/// Writes a whole document to stdout in one call. A reader that has seen
/// enough (`anduril trace f.jsonl | head`) closes the pipe: that ends the
/// command cleanly, with nothing on stderr.
fn emit(text: &str) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail(format!("cannot write to stdout: {e}")),
    }
}

/// Sorts `explain` rows by ascending priority `F_i`.
///
/// `total_cmp`, not `partial_cmp().unwrap()`: `F_i` is a sum of graph and
/// temporal terms that can degenerate to NaN (e.g. `inf - inf` when an
/// observable has no positions), and a diagnostic subcommand must render
/// such a unit — ordered after every finite priority — rather than panic.
fn sort_explanations(explanations: &mut [anduril::Explanation]) {
    explanations.sort_by(|a, b| a.f_i.total_cmp(&b.f_i));
}

/// Resolves a `<case>` argument or exits nonzero with a clear message.
fn resolve_case(arg: Option<&String>) -> FailureCase {
    let Some(id) = arg else { usage() };
    case_by_id(id).unwrap_or_else(|| {
        eprintln!("anduril: no case matches `{id}` (run `anduril list`)");
        std::process::exit(2);
    })
}

/// Per-case static-analysis report data for `anduril analyze`.
struct AnalyzeRow {
    id: &'static str,
    ticket: &'static str,
    system: &'static str,
    sites_total: usize,
    sites_reachable: usize,
    sites_bounded: usize,
    sites_inferred: usize,
    units: usize,
    nodes: usize,
    edges: usize,
    /// Fraction of the a-priori `(site, occurrence, exception)` plan space
    /// the static occurrence bounds prove infeasible.
    pruned_ratio: f64,
    /// `(site id, desc, lo, hi)` static occurrence interval per candidate site.
    site_bounds: Vec<(u32, String, u64, Option<u64>)>,
    /// Whether the ground-truth root-cause site is statically dead (`hi == 0`)
    /// — always `false` if the bounds are sound.
    gt_dead: bool,
    /// `(template text, min distance over inferred sites)` per observable.
    observables: Vec<(String, Option<u32>)>,
    timings: anduril::causal::BuildTimings,
    lints: Vec<String>,
}

fn analyze_case(case: &anduril::failures::FailureCase) -> AnalyzeRow {
    let failure_log = case
        .failure_log()
        .unwrap_or_else(|e| fail(format!("{}: failure log: {e}", case.id)));
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
        .unwrap_or_else(|e| fail(format!("{}: context preparation: {e}", case.id)));
    let program = &ctx.scenario.program;
    let observables = ctx
        .observables
        .iter()
        .enumerate()
        .map(|(k, o)| {
            let text = program.templates[o.template.index()].text.clone();
            let min = ctx.distances[k].values().min().copied();
            (text, min)
        })
        .collect();
    let site_bounds: Vec<(u32, String, u64, Option<u64>)> = ctx
        .candidate_sites
        .iter()
        .map(|&sid| {
            let b = ctx.site_bound(sid);
            (sid.0, program.sites[sid.index()].desc.clone(), b.lo, b.hi)
        })
        .collect();
    let sites_bounded = site_bounds
        .iter()
        .filter(|(_, _, _, hi)| *hi != Some(0))
        .count();
    let gt_dead = case
        .root_site()
        .map(|sid| ctx.site_bound(sid).is_dead())
        .unwrap_or(true);
    AnalyzeRow {
        id: case.id,
        ticket: case.ticket,
        system: case.system,
        sites_total: program.sites.len(),
        sites_reachable: ctx.candidate_sites.len(),
        sites_bounded,
        sites_inferred: ctx.graph.sources().len(),
        units: ctx.units.len(),
        nodes: ctx.graph.node_count(),
        edges: ctx.graph.edge_count(),
        pruned_ratio: ctx.pruned_plan_ratio(),
        site_bounds,
        gt_dead,
        observables,
        timings: ctx.timings,
        lints: program
            .lints_with_bounds(&ctx.bounds.site_his())
            .iter()
            .map(|w| w.to_string())
            .collect(),
    }
}

fn analyze_json(rows: &[AnalyzeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"ticket\": \"{}\", \"system\": \"{}\", \
             \"sites_total\": {}, \"sites_reachable\": {}, \"sites_bounded\": {}, \
             \"sites_inferred\": {}, \
             \"units\": {}, \"nodes\": {}, \"edges\": {}, \
             \"pruned_plan_ratio\": {:.4}, \"gt_dead\": {}, \
             \"timings_ns\": {{\"exception\": {}, \"slicing\": {}, \"chaining\": {}, \"total\": {}}}, \
             \"site_bounds\": [",
            json_escape(r.id),
            json_escape(r.ticket),
            json_escape(r.system),
            r.sites_total,
            r.sites_reachable,
            r.sites_bounded,
            r.sites_inferred,
            r.units,
            r.nodes,
            r.edges,
            r.pruned_ratio,
            r.gt_dead,
            r.timings.exception_ns,
            r.timings.slicing_ns,
            r.timings.chaining_ns,
            r.timings.total_ns,
        );
        for (j, (site, desc, lo, hi)) in r.site_bounds.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"site\": {site}, \"desc\": \"{}\", \"lo\": {lo}, \"hi\": {}}}",
                if j > 0 { ", " } else { "" },
                json_escape(desc),
                hi.map(|h| h.to_string()).unwrap_or_else(|| "null".into()),
            );
        }
        out.push_str("], \"observables\": [");
        for (j, (text, min)) in r.observables.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"template\": \"{}\", \"min_distance\": {}}}",
                if j > 0 { ", " } else { "" },
                json_escape(text),
                min.map(|d| d.to_string()).unwrap_or_else(|| "null".into()),
            );
        }
        out.push_str("], \"lints\": [");
        for (j, l) in r.lints.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\"",
                if j > 0 { ", " } else { "" },
                json_escape(l)
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn feedback_config_by_name(name: &str) -> Option<FeedbackConfig> {
    Some(match name {
        "full" => FeedbackConfig::full(),
        "exhaustive" => FeedbackConfig::exhaustive(),
        "site-distance" => FeedbackConfig::site_distance(),
        "site-distance-limit3" => FeedbackConfig::site_distance_limited(),
        "site-feedback" => FeedbackConfig::site_feedback(),
        "multiply" => FeedbackConfig::multiply(),
        "sum-aggregate" => FeedbackConfig::sum_aggregate(),
        "order-distance" => FeedbackConfig::order_distance(),
        "global-diff" => FeedbackConfig::global_diff(),
        _ => return None,
    })
}

fn strategy_by_name(name: &str) -> Option<Box<dyn Strategy>> {
    if let Some(cfg) = feedback_config_by_name(name) {
        return Some(Box::new(FeedbackStrategy::new(cfg)));
    }
    Some(match name {
        "fate" => Box::new(Fate::new()),
        "crashtuner" => Box::new(CrashTuner::crashes()),
        "crashtuner-meta-exc" => Box::new(CrashTuner::meta_exceptions()),
        "stacktrace" => Box::new(StacktraceInjector::new()),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:4} {:10} {:10} description", "id", "ticket", "system");
            for c in all_cases() {
                println!(
                    "{:4} {:10} {:10} {}",
                    c.id, c.ticket, c.system, c.description
                );
            }
        }
        Some("show") => {
            let case = resolve_case(args.get(1));
            println!("{} ({}) on {}", case.ticket, case.id, case.system);
            println!("  {}", case.description);
            println!("  root cause : {} ({})", case.root_site_desc, case.root_exc);
            match case.ground_truth() {
                Ok(gt) => println!(
                    "  ground truth: occurrence {} under seed {}",
                    gt.occurrence, gt.seed
                ),
                Err(e) => println!("  ground truth: UNRESOLVABLE ({e})"),
            }
            for d in &case.deeper_causes {
                println!("  deeper cause: {} ({}) — {}", d.site_desc, d.exc, d.note);
            }
        }
        Some("log") => {
            let case = resolve_case(args.get(1));
            match case.failure_log() {
                Ok(log) => emit(&log),
                Err(e) => fail(format!("{}: failure log: {e}", case.id)),
            }
        }
        Some("analyze") => {
            let mut selector = "all".to_string();
            let mut json_path: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--json" => {
                        json_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    s if i == 1 => {
                        selector = s.to_string();
                        i += 1;
                    }
                    _ => usage(),
                }
            }
            let cases: Vec<_> = all_cases()
                .into_iter()
                .filter(|c| {
                    selector.eq_ignore_ascii_case("all")
                        || c.id.eq_ignore_ascii_case(&selector)
                        || c.system.eq_ignore_ascii_case(&selector)
                })
                .collect();
            if cases.is_empty() {
                eprintln!("no case or system matches `{selector}`");
                std::process::exit(2);
            }
            let rows: Vec<AnalyzeRow> = cases.iter().map(analyze_case).collect();

            let mut report = String::new();
            use std::fmt::Write as _;

            writeln!(
                report,
                "Static analysis report (fault-site reduction and causal-graph shape)\n"
            )
            .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
            let mut t = TextTable::new(&[
                "Case", "Ticket", "System", "Sites", "Reach", "Bound", "Inferred", "Units",
                "Nodes", "Edges", "Pruned%", "Obs", "MinDist", "Exc us", "Slice us", "Chain us",
                "Total us",
            ]);
            let mut last_system = "";
            for r in &rows {
                let mindist = r
                    .observables
                    .iter()
                    .map(|(_, m)| m.map(|d| d.to_string()).unwrap_or_else(|| "-".into()))
                    .collect::<Vec<_>>()
                    .join("/");
                t.row(vec![
                    r.id.to_string(),
                    r.ticket.to_string(),
                    if r.system == last_system {
                        String::new()
                    } else {
                        r.system.to_string()
                    },
                    r.sites_total.to_string(),
                    r.sites_reachable.to_string(),
                    r.sites_bounded.to_string(),
                    r.sites_inferred.to_string(),
                    r.units.to_string(),
                    r.nodes.to_string(),
                    r.edges.to_string(),
                    format!("{:.1}", 100.0 * r.pruned_ratio),
                    r.observables.len().to_string(),
                    mindist,
                    (r.timings.exception_ns / 1_000).to_string(),
                    (r.timings.slicing_ns / 1_000).to_string(),
                    (r.timings.chaining_ns / 1_000).to_string(),
                    (r.timings.total_ns / 1_000).to_string(),
                ]);
                last_system = r.system;
            }
            write!(report, "{}", t.render())
                .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
            writeln!(
                report,
                "\nSites = static fault sites; Reach = reachable from the workload \
                 roots; Bound = reachable sites the occurrence bounds leave alive \
                 (hi != 0); Inferred = causal-graph sources; Units = (site, exception) \
                 candidates after pruning; Pruned% = plan-space fraction the static \
                 occurrence bounds prove infeasible; MinDist = per-observable minimum \
                 source distance."
            )
            .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
            for r in &rows {
                for l in &r.lints {
                    writeln!(report, "lint [{}]: {}", r.id, l)
                        .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
                }
            }
            match json_path.as_deref() {
                // The machine-readable document owns stdout, so the
                // human-readable report moves to stderr and stays pipeable.
                Some("-") => {
                    eprint!("{report}");
                    emit(&analyze_json(&rows));
                }
                Some(path) => {
                    std::fs::write(path, analyze_json(&rows))
                        .unwrap_or_else(|e| fail(format!("cannot write `{path}`: {e}")));
                    emit(&format!("{report}\nJSON written to {path}\n"));
                }
                None => emit(&report),
            }
        }
        Some("reproduce") => {
            let case = resolve_case(args.get(1));
            let mut strategy_name = "full".to_string();
            let mut max_rounds = 2_000usize;
            let mut emit_script: Option<String> = None;
            let mut threads = 1usize;
            let mut batch_size: Option<usize> = None;
            let mut trace_path: Option<String> = None;
            let mut adaptive = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--strategy" => {
                        strategy_name = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--max-rounds" => {
                        max_rounds = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--emit-script" => {
                        emit_script = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    "--threads" => {
                        threads = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--batch" => {
                        batch_size = Some(
                            args.get(i + 1)
                                .and_then(|s| s.parse().ok())
                                .unwrap_or_else(|| usage()),
                        );
                        i += 2;
                    }
                    "--trace" => {
                        trace_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    "--adaptive" => {
                        adaptive = match args.get(i + 1).map(String::as_str) {
                            Some("on") => true,
                            Some("off") => false,
                            _ => usage(),
                        };
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let file_tracer = trace_path.as_deref().map(|path| {
                FileTracer::create(path)
                    .unwrap_or_else(|e| fail(format!("cannot create trace file `{path}`: {e}")))
            });
            let tracer: &dyn Tracer = match &file_tracer {
                Some(t) => t,
                None => &NoopTracer,
            };
            // `fail` leaves through `process::exit`, which runs no
            // destructor: every way out of a traced search closes the
            // trace first, so the file of a search that died ends on a
            // whole line. `false` when the file is short of an event.
            let close_trace = || {
                let Some((t, path)) = file_tracer.as_ref().zip(trace_path.as_ref()) else {
                    return true;
                };
                let written = t.finish();
                match &written {
                    Ok(()) => eprintln!("trace written to {path}"),
                    Err(e) => eprintln!("anduril: trace file `{path}` is incomplete: {e}"),
                }
                written.is_ok()
            };
            let die = |msg: String| -> ! {
                close_trace();
                fail(msg)
            };
            let gt = case
                .ground_truth()
                .unwrap_or_else(|e| fail(format!("{}: ground truth: {e}", case.id)));
            let failure_log = case
                .failure_log()
                .unwrap_or_else(|e| fail(format!("{}: failure log: {e}", case.id)));
            let ctx =
                SearchContext::prepare_traced(case.scenario.clone(), &failure_log, 1_000, tracer)
                    .unwrap_or_else(|e| die(format!("{}: context preparation: {e}", case.id)));
            eprintln!(
                "{}: {} observables, {} candidate units, causal graph {}v/{}e",
                case.id,
                ctx.observables.len(),
                ctx.units.len(),
                ctx.graph.node_count(),
                ctx.graph.edge_count()
            );
            let mut cfg = ExplorerConfig {
                max_rounds,
                ..ExplorerConfig::default()
            };
            cfg.adaptive.enabled = adaptive;
            let batched = threads > 1 || batch_size.is_some();
            let r = if batched {
                // The batched path speculates on a cloned strategy, so it
                // is limited to the (Clone) feedback-strategy family.
                let Some(fb_cfg) = feedback_config_by_name(&strategy_name) else {
                    eprintln!("--threads/--batch require a feedback-strategy variant");
                    std::process::exit(2);
                };
                let batch = BatchExplorerConfig {
                    batch_size: batch_size.unwrap_or_else(|| threads.max(2) * 2),
                    threads,
                };
                let mut strategy = FeedbackStrategy::new(fb_cfg);
                explore_batched_traced(
                    &ctx,
                    &case.oracle,
                    &mut strategy,
                    &cfg,
                    &batch,
                    Some(gt.site),
                    tracer,
                )
                .unwrap_or_else(|e| die(format!("{}: exploration: {e}", case.id)))
            } else {
                let mut strategy = strategy_by_name(&strategy_name).unwrap_or_else(|| usage());
                explore_traced(
                    &ctx,
                    &case.oracle,
                    strategy.as_mut(),
                    &cfg,
                    Some(gt.site),
                    tracer,
                )
                .unwrap_or_else(|e| die(format!("{}: exploration: {e}", case.id)))
            };
            if !close_trace() {
                std::process::exit(1);
            }
            if r.success {
                println!(
                    "reproduced in {} rounds ({} sim ticks, {:?} wall) with {}",
                    r.rounds, r.sim_time_total, r.wall, r.strategy
                );
                if let Some(s) = r.script {
                    println!(
                        "script: seed {} inject {} at `{}` occurrence {} (replay verified: {})",
                        s.seed, s.exc, s.desc, s.occurrence, r.replay_verified
                    );
                    if let Some(path) = emit_script {
                        std::fs::write(&path, s.to_text())
                            .unwrap_or_else(|e| fail(format!("cannot write `{path}`: {e}")));
                        println!("script written to {path}");
                    }
                }
            } else {
                println!(
                    "NOT reproduced within {} rounds with {}",
                    r.rounds, r.strategy
                );
                std::process::exit(1);
            }
        }
        Some("trace") => {
            let Some(path) = args.get(1) else { usage() };
            // Read, parse: only once the mode is known to be one, so a
            // bad flag is a usage error whatever the file holds.
            let events = || {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format!("cannot read `{path}`: {e}")));
                let (events, cut) =
                    read_stream(&text).unwrap_or_else(|e| fail(format!("{path}:{e}")));
                if let Some(line) = cut {
                    eprintln!(
                        "anduril: {path}:{line}: final line is cut short (the search died \
                         mid-write); dropped, {} events kept",
                        events.len()
                    );
                }
                if events.is_empty() {
                    fail(format!("`{path}` contains no trace events"));
                }
                events
            };
            let mode: Vec<&str> = args[2..].iter().map(String::as_str).collect();
            emit(&match mode[..] {
                [] | ["--summary"] => report::summary(path, &events()),
                ["--round", n] => {
                    let n = n.parse().unwrap_or_else(|_| usage());
                    report::round(&events(), n).unwrap_or_else(|e| fail(e))
                }
                ["--promotions"] => report::promotions(&events()),
                ["--json"] => report::json(&events()),
                _ => usage(),
            });
        }
        Some("explain") => {
            let case = resolve_case(args.get(1));
            let failure_log = case
                .failure_log()
                .unwrap_or_else(|e| fail(format!("{}: failure log: {e}", case.id)));
            let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
                .unwrap_or_else(|e| fail(format!("{}: context preparation: {e}", case.id)));
            let mut s = FeedbackStrategy::new(FeedbackConfig::full());
            s.init(&ctx);
            let _ = s.plan_round(&ctx, 0);
            println!(
                "{}: initial priority breakdown (F_i = L + I via argmin observable k*)",
                case.id
            );
            println!(
                "{:32} {:>5} {:>4} {:>5} {:>5} {:>10} {:>6}",
                "site", "F_i", "k*", "L", "I_k", "best occ", "T"
            );
            let mut explanations: Vec<_> = ctx
                .units
                .iter()
                .filter_map(|&u| s.explain(&ctx, u))
                .collect();
            sort_explanations(&mut explanations);
            for ex in explanations {
                let (occ, t) = ex
                    .best_instance
                    .map(|(o, t)| (format!("{o:?}"), format!("{t:.1}")))
                    .unwrap_or(("-".into(), "-".into()));
                println!(
                    "{:32} {:>5} {:>4} {:>5} {:>5} {:>10} {:>6}",
                    ctx.scenario.program.sites[ex.unit.site.index()].desc,
                    ex.f_i,
                    ex.k_star,
                    ex.l,
                    ex.i_k,
                    occ,
                    t
                );
            }
        }
        Some("generate") => {
            let mut seed = 1u64;
            let mut count = 10usize;
            let mut size = anduril::gen::SizeClass::Small;
            let mut multi_fault = false;
            let mut reproduce = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--seed" => {
                        seed = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--count" => {
                        count = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--size" => {
                        size = args
                            .get(i + 1)
                            .and_then(|s| anduril::gen::SizeClass::parse(s))
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--multi-fault" => {
                        multi_fault = true;
                        i += 1;
                    }
                    "--reproduce" => {
                        reproduce = true;
                        i += 1;
                    }
                    _ => usage(),
                }
            }
            let cfg = anduril::gen::GenConfig {
                seed,
                size,
                multi_fault,
            };
            println!(
                "{:8} {:>5} {:>5} {:>5} {:>6} {:24} {:7} sound",
                "id", "nodes", "funcs", "sites", "stmts", "planted", "seed"
            );
            for idx in 0..count {
                let gc = anduril::gen::generate_one(&cfg, idx)
                    .unwrap_or_else(|e| fail(format!("case {idx}: {e}")));
                let planted = gc
                    .plant
                    .iter()
                    .map(|f| {
                        let desc = &gc.case.scenario.program.sites[f.site.index()].desc;
                        format!("{desc}@{}", f.occurrence)
                    })
                    .collect::<Vec<_>>()
                    .join(" + ");
                let sound = match anduril::gen::verify_sound(&gc) {
                    Ok(()) => "yes".to_string(),
                    Err(e) => format!("NO ({e})"),
                };
                println!(
                    "{:8} {:>5} {:>5} {:>5} {:>6} {:24} {:7} {}",
                    gc.case.id,
                    gc.nodes,
                    gc.funcs,
                    gc.sites,
                    gc.stmts,
                    planted,
                    gc.case.failure_seed,
                    sound
                );
                if reproduce && !gc.is_multi_fault() {
                    let ctx =
                        SearchContext::prepare(gc.case.scenario.clone(), &gc.failure_log, 1_000)
                            .unwrap_or_else(|e| fail(format!("{}: context: {e}", gc.case.id)));
                    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
                    let repro = explore_traced(
                        &ctx,
                        &gc.case.oracle,
                        &mut strategy,
                        &ExplorerConfig::default(),
                        None,
                        &NoopTracer,
                    )
                    .unwrap_or_else(|e| fail(format!("{}: explore: {e}", gc.case.id)));
                    println!(
                        "         rediscovered = {} in {} rounds",
                        repro.success, repro.rounds
                    );
                }
            }
        }
        Some("replay") => {
            let case = resolve_case(args.get(1));
            let path = args.get(2).unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read `{path}`: {e}")));
            let script = anduril::ReproScript::parse(&text)
                .unwrap_or_else(|| fail(format!("malformed script `{path}`")));
            let r = script
                .replay(&case.scenario)
                .unwrap_or_else(|e| fail(format!("replay failed: {e}")));
            println!(
                "replayed {}: oracle satisfied = {}",
                case.id,
                case.oracle.check(&r)
            );
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::sort_explanations;
    use anduril::ir::{ExceptionType, SiteId};
    use anduril::{Explanation, FaultUnit};

    fn row(site: u32, f_i: f64) -> Explanation {
        Explanation {
            unit: FaultUnit {
                site: SiteId(site),
                exc: ExceptionType::Io,
            },
            f_i,
            k_star: 0,
            l: 0,
            i_k: 0.0,
            best_instance: None,
            rank: None,
        }
    }

    /// A NaN priority (possible when an observable's temporal term
    /// degenerates) must sort after every finite row, not panic the
    /// subcommand like the old `partial_cmp().unwrap()` did.
    #[test]
    fn explain_sort_survives_nan_priorities() {
        let mut rows = vec![
            row(0, 2.0),
            row(1, f64::NAN),
            row(2, 1.0),
            row(3, f64::INFINITY),
            row(4, -1.0),
        ];
        sort_explanations(&mut rows);
        let order: Vec<u32> = rows.iter().map(|e| e.unit.site.0).collect();
        assert_eq!(order, vec![4, 2, 0, 3, 1]);
        assert!(rows.last().unwrap().f_i.is_nan());
    }
}
