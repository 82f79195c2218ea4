//! The `anduril` command-line tool: inspect and reproduce the bundled
//! failure cases.
//!
//! ```console
//! $ anduril list
//! $ anduril show f17
//! $ anduril log f17 | head
//! $ anduril reproduce f17 [--strategy full|exhaustive|site-distance|...]
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

use anduril::baselines::by_name;
use anduril::causal::{OccurrenceBounds, ProgramFacts};
use anduril::failures::{all_cases, case_by_id, FailureCase, PreparedCase};
use anduril::gen::{generate_one, verify_sound, GenConfig, SizeClass};
use anduril::trace::report::{self, TextTable};
use anduril::trace::{read_stream, FileTracer, NoopTracer, TraceEvent, Tracer};
use anduril::{
    explore, explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig,
    FeedbackConfig, FeedbackStrategy, Json, Reproduction, SearchContext, Strategy,
};

/// Why a command did not run to its end.
enum CliError {
    /// A malformed command line: the usage text, exit 2.
    Usage,
    /// A well-formed command line naming something that does not exist or
    /// does not combine: this message, exit 2.
    BadArg(String),
    /// A runtime failure (unreadable file, simulator error): `anduril:
    /// <message>`, exit 1.
    Failed(String),
}
use CliError::{BadArg, Failed, Usage};

fn print_usage() {
    eprintln!(
        "usage:\n  anduril list\n  anduril show <case>\n  anduril log <case>\n  \
         anduril analyze [<case>|<system>|all] [--json FILE]\n  \
         anduril reproduce <case> [--strategy NAME] [--max-rounds N] [--emit-script FILE]\n  \
         {0:21}[--threads N] [--batch N] [--trace FILE]\n  \
         anduril trace <file> [--summary | --round N | --promotions | --json]\n  \
         anduril replay <case> <script-file>\n  \
         anduril explain <case>\n  \
         anduril generate [--seed S] [--count N] [--size small|medium|large]\n  \
         {0:21}[--multi-fault] [--reproduce]\n\n\
         strategies: full (default), exhaustive, site-distance, site-distance-limit3,\n\
         site-feedback, multiply, sum-aggregate, order-distance, global-diff,\n\
         full-adaptive, fate, crashtuner, crashtuner-meta-exc, stacktrace\n\n\
         full-adaptive is full feedback that promotes synthetic observables\n\
         from causal-graph nodes when the search stalls (a retry pass\n\
         begins); full keeps the paper's fixed observable set\n\n\
         reproduce reports `replay verified`: the oracle's verdict on the\n\
         emitted script's run. That run is the reproducing round itself\n\
         (one injection fired, and a run is a function of seed and plan),\n\
         so it is not made twice; `anduril replay` runs a script for real\n\n\
         --threads N runs rounds on N threads, the calling one included: N > 1\n\
         speculates up to --batch M rounds ahead (default 8) on N - 1 workers\n\
         (identical results, less wall time); feedback-strategy variants only\n\n\
         --trace FILE records the structured search-trace stream (context\n\
         phases, per-round decisions with priority provenance, feedback,\n\
         speculation) as JSONL; `anduril trace FILE` renders it\n\n\
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
}

/// Writes a whole document to stdout in one call. A reader that has seen
/// enough (`anduril trace f.jsonl | head`) closes the pipe: that ends the
/// command cleanly, with nothing on stderr.
fn emit(text: &str) -> Result<ExitCode, CliError> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(Failed(format!("cannot write to stdout: {e}")))
        }
        _ => Ok(ExitCode::SUCCESS),
    }
}

/// The value of the flag at `args[*i]`, parsed, and `*i` moved past both;
/// a missing or unparsable value is a usage error.
fn flag<T: FromStr>(args: &[String], i: &mut usize) -> Result<T, CliError> {
    let value = args.get(*i + 1).and_then(|s| s.parse().ok()).ok_or(Usage)?;
    *i += 2;
    Ok(value)
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

/// Resolves a `<case>` argument.
fn resolve_case(arg: Option<&String>) -> Result<FailureCase, CliError> {
    let id = arg.ok_or(Usage)?;
    case_by_id(id).ok_or_else(|| {
        BadArg(format!(
            "anduril: no case matches `{id}` (run `anduril list`)"
        ))
    })
}

/// Prepares a bundled case at the seed every subcommand uses.
fn prepare(case: &FailureCase, tracer: &dyn Tracer) -> Result<PreparedCase, CliError> {
    case.prepare(1_000, tracer)
        .map_err(|e| Failed(format!("{}: {e}", case.id)))
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| Failed(format!("cannot read `{path}`: {e}")))
}

fn write_file(path: &str, text: String) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(|e| Failed(format!("cannot write `{path}`: {e}")))
}

fn list() -> Result<ExitCode, CliError> {
    let mut out = format!("{:4} {:10} {:10} description\n", "id", "ticket", "system");
    for c in all_cases() {
        let _ = writeln!(
            out,
            "{:4} {:10} {:10} {}",
            c.id, c.ticket, c.system, c.description
        );
    }
    emit(&out)
}

fn show(args: &[String]) -> Result<ExitCode, CliError> {
    let case = resolve_case(args.get(1))?;
    let mut out = format!(
        "{} ({}) on {}\n  {}\n  root cause : {} ({})\n",
        case.ticket, case.id, case.system, case.description, case.root_site_desc, case.root_exc
    );
    let _ = match case.ground_truth() {
        Ok(gt) => writeln!(
            out,
            "  ground truth: occurrence {} under seed {}",
            gt.occurrence, gt.seed
        ),
        Err(e) => writeln!(out, "  ground truth: UNRESOLVABLE ({e})"),
    };
    for d in &case.deeper_causes {
        let _ = writeln!(
            out,
            "  deeper cause: {} ({}) — {}",
            d.site_desc, d.exc, d.note
        );
    }
    emit(&out)
}

fn log(args: &[String]) -> Result<ExitCode, CliError> {
    let case = resolve_case(args.get(1))?;
    let log = case
        .failure_log()
        .map_err(|e| Failed(format!("{}: failure log: {e}", case.id)))?;
    emit(&log)
}

/// One case of `anduril analyze`: its row of the report table, its record
/// of the JSON document, its lint lines.
fn analyze_case(case: &FailureCase) -> Result<(Vec<String>, Json, Vec<String>), CliError> {
    let PreparedCase { gt, ctx, .. } = prepare(case, &NoopTracer)?;
    let program = &ctx.scenario.program;
    // Per observable, its minimum distance over the inferred sites.
    let min_distances: Vec<Option<u32>> = ctx
        .distances
        .iter()
        .map(|d| d.values().min().copied())
        .collect();
    // The static occurrence bounds are the report's own: no search reads
    // them.
    let occurrence_bounds = OccurrenceBounds::over(
        program,
        &ProgramFacts::of(program).calls,
        &ctx.scenario.root_calls(),
    );
    // Per candidate site, its static occurrence interval.
    let bounds = ctx
        .candidate_sites
        .iter()
        .map(|&sid| (sid, occurrence_bounds.site(sid)));
    let counts = [
        ("sites_total", program.sites.len()),
        ("sites_reachable", ctx.candidate_sites.len()),
        (
            "sites_bounded",
            bounds.clone().filter(|(_, b)| !b.is_dead()).count(),
        ),
        ("sites_inferred", ctx.graph.sources().len()),
        ("units", ctx.units.len()),
        ("nodes", ctx.graph.node_count()),
        ("edges", ctx.graph.edge_count()),
    ];
    let timings = [
        ("exception", ctx.timings.exception_ns),
        ("slicing", ctx.timings.slicing_ns),
        ("chaining", ctx.timings.chaining_ns),
        ("total", ctx.timings.total_ns),
    ];
    let pruned = pruned_plan_ratio(&ctx, &occurrence_bounds);
    let lints: Vec<String> = program
        .lints_with_bounds(&occurrence_bounds.site_his())
        .iter()
        .map(|w| w.to_string())
        .collect();

    let mut row = vec![case.id.into(), case.ticket.into(), case.system.into()];
    row.extend(counts.iter().map(|(_, n)| n.to_string()));
    row.push(format!("{:.1}", 100.0 * pruned));
    row.push(min_distances.len().to_string());
    let dash = |m: &Option<u32>| m.map_or("-".into(), |d| d.to_string());
    row.push(min_distances.iter().map(dash).collect::<Vec<_>>().join("/"));
    row.extend(timings.iter().map(|(_, ns)| (ns / 1_000).to_string()));

    let site_bounds = bounds.map(|(sid, b)| {
        Json::obj([
            ("site", u64::from(sid.0).into()),
            ("desc", program.sites[sid.index()].desc.as_str().into()),
            ("lo", b.lo.into()),
            ("hi", b.hi.into()),
        ])
    });
    let observables = ctx.observables.iter().zip(&min_distances).map(|(o, min)| {
        Json::obj([
            (
                "template",
                program.templates[o.template.index()].text.as_str().into(),
            ),
            ("min_distance", min.map(u64::from).into()),
        ])
    });
    let mut record = vec![
        ("id", case.id.into()),
        ("ticket", case.ticket.into()),
        ("system", case.system.into()),
    ];
    record.extend(counts.map(|(name, n)| (name, n.into())));
    record.extend([
        ("pruned_plan_ratio", Json::fixed(pruned, 4)),
        // Whether the ground-truth site is statically dead (`hi == 0`):
        // never, if the bounds are sound.
        ("gt_dead", occurrence_bounds.site(gt.site).is_dead().into()),
        (
            "timings_ns",
            Json::obj(timings.map(|(name, ns)| (name, ns.into()))),
        ),
        ("site_bounds", Json::arr(site_bounds)),
        ("observables", Json::arr(observables)),
        ("lints", Json::arr(lints.iter().map(String::as_str))),
    ]);
    Ok((row, Json::obj(record), lints))
}

/// Fraction of the occurrence-oblivious plan space the bounds prove
/// infeasible, in `[0, 1]`.
///
/// The baseline is the FATE-style a-priori space: every candidate site ×
/// every declared exception × a uniform occurrence horizon `H` (the
/// largest dynamic instance count any candidate site showed in the normal
/// run). The bounded space caps each site's occurrence arm at
/// `min(H, hi)`. Sites the analysis proves execute fewer than `H` times —
/// straight-line code, small constant loops, dead branches — shrink the
/// numerator.
fn pruned_plan_ratio(ctx: &SearchContext, bounds: &OccurrenceBounds) -> f64 {
    let horizon = (ctx.candidate_sites.iter())
        .map(|s| ctx.site_instances[s.index()].len().max(1) as u64)
        .max()
        .unwrap_or(1);
    let (mut baseline, mut bounded) = (0u64, 0u64);
    for &s in &ctx.candidate_sites {
        let site = &ctx.scenario.program.sites[s.index()];
        let excs = site.exceptions.len().max(1) as u64;
        let hi = bounds.site(s).hi.map_or(horizon, |h| h.min(horizon));
        baseline += horizon * excs;
        bounded += hi * excs;
    }
    if baseline == 0 {
        return 0.0;
    }
    1.0 - bounded as f64 / baseline as f64
}

fn analyze(args: &[String]) -> Result<ExitCode, CliError> {
    let mut selector = "all".to_string();
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_path = Some(flag(args, &mut i)?),
            s if i == 1 => {
                selector = s.to_string();
                i += 1;
            }
            _ => return Err(Usage),
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
        return Err(BadArg(format!("no case or system matches `{selector}`")));
    }

    let mut t = TextTable::new(&[
        "Case", "Ticket", "System", "Sites", "Reach", "Bound", "Inferred", "Units", "Nodes",
        "Edges", "Pruned%", "Obs", "MinDist", "Exc us", "Slice us", "Chain us", "Total us",
    ]);
    let (mut records, mut lints) = (Vec::new(), String::new());
    let mut last_system = "";
    for case in &cases {
        let (mut row, record, case_lints) = analyze_case(case)?;
        // A system is named on its first row only.
        if case.system == last_system {
            row[2].clear();
        }
        last_system = case.system;
        t.row(row);
        records.push(record);
        for l in case_lints {
            let _ = writeln!(lints, "lint [{}]: {}", case.id, l);
        }
    }
    let report = format!(
        "Static analysis report (fault-site reduction and causal-graph shape)\n\n{}\n\
         Sites = static fault sites; Reach = reachable from the workload \
         roots; Bound = reachable sites the occurrence bounds leave alive \
         (hi != 0); Inferred = causal-graph sources; Units = (site, exception) \
         candidates after pruning; Pruned% = plan-space fraction the static \
         occurrence bounds prove infeasible; MinDist = per-observable minimum \
         source distance.\n{lints}",
        t.render()
    );
    let json = || format!("{}\n", Json::obj([("cases", Json::arr(records))]));
    match json_path.as_deref() {
        // The machine-readable document owns stdout, so the
        // human-readable report moves to stderr and stays pipeable.
        Some("-") => {
            eprint!("{report}");
            emit(&json())
        }
        Some(path) => {
            write_file(path, json())?;
            emit(&format!("{report}\nJSON written to {path}\n"))
        }
        None => emit(&report),
    }
}

/// Prepares and searches (in speculative batches under `batch`), every
/// event going to `tracer`.
fn search(
    case: &FailureCase,
    strategy: &mut dyn Strategy,
    batch: Option<&BatchExplorerConfig>,
    cfg: &ExplorerConfig,
    tracer: &dyn Tracer,
) -> Result<Reproduction, CliError> {
    let PreparedCase { gt, ctx, .. } = prepare(case, tracer)?;
    eprintln!(
        "{}: {} observables, {} candidate units, causal graph {}v/{}e",
        case.id,
        ctx.observables.len(),
        ctx.units.len(),
        ctx.graph.node_count(),
        ctx.graph.edge_count()
    );
    let gt_site = Some(gt.site);
    let oracle = &case.oracle;
    match batch {
        None => explore_traced(&ctx, oracle, strategy, cfg, gt_site, tracer),
        Some(batch) => explore_batched_traced(&ctx, oracle, strategy, cfg, batch, gt_site, tracer),
    }
    .map_err(|e| Failed(format!("{}: exploration: {e}", case.id)))
}

fn reproduce(args: &[String]) -> Result<ExitCode, CliError> {
    let case = resolve_case(args.get(1))?;
    let mut strategy_name = "full".to_string();
    let mut cfg = ExplorerConfig {
        max_rounds: 2_000,
        ..ExplorerConfig::default()
    };
    let mut emit_script: Option<String> = None;
    let mut threads = 1usize;
    let mut batch_size: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--strategy" => strategy_name = flag(args, &mut i)?,
            "--max-rounds" => cfg.max_rounds = flag(args, &mut i)?,
            "--emit-script" => emit_script = Some(flag(args, &mut i)?),
            "--threads" => threads = flag(args, &mut i)?,
            "--batch" => batch_size = Some(flag(args, &mut i)?),
            "--trace" => trace_path = Some(flag(args, &mut i)?),
            _ => return Err(Usage),
        }
    }
    // Resolved before anything is written. The batched explorer
    // speculates on copies of the priority model: without one it would run
    // every round inline and the flags would buy nothing.
    let mut strategy = by_name(&strategy_name).ok_or(Usage)?;
    let batch = (threads > 1 || batch_size.is_some()).then(|| BatchExplorerConfig {
        batch_size: batch_size.unwrap_or(BatchExplorerConfig::default().batch_size),
        threads,
    });
    if batch.is_some() && strategy.model().is_none() {
        return Err(BadArg(
            "--threads/--batch require a feedback-strategy variant".into(),
        ));
    }

    let trace = match trace_path {
        Some(path) => {
            let file = FileTracer::create(&path)
                .map_err(|e| Failed(format!("cannot create trace file `{path}`: {e}")))?;
            Some((file, path))
        }
        None => None,
    };
    let tracer: &dyn Tracer = trace.as_ref().map_or(&NoopTracer, |(file, _)| file);
    let searched = search(&case, strategy.as_mut(), batch.as_ref(), &cfg, tracer);
    // The one way out of a traced search, dead or alive: the file ends on
    // a whole line, and says so before the search's own verdict.
    let mut complete = true;
    if let Some((file, path)) = &trace {
        match file.finish() {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("anduril: trace file `{path}` is incomplete: {e}");
                complete = false;
            }
        }
    }
    let r = searched?;
    if !complete {
        return Ok(ExitCode::from(1));
    }

    if !r.success {
        emit(&format!(
            "NOT reproduced within {} rounds with {}\n",
            r.rounds, r.strategy
        ))?;
        return Ok(ExitCode::from(1));
    }
    let mut out = format!(
        "reproduced in {} rounds ({} sim ticks, {:?} wall) with {}\n",
        r.rounds, r.sim_time_total, r.wall, r.strategy
    );
    if let Some(s) = r.script {
        let _ = writeln!(
            out,
            "script: seed {} inject {} at `{}` occurrence {} (replay verified: {})",
            s.seed, s.exc, s.desc, s.occurrence, r.replay_verified
        );
        if let Some(path) = emit_script {
            write_file(&path, s.to_text())?;
            let _ = writeln!(out, "script written to {path}");
        }
    }
    emit(&out)
}

fn trace(args: &[String]) -> Result<ExitCode, CliError> {
    let path = args.get(1).ok_or(Usage)?;
    // Read, parse: only once the mode is known to be one, so a bad flag is
    // a usage error whatever the file holds.
    let events = || -> Result<Vec<TraceEvent>, CliError> {
        let text = read_file(path)?;
        let (events, cut) = read_stream(&text).map_err(|e| Failed(format!("{path}:{e}")))?;
        if let Some(line) = cut {
            eprintln!(
                "anduril: {path}:{line}: final line is cut short (the search died \
                 mid-write); dropped, {} events kept",
                events.len()
            );
        }
        if events.is_empty() {
            return Err(Failed(format!("`{path}` contains no trace events")));
        }
        Ok(events)
    };
    let mode: Vec<&str> = args[2..].iter().map(String::as_str).collect();
    emit(&match mode[..] {
        [] | ["--summary"] => report::summary(path, &events()?),
        ["--round", n] => {
            let n = n.parse().map_err(|_| Usage)?;
            report::round(&events()?, n).map_err(|e| Failed(e.to_string()))?
        }
        ["--promotions"] => report::promotions(&events()?),
        ["--json"] => report::json(&events()?),
        _ => return Err(Usage),
    })
}

fn explain(args: &[String]) -> Result<ExitCode, CliError> {
    let case = resolve_case(args.get(1))?;
    let ctx = prepare(&case, &NoopTracer)?.ctx;
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    s.init(&ctx);
    let _ = s.plan_injection(&ctx, 0);
    let mut out = format!(
        "{}: initial priority breakdown (F_i = L + I via argmin observable k*)\n\
         {:32} {:>5} {:>4} {:>5} {:>5} {:>10} {:>6}\n",
        case.id, "site", "F_i", "k*", "L", "I_k", "best occ", "T"
    );
    let mut explanations: Vec<_> = ctx
        .units
        .iter()
        .filter_map(|&u| s.explain_unit(&ctx, u))
        .collect();
    sort_explanations(&mut explanations);
    for ex in explanations {
        let (occ, t) = ex
            .best_instance
            .map(|(o, t)| (format!("{o:?}"), format!("{t:.1}")))
            .unwrap_or(("-".into(), "-".into()));
        let _ = writeln!(
            out,
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
    emit(&out)
}

fn generate(args: &[String]) -> Result<ExitCode, CliError> {
    let mut cfg = GenConfig {
        seed: 1,
        size: SizeClass::Small,
        multi_fault: false,
    };
    let mut count = 10usize;
    let mut reproduce = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => cfg.seed = flag(args, &mut i)?,
            "--count" => count = flag(args, &mut i)?,
            "--size" => cfg.size = SizeClass::parse(&flag::<String>(args, &mut i)?).ok_or(Usage)?,
            "--multi-fault" => {
                cfg.multi_fault = true;
                i += 1;
            }
            "--reproduce" => {
                reproduce = true;
                i += 1;
            }
            _ => return Err(Usage),
        }
    }
    let mut out = format!(
        "{:8} {:>5} {:>5} {:>5} {:>6} {:24} {:7} sound\n",
        "id", "nodes", "funcs", "sites", "stmts", "planted", "seed"
    );
    for idx in 0..count {
        let gc = generate_one(&cfg, idx).map_err(|e| Failed(format!("case {idx}: {e}")))?;
        let planted = gc
            .plant
            .iter()
            .map(|f| {
                let desc = &gc.case.scenario.program.sites[f.site.index()].desc;
                format!("{desc}@{}", f.occurrence)
            })
            .collect::<Vec<_>>()
            .join(" + ");
        // The context soundness was checked on is the one searched below;
        // an unsound case has its reason in the table and no search.
        let ctx = verify_sound(&gc);
        let sound = match &ctx {
            Ok(_) => "yes".to_string(),
            Err(e) => format!("NO ({e})"),
        };
        let _ = writeln!(
            out,
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
        if let (true, Ok(ctx)) = (reproduce && !gc.is_multi_fault(), ctx) {
            let id = gc.case.id;
            let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
            let cfg = ExplorerConfig::default();
            let repro = explore(&ctx, &gc.case.oracle, &mut strategy, &cfg, None)
                .map_err(|e| Failed(format!("{id}: explore: {e}")))?;
            let _ = writeln!(
                out,
                "         rediscovered = {} in {} rounds",
                repro.success, repro.rounds
            );
        }
    }
    emit(&out)
}

fn replay(args: &[String]) -> Result<ExitCode, CliError> {
    let case = resolve_case(args.get(1))?;
    let path = args.get(2).ok_or(Usage)?;
    let script = anduril::ReproScript::parse(&read_file(path)?)
        .ok_or_else(|| Failed(format!("malformed script `{path}`")))?;
    // Refuse what no search emits: a site the program lacks (the run would
    // be fault-free) or an exception the site does not declare.
    let sites = &case.scenario.program.sites;
    if !(sites.get(script.site.index())).is_some_and(|s| s.exceptions.contains(&script.exc)) {
        return Err(Failed(format!(
            "script `{path}`: {} has no site {} that throws {}",
            case.id, script.site.0, script.exc
        )));
    }
    let r = script
        .replay(&case.scenario)
        .map_err(|e| Failed(format!("replay failed: {e}")))?;
    emit(&format!(
        "replayed {}: oracle satisfied = {}\n",
        case.id,
        case.oracle.check(&r)
    ))
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("show") => show(args),
        Some("log") => log(args),
        Some("analyze") => analyze(args),
        Some("reproduce") => reproduce(args),
        Some("trace") => trace(args),
        Some("explain") => explain(args),
        Some("generate") => generate(args),
        Some("replay") => replay(args),
        _ => Err(Usage),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Usage) => {
            print_usage();
            ExitCode::from(2)
        }
        Err(BadArg(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        // Every runtime failure (missing file, simulator error) leaves
        // here, so no subcommand can fail with exit 0.
        Err(Failed(msg)) => {
            eprintln!("anduril: {msg}");
            ExitCode::from(1)
        }
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
