//! Generator benchmark: rediscovery of planted ground truth on random
//! scenarios the search was never tuned for.
//!
//! The 22 hand-written cases risk overfitting: every heuristic weight
//! was validated against them. This bench generates batches of random
//! programs with planted faults (`anduril-gen`), then measures whether
//! the feedback-driven explorer *rediscovers* each plant — the oracle is
//! satisfiable only through the planted site by construction, so success
//! is exact — and how rounds-to-reproduce scale with program size.
//! Random (FATE) and stacktrace-injection baselines run on a subset for
//! comparison. Multi-fault cascades are generated and verified sound,
//! and the single-injection explorer's (expected near-zero) rediscovery
//! rate on them is reported without a bar.
//!
//! Every per-case pipeline runs under `catch_unwind`; the summary's
//! `panics` count must be zero. Emits `BENCH_generator.json`; `--smoke`
//! runs the CI-sized batch (100 single-fault + 20 multi-fault small
//! cases), `--out PATH` overrides the output path.

use std::panic::{catch_unwind, AssertUnwindSafe};

use anduril_bench::{median, TextTable};
use anduril_core::{
    explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Json, SearchContext, Strategy,
};
use anduril_gen::{generate_one, verify_sound, GenConfig, GeneratedCase, SizeClass};

/// One generated case's measurements.
struct Row {
    id: String,
    size: SizeClass,
    multi_fault: bool,
    nodes: usize,
    sites: usize,
    stmts: usize,
    sound: bool,
    rediscovered: bool,
    rounds: usize,
}

/// Runs one strategy on a generated case, on the context `verify_sound`
/// prepared for it: `(rediscovered, rounds)`.
fn search(
    gc: &GeneratedCase,
    ctx: &SearchContext,
    strategy: &mut dyn Strategy,
    max_rounds: usize,
) -> (bool, usize) {
    let cfg = ExplorerConfig {
        max_rounds,
        ..ExplorerConfig::default()
    };
    let gt_site = (!gc.is_multi_fault()).then(|| gc.plant[0].site);
    let r = explore(ctx, &gc.case.oracle, strategy, &cfg, gt_site)
        .unwrap_or_else(|e| panic!("{}: explore: {e:?}", gc.case.id));
    (r.success, r.rounds)
}

/// Generates + verifies + explores one case, trapping panics: its row
/// under the feedback strategy and what each of `baselines` does on the
/// same prepared context (searches sharing a context do not disturb each
/// other — `tests/context_reuse.rs`).
fn run_case(
    cfg: &GenConfig,
    index: usize,
    max_rounds: usize,
    baselines: &[&str],
) -> Result<(Row, Vec<(bool, usize)>), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut row = Row {
            id: format!("gen-{index:04}"),
            size: cfg.size,
            multi_fault: cfg.multi_fault,
            nodes: 0,
            sites: 0,
            stmts: 0,
            sound: false,
            rediscovered: false,
            rounds: 0,
        };
        // A generation failure counts as an unsound case, not a panic, and
        // an unsound case has no context to search.
        let gc = match generate_one(cfg, index) {
            Ok(gc) => gc,
            Err(e) => {
                eprintln!("{}: generation failed: {e}", row.id);
                return (row, Vec::new());
            }
        };
        (row.nodes, row.sites, row.stmts) = (gc.nodes, gc.sites, gc.stmts);
        let ctx = match verify_sound(&gc) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("{}: unsound: {e}", row.id);
                return (row, Vec::new());
            }
        };
        row.sound = true;
        let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
        (row.rediscovered, row.rounds) = search(&gc, &ctx, &mut strategy, max_rounds);
        let baselines = baselines
            .iter()
            .map(|name| {
                let mut strategy = anduril_baselines::by_name(name).expect("registered");
                search(&gc, &ctx, strategy.as_mut(), max_rounds)
            })
            .collect();
        (row, baselines)
    }))
    .map_err(|_| format!("gen-{index:04} panicked"))
}

/// Success-rate and median-rounds aggregate for a strategy on a batch.
struct Aggregate {
    cases: usize,
    rediscovered: usize,
    median_rounds: u64,
}

/// Aggregates `(rediscovered, rounds)` outcomes.
fn aggregate(outcomes: impl Iterator<Item = (bool, usize)>) -> Aggregate {
    let mut cases = 0;
    let mut succeeded: Vec<u64> = Vec::new();
    for (rediscovered, rounds) in outcomes {
        cases += 1;
        if rediscovered {
            succeeded.push(rounds as u64);
        }
    }
    Aggregate {
        cases,
        rediscovered: succeeded.len(),
        median_rounds: median(&mut succeeded),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_generator.json".to_string());
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA11D_u64);
    let max_rounds = if smoke { 400 } else { 800 };

    // Batch plan: `(size, multi_fault, count)`. The smoke batch is the CI
    // gate — at least 100 single-fault cases so the rediscovery bar is
    // statistically meaningful — and stays all-small for wall time.
    let batches: &[(SizeClass, bool, usize)] = if smoke {
        &[(SizeClass::Small, false, 100), (SizeClass::Small, true, 20)]
    } else {
        &[
            (SizeClass::Small, false, 120),
            (SizeClass::Medium, false, 60),
            (SizeClass::Large, false, 24),
            (SizeClass::Small, true, 30),
            (SizeClass::Medium, true, 12),
        ]
    };

    // Baselines — random search (FATE) and stacktrace injection — run on
    // the head of the small single-fault batch, each case's three searches
    // on its one context.
    const BASELINES: [&str; 2] = ["fate", "stacktrace"];
    let baseline_n = if smoke { 20 } else { 40 };
    let mut baseline_outcomes: [Vec<(bool, usize)>; 2] = Default::default();

    let mut rows: Vec<Row> = Vec::new();
    let mut panics = 0usize;
    for &(size, multi_fault, count) in batches {
        let cfg = GenConfig {
            seed,
            size,
            multi_fault,
        };
        for i in 0..count {
            let with_baselines = size == SizeClass::Small && !multi_fault && i < baseline_n;
            let baselines: &[&str] = if with_baselines { &BASELINES } else { &[] };
            match run_case(&cfg, i, max_rounds, baselines) {
                Ok((row, outcomes)) => {
                    rows.push(row);
                    for (all, one) in baseline_outcomes.iter_mut().zip(outcomes) {
                        all.push(one);
                    }
                }
                Err(msg) => {
                    eprintln!("PANIC: {msg}");
                    panics += 1;
                }
            }
        }
    }
    let baseline_aggs: Vec<(&str, Aggregate)> = BASELINES
        .into_iter()
        .zip(baseline_outcomes)
        .map(|(name, outcomes)| (name, aggregate(outcomes.into_iter())))
        .collect();

    let single: Vec<&Row> = rows.iter().filter(|r| !r.multi_fault).collect();
    let multi: Vec<&Row> = rows.iter().filter(|r| r.multi_fault).collect();
    let unsound = rows.iter().filter(|r| !r.sound).count();
    let outcome = |r: &&Row| (r.rediscovered, r.rounds);
    let single_agg = aggregate(single.iter().map(outcome));
    let multi_agg = aggregate(multi.iter().map(outcome));
    let rate = if single_agg.cases > 0 {
        single_agg.rediscovered as f64 / single_agg.cases as f64
    } else {
        0.0
    };
    let multi_rate = if multi_agg.cases > 0 {
        multi_agg.rediscovered as f64 / multi_agg.cases as f64
    } else {
        0.0
    };
    let meets_bar = single_agg.cases >= 100 && rate >= 0.9;

    // Rounds-to-reproduce vs program size (single-fault, feedback).
    let mut t = TextTable::new(&["Size", "Cases", "Rediscovered", "MedRounds", "MedStmts"]);
    for size in [SizeClass::Small, SizeClass::Medium, SizeClass::Large] {
        let bucket: Vec<&Row> = single.iter().filter(|r| r.size == size).copied().collect();
        if bucket.is_empty() {
            continue;
        }
        let agg = aggregate(bucket.iter().map(outcome));
        let mut stmts: Vec<u64> = bucket.iter().map(|r| r.stmts as u64).collect();
        t.row(vec![
            size.to_string(),
            agg.cases.to_string(),
            agg.rediscovered.to_string(),
            agg.median_rounds.to_string(),
            median(&mut stmts).to_string(),
        ]);
    }
    println!(
        "Planted ground-truth rediscovery on generated scenarios \
         (feedback strategy, max {max_rounds} rounds, seed {seed:#x})"
    );
    print!("{}", t.render());
    println!(
        "single-fault: {}/{} rediscovered ({:.1}%); multi-fault: {}/{} ({:.1}%); \
         {} unsound; {} panics",
        single_agg.rediscovered,
        single_agg.cases,
        rate * 100.0,
        multi_agg.rediscovered,
        multi_agg.cases,
        multi_rate * 100.0,
        unsound,
        panics
    );
    for (name, agg) in &baseline_aggs {
        println!(
            "baseline {name}: {}/{} rediscovered, median rounds {}",
            agg.rediscovered, agg.cases, agg.median_rounds
        );
    }

    let cases = rows.iter().map(|r| {
        Json::obj([
            ("id", r.id.as_str().into()),
            ("size", r.size.to_string().into()),
            ("multi_fault", r.multi_fault.into()),
            ("nodes", r.nodes.into()),
            ("sites", r.sites.into()),
            ("stmts", r.stmts.into()),
            ("sound", r.sound.into()),
            ("rediscovered", r.rediscovered.into()),
            ("rounds", r.rounds.into()),
        ])
    });
    let baselines = baseline_aggs.iter().map(|(name, agg)| {
        let agg = Json::obj([
            ("cases", agg.cases.into()),
            ("rediscovered", agg.rediscovered.into()),
            ("median_rounds", agg.median_rounds.into()),
        ]);
        (*name, agg)
    });
    let json = Json::obj([
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("seed", seed.into()),
        ("max_rounds", max_rounds.into()),
        ("cases", Json::arr(cases)),
        ("baselines", Json::obj(baselines)),
        (
            "summary",
            Json::obj([
                ("single_fault_cases", single_agg.cases.into()),
                ("single_fault_rediscovered", single_agg.rediscovered.into()),
                ("rediscovery_rate", Json::fixed(rate, 4)),
                ("median_rounds", single_agg.median_rounds.into()),
                ("multi_fault_cases", multi_agg.cases.into()),
                ("multi_fault_rediscovered", multi_agg.rediscovered.into()),
                ("multi_fault_rediscovery_rate", Json::fixed(multi_rate, 4)),
                ("unsound_cases", unsound.into()),
                ("panics", panics.into()),
                ("meets_rediscovery_bar", meets_bar.into()),
            ]),
        ),
    ]);
    std::fs::write(&out_path, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
