//! Adaptive-vs-fixed ablation: rounds-to-reproduce with the paper's
//! frozen observable set (registry row `full`) against adaptive
//! observable promotion (row `full-adaptive`, `anduril_core::adaptive`),
//! under degraded failure logs.
//!
//! Production failure logs are routinely incomplete — rotation, rate
//! limiting, and buffered appenders drop exactly the bursty messages
//! around a failure. This bench simulates that by stripping the
//! *best-guidance* observable (the failure-only template nearest the
//! fault sites) from each case's failure log before context preparation
//! (`PreparedCase::degraded`), then reproduces each case twice from the
//! degraded context: once with the observable set frozen at preparation
//! (the paper's design) and once with promotion folding causal-graph
//! witnesses into the live search on stall.
//!
//! Emits `BENCH_adaptive.json` (per-case rounds, stall/promotion counts,
//! adaptive/fixed round ratios) and prints a summary table. `--smoke`
//! runs a reduced round budget for CI; `--out PATH` overrides the output
//! path.

use anduril_baselines::by_name;
use anduril_bench::TextTable;
use anduril_core::trace::{Json, NoopTracer, StrategyNote, TraceEvent, VecTracer};
use anduril_core::{explore_traced, ExplorerConfig, Reproduction, SearchContext};
use anduril_failures::all_cases;

struct CaseRun {
    rounds: usize,
    success: bool,
    stalls: usize,
    promotions: usize,
}

/// One search with the registry's strategy `name`.
fn run_one(
    ctx: &SearchContext,
    oracle: &anduril_core::Oracle,
    cfg: &ExplorerConfig,
    name: &str,
) -> CaseRun {
    let tracer = VecTracer::new();
    let mut strategy = by_name(name).expect("registered");
    let r: Reproduction = explore_traced(ctx, oracle, strategy.as_mut(), cfg, None, &tracer)
        .expect("exploration runs do not hit simulator errors");
    let events = tracer.take();
    let notes = || {
        events.iter().filter_map(|e| match e {
            TraceEvent::Note { note, .. } => Some(note),
            _ => None,
        })
    };
    let stalls = notes()
        .filter(|n| matches!(n, StrategyNote::RetryPass { .. }))
        .count();
    let promotions = notes()
        .filter(|n| matches!(n, StrategyNote::ObservablePromoted { .. }))
        .count();
    CaseRun {
        rounds: r.rounds,
        success: r.success,
        stalls,
        promotions,
    }
}

struct Row {
    id: &'static str,
    degraded: bool,
    obs_full: usize,
    obs_degraded: usize,
    fixed: CaseRun,
    adaptive: CaseRun,
}

impl Row {
    fn stalled(&self) -> bool {
        self.fixed.stalls > 0
    }

    fn ratio(&self) -> f64 {
        self.adaptive.rounds as f64 / self.fixed.rounds.max(1) as f64
    }

    fn improved(&self) -> bool {
        self.stalled()
            && (self.adaptive.rounds < self.fixed.rounds
                || (self.adaptive.success && !self.fixed.success))
    }

    fn regressed(&self, tolerance: f64) -> bool {
        (self.fixed.success && !self.adaptive.success)
            || self.adaptive.rounds as f64 > self.fixed.rounds as f64 * tolerance
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
        .unwrap_or_else(|| "BENCH_adaptive.json".to_string());
    let max_rounds = if smoke { 300 } else { 600 };

    let mut rows = Vec::new();
    for case in all_cases() {
        let id = case.id;
        let full = case
            .prepare(1_000, &NoopTracer)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let obs_full = full.ctx.observables.len();

        // Strip the nearest observable's lines when another observable
        // remains to guide the search; single-observable cases keep their
        // log intact (the scenario needs *some* failure-only signal).
        let degraded = obs_full > 1;
        let ctx = if degraded {
            full.degraded()
                .unwrap_or_else(|e| panic!("{id}: degraded context: {e}"))
        } else {
            full.ctx
        };
        let obs_degraded = ctx.observables.len();

        let cfg = ExplorerConfig {
            max_rounds,
            ..ExplorerConfig::default()
        };
        // Both searches share the one prepared context: promotions live
        // in the search that made them.
        let fixed = run_one(&ctx, &case.oracle, &cfg, "full");
        let adaptive = run_one(&ctx, &case.oracle, &cfg, "full-adaptive");

        rows.push(Row {
            id,
            degraded,
            obs_full,
            obs_degraded,
            fixed,
            adaptive,
        });
    }

    let mut t = TextTable::new(&[
        "Case", "Degr", "Obs", "Stalls", "Fixed", "Adaptive", "Promos", "Ratio",
    ]);
    for r in &rows {
        let fmt_run = |c: &CaseRun| {
            if c.success {
                format!("{}", c.rounds)
            } else {
                format!("-({})", c.rounds)
            }
        };
        t.row(vec![
            r.id.to_string(),
            if r.degraded { "yes" } else { "no" }.to_string(),
            format!("{}->{}", r.obs_full, r.obs_degraded),
            r.fixed.stalls.to_string(),
            fmt_run(&r.fixed),
            fmt_run(&r.adaptive),
            r.adaptive.promotions.to_string(),
            format!("{:.2}", r.ratio()),
        ]);
    }

    let stalled = rows.iter().filter(|r| r.stalled()).count();
    let improved = rows.iter().filter(|r| r.improved()).count();
    let regressions = rows.iter().filter(|r| r.regressed(1.05)).count();

    println!(
        "Adaptive-vs-fixed rounds to reproduce under degraded failure logs \
         (max {max_rounds} rounds; -(N) = not reproduced within N)"
    );
    print!("{}", t.render());
    println!(
        "{stalled} stall-prone cases; adaptive improved {improved}, \
         regressed >1.05x on {regressions}"
    );

    let cases = rows.iter().map(|r| {
        Json::obj([
            ("id", r.id.into()),
            ("degraded", r.degraded.into()),
            ("observables_full", r.obs_full.into()),
            ("observables_degraded", r.obs_degraded.into()),
            ("stalled", r.stalled().into()),
            ("fixed_rounds", r.fixed.rounds.into()),
            ("fixed_success", r.fixed.success.into()),
            ("fixed_stalls", r.fixed.stalls.into()),
            ("adaptive_rounds", r.adaptive.rounds.into()),
            ("adaptive_success", r.adaptive.success.into()),
            ("promotions", r.adaptive.promotions.into()),
            ("ratio", Json::fixed(r.ratio(), 4)),
        ])
    });
    let json = Json::obj([
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("max_rounds", max_rounds.into()),
        ("cases", Json::arr(cases)),
        (
            "summary",
            Json::obj([
                ("stalled_cases", stalled.into()),
                ("improved_stall_cases", improved.into()),
                ("regressions_above_1_05x", regressions.into()),
                ("meets_improvement_bar", (improved >= 2).into()),
            ]),
        ),
    ]);
    std::fs::write(&out_path, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("JSON written to {out_path}");
}
