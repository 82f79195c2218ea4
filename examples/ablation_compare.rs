//! Compare ANDURIL's full feedback against its ablation variants and the
//! external comparators on one failure (§8.3 / §8.4 in miniature).
//!
//! Run with `cargo run --example ablation_compare [case-id]`.

use anduril::baselines::table2_strategies;
use anduril::failures::{case_by_id, PreparedCase};
use anduril::{explore, ExplorerConfig, NoopTracer};

fn main() {
    let id = std::env::args().nth(1).unwrap_or_else(|| "f16".to_string());
    let case = case_by_id(&id).expect("known case id (f1..f22 or ticket)");
    println!("{} — {}\n", case.ticket, case.description);

    let PreparedCase { gt, ctx, .. } = case.prepare(1_000, &NoopTracer).expect("case prepares");
    let cfg = ExplorerConfig {
        max_rounds: 400,
        ..ExplorerConfig::default()
    };

    println!(
        "{:24} {:>8} {:>10} {:>10}",
        "strategy", "rounds", "sim-ticks", "wall-ms"
    );
    for (_, _, make) in table2_strategies() {
        let mut strategy = make();
        let r = explore(&ctx, &case.oracle, strategy.as_mut(), &cfg, Some(gt.site))
            .expect("exploration runs");
        let name = strategy.name();
        if r.success {
            println!(
                "{:24} {:>8} {:>10} {:>10}",
                name,
                r.rounds,
                r.sim_time_total,
                r.wall.as_millis()
            );
        } else {
            println!("{:24} {:>8} {:>10} {:>10}", name, "-", "-", "-");
        }
    }
}
