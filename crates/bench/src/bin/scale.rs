//! Scale stress: selected failures with 10-15x workloads, pushing dynamic
//! instance counts toward the paper's regime (its motivating example has
//! 1K+ instances of the root-cause site, only ~2 satisfying the oracle).
//! At this scale the gap between feedback-driven search and the
//! coverage-oriented strategies becomes the paper's headline gap.

use anduril_bench::TextTable;
use anduril_core::{
    explore, explore_batched, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, NoopTracer,
};
use anduril_failures::{case_by_id, NodeArgs};
use anduril_sim::InjectionPlan;

/// The scaled workloads: per case, the node arguments that grow.
const SCALED: [(&str, &[NodeArgs<'static>]); 3] = [
    ("f17", &[("client", &[900]), ("rs1", &[40, 0, 1_500])]),
    ("f1", &[("client", &[150])]),
    ("f16", &[("client", &[60])]),
];

fn main() {
    let mut t = TextTable::new(&[
        "Case",
        "Dyn. instances",
        "Root instances",
        "Satisfying",
        "full-feedback",
        "exhaustive",
        "fate",
    ]);
    let mut scale_t = TextTable::new(&[
        "Case",
        "sequential",
        "batched x1",
        "batched x2",
        "batched x4",
        "batched x8",
        "speedup x4",
    ]);
    for (id, args) in SCALED {
        let case = case_by_id(id)
            .expect("case")
            .with_workload(args, Some(90_000))
            .expect("workload nodes");
        // The scaled workload is a case of its own: another ground truth,
        // another failure log.
        let prepared = case.prepare(1_000, &NoopTracer).expect("scaled case");
        let (gt, ctx) = (&prepared.gt, &prepared.ctx);
        let normal = case
            .scenario
            .run(case.failure_seed, InjectionPlan::none())
            .expect("normal run");
        let root_instances = normal.site_occurrences[gt.site.index()];
        let total: u32 = normal.site_occurrences.iter().sum();
        // How selective is the oracle over the root site's occurrences?
        let mut satisfying = 0;
        for occ in 0..root_instances {
            let r = case
                .scenario
                .run(
                    case.failure_seed,
                    InjectionPlan::exact(gt.site, occ, gt.exc),
                )
                .expect("run");
            if r.injected.is_some() && case.oracle.check(&r) {
                satisfying += 1;
            }
        }
        let cfg = ExplorerConfig {
            max_rounds: 4_000,
            ..ExplorerConfig::default()
        };
        let mut cells = Vec::new();
        for name in ["full-feedback", "exhaustive", "fate"] {
            let mut s = anduril_baselines::by_name(name).expect("registered");
            let r = explore(ctx, &case.oracle, s.as_mut(), &cfg, Some(gt.site)).expect("explore");
            cells.push(if r.success {
                format!("{} rnd / {}ms", r.rounds, r.wall.as_millis())
            } else {
                "-".to_string()
            });
        }
        t.row(vec![
            id.to_string(),
            total.to_string(),
            root_instances.to_string(),
            satisfying.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);

        // Thread scaling of the batched explorer against the sequential
        // baseline. Results are identical by construction; only the wall
        // time moves.
        let mut seq = FeedbackStrategy::new(FeedbackConfig::full());
        let seq_r = explore(ctx, &case.oracle, &mut seq, &cfg, Some(gt.site)).expect("explore");
        let mut scale_cells = vec![
            id.to_string(),
            format!("{} rnd / {}ms", seq_r.rounds, seq_r.wall.as_millis()),
        ];
        let mut wall_x4 = None;
        for threads in [1usize, 2, 4, 8] {
            let batch = BatchExplorerConfig {
                batch_size: 8,
                threads,
            };
            let mut s = FeedbackStrategy::new(FeedbackConfig::full());
            let r = explore_batched(ctx, &case.oracle, &mut s, &cfg, &batch, Some(gt.site))
                .expect("explore_batched");
            assert_eq!(r.rounds, seq_r.rounds, "batched diverged from sequential");
            assert_eq!(
                r.script.as_ref().map(|s| s.to_text()),
                seq_r.script.as_ref().map(|s| s.to_text()),
                "batched script diverged from sequential"
            );
            if threads == 4 {
                wall_x4 = Some(r.wall);
            }
            scale_cells.push(format!("{}ms", r.wall.as_millis()));
        }
        scale_cells.push(match wall_x4 {
            Some(w4) if !w4.is_zero() => {
                format!("{:.2}x", seq_r.wall.as_secs_f64() / w4.as_secs_f64())
            }
            _ => "-".to_string(),
        });
        scale_t.row(scale_cells);
        eprintln!("done: {id}");
    }
    println!("Scale stress: 10-15x workloads (round cap 4000)\n");
    println!("{}", t.render());
    println!("\nBatched-explorer thread scaling (batch 8, identical results asserted)\n");
    println!("{}", scale_t.render());
}
