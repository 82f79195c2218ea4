//! Every metric the bench reports, by name, with its unit and how two runs
//! of it compare. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

/// How `--check` compares a metric between two result files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compare {
    /// Deterministic for equal arguments: any difference is a violation.
    Exact,
    /// Measured: worse by more than this share of the first file's value
    /// is a violation.
    Within(f64),
    /// Derived from two timings or racy by design: printed, never judged.
    Shown,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub compare: Compare,
}

const fn m(name: &'static str, unit: &'static str, compare: Compare) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        compare,
    }
}

const fn higher(name: &'static str, unit: &'static str, compare: Compare) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        compare,
    }
}

/// The bound `--check` puts on a timing and on peak memory.
pub const TIMING_BOUND: f64 = 0.10;
/// Below this many seconds a set-up time is not compared at all.
pub const SETUP_FLOOR_S: f64 = 0.05;

const TIMED: Compare = Compare::Within(TIMING_BOUND);
use Compare::{Exact, Shown};

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s", TIMED),
    m("campaign_wall_s", "s", TIMED),
    m("rounds_total", "rounds", Exact),
    m("sim_ticks_total", "ticks", Exact),
    m("peak_rss_mb", "MiB", TIMED),
];

/// One layer each, from the traced campaigns. Times and counts are per
/// campaign; shares are of the totals. A traced run has no repetitions to
/// tell noise from change, so `--check` judges only the counts.
pub const PER_LAYER: [MetricDef; 48] = [
    m("ir.compile_s", "s", Shown),
    m("ir.code_len", "instr", Exact),
    m("sim.normal_run_s", "s", Shown),
    m("sim.normal_steps", "steps", Exact),
    m("sim.round_s", "s", Shown),
    m("sim.rounds", "rounds", Exact),
    m("sim.steps", "steps", Exact),
    m("sim.ns_per_step", "ns", Shown),
    m("sim.ticks", "ticks", Exact),
    m("sim.replay_s", "s", Shown),
    // Workers race for the cache, so the counters are reported only.
    higher("sim.snapshot.hits", "count", Shown),
    m("sim.snapshot.misses", "count", Shown),
    higher("sim.snapshot.resumed", "count", Shown),
    m("sim.snapshot.stored", "count", Shown),
    m("logdiff.parse_s", "s", Shown),
    m("logdiff.parse_entries", "entries", Exact),
    m("logdiff.prep_diff_s", "s", Shown),
    m("logdiff.align_s", "s", Shown),
    m("logdiff.round_diff_s", "s", Shown),
    m("logdiff.round_entries", "entries", Exact),
    m("logdiff.ns_per_entry", "ns", Shown),
    m("causal.graph_s", "s", Shown),
    m("causal.graph_nodes", "count", Exact),
    m("causal.graph_edges", "count", Exact),
    m("causal.distances_s", "s", Shown),
    m("causal.reach_s", "s", Shown),
    m("causal.bounds_s", "s", Shown),
    m("causal.units", "count", Exact),
    higher("causal.pruned_plan_share", "fraction", Exact),
    m("core.prepare_s", "s", Shown),
    m("core.prepare_self_s", "s", Shown),
    m("core.explore_s", "s", Shown),
    m("core.explore_self_s", "s", Shown),
    m("core.unattributed_share", "fraction", Shown),
    m("core.feedback.init_s", "s", Shown),
    m("core.feedback.plan_s", "s", Shown),
    m("core.feedback.feedback_s", "s", Shown),
    m("core.feedback.explain_s", "s", Shown),
    higher("core.feedback.injected_share", "fraction", Exact),
    m("core.oracle.check_s", "s", Shown),
    m("core.batch.explore_s", "s", Shown),
    m("core.batch.epochs", "count", Exact),
    m("core.batch.spec_jobs", "count", Exact),
    higher("core.batch.spec_hit_share", "fraction", Exact),
    m("core.trace.vec_overhead_share", "fraction", Shown),
    m("gen.generate_s", "s", Shown),
    m("gen.stmts", "count", Exact),
    m("failures.failure_log_s", "s", Shown),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{NOMINAL_SECONDS, SPECS};
    use anduril_core::Json;

    /// `BENCHMARK.json` at the repository root and the tables in this
    /// directory name the same workloads and the same metrics, with the
    /// same units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            match std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                Ok(text) => break text,
                Err(_) => assert!(dir.pop(), "no BENCHMARK.json above the manifest"),
            }
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("list").to_vec();
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .expect("string")
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(NOMINAL_SECONDS)
        );

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
                .collect();
            let defined: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, defined, "{key}");
        }
    }
}
