//! The four workloads: which failures are reproduced, with which strategy,
//! under which search seeds.
//!
//! A workload is a fixed list of *operations* (one failure, one strategy)
//! and a count of *campaigns*. A campaign reproduces every operation once
//! under one search seed; the seeds of a run are derived from `--seed`.
//! The programs and failure logs are the same for every seed — the paper's
//! tickets are a fixed set, and a generated corpus of 42 programs differs
//! from the next one by about a fifth in cost, which no bound could hide —
//! so `--seed` moves only what a user cannot choose either: the
//! nondeterminism of every run the search makes.

use std::time::Instant;

use anduril_core::{FeedbackConfig, Oracle, Scenario};
use anduril_failures::{all_cases, case_by_id, FailureCase};
use anduril_gen::{generate_one, GenConfig, SizeClass};
use anduril_ir::{SiteId, Value};

/// The budget the campaign counts below are sized for, in seconds.
pub const NOMINAL_SECONDS: u64 = 15;

/// Repetitions of a `--smoke` run, which checks results, not speed.
pub const SMOKE_REPETITIONS: usize = 2;

/// `explore_batched` geometry for `scaled-batch` (`--bin scale`'s batch
/// size; two workers because the reference box has two cores).
pub const BATCH_SIZE: usize = 8;
/// See [`BATCH_SIZE`].
pub const BATCH_THREADS: usize = 2;

/// Master seed of the generated corpus.
const CORPUS_SEED: u64 = 0xA11D;

/// One workload's fixed parameters.
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (mirrors `BENCHMARK.json`).
    pub why: &'static str,
    /// Round cap of every search.
    pub max_rounds: usize,
    /// Search through `explore_batched` instead of `explore`.
    pub batched: bool,
    /// Distinct search seeds per repetition at [`NOMINAL_SECONDS`].
    pub campaigns: usize,
    /// Timed passes over the whole campaign list. Every campaign is timed
    /// this often, seconds apart, and the median of its calibrated timings
    /// is kept (see `calibrate`).
    pub repetitions: usize,
    /// Campaigns of a `--smoke` run.
    pub smoke_campaigns: usize,
    /// Yardstick kernel calls before each campaign: about a tenth of the
    /// campaign's own time on both sides together.
    pub yardstick_calls: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tickets22",
        why: "the paper's 22 tickets under full feedback: short searches, preparation and static analysis weigh most",
        // The paper's user limit. Across 56 000 searches the longest took
        // 249 rounds, so a cap of 300 would fail some seed sooner or later.
        max_rounds: 2_000,
        batched: false,
        campaigns: 115,
        repetitions: 4,
        smoke_campaigns: 3,
        yardstick_calls: 1,
    },
    Spec {
        name: "scaled-seq",
        why: "three tickets at 5-15x load, full feedback and exhaustive, sequential: 300-round searches, the round loop is everything",
        max_rounds: 4_000,
        batched: false,
        campaigns: 8,
        repetitions: 4,
        smoke_campaigns: 1,
        yardstick_calls: 14,
    },
    Spec {
        name: "scaled-batch",
        why: "the same six searches through explore_batched (batch 8, 2 threads): speculation, snapshots and thread hand-off",
        max_rounds: 4_000,
        batched: true,
        campaigns: 8,
        repetitions: 4,
        smoke_campaigns: 1,
        yardstick_calls: 14,
    },
    Spec {
        name: "gen-corpus",
        why: "42 generated programs up to 10x the hand-written ones: long logs, 1-9 round searches, log work outweighs analysis",
        max_rounds: 800,
        batched: false,
        campaigns: 12,
        repetitions: 4,
        smoke_campaigns: 1,
        yardstick_calls: 6,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Campaigns per repetition for a `--seconds` budget: the work is a
    /// function of the arguments, never of how fast the machine is, so the
    /// same arguments always search the same seeds.
    pub fn campaigns_for(&self, seconds: u64, smoke: bool) -> usize {
        if smoke {
            return self.smoke_campaigns;
        }
        let scaled = (self.campaigns as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        scaled.max(1) as usize
    }
}

/// One operation: reproduce `scenario`'s failure from `failure_log` with
/// one strategy.
#[derive(Clone)]
pub struct Op {
    /// `<case>/<strategy>`.
    pub name: String,
    pub scenario: Scenario,
    pub failure_log: String,
    pub oracle: Oracle,
    pub feedback: FeedbackConfig,
    /// The planted root-cause site of a generated case; the emitted script
    /// must name it.
    pub planted: Option<SiteId>,
}

/// What building the inputs did, for the `gen` and `failures` layers.
#[derive(Default, Clone, Copy)]
pub struct SetupStats {
    pub generate_s: f64,
    pub gen_stmts: u64,
    pub failure_log_s: f64,
}

/// The search seed of campaign `index`. Campaign 0 searches under `--seed`
/// itself, so a one-campaign run is exactly `anduril reproduce` with that
/// base seed; later campaigns draw from a SplitMix64 stream, kept below
/// 2^40 so `base_seed + 1 + round` cannot overflow.
pub fn campaign_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 24
}

/// `--bin scale`'s scaled-up f17, f1 and f16, except that f17's client
/// makes 300 requests, not 900: its exhaustive search then takes 300 rounds
/// and a third of a second instead of 900 rounds and 2.3 s. A search that
/// long is timed too few times in a run, and the machine's speed changes
/// under it where no yardstick call can see (see `calibrate`).
pub fn scaled_case(id: &str) -> Result<FailureCase, String> {
    let mut case = case_by_id(id).ok_or_else(|| format!("no case {id}"))?;
    let (client_ops, rs1): (i64, Option<[i64; 3]>) = match id {
        "f17" => (300, Some([40, 0, 1_500])),
        "f1" => (150, None),
        "f16" => (60, None),
        _ => return Err(format!("no scaled configuration for {id}")),
    };
    for node in &mut case.scenario.topology.nodes {
        match (node.name.as_str(), rs1) {
            ("client", _) => node.args = vec![Value::Int(client_ops)],
            ("rs1", Some(args)) => node.args = args.iter().map(|&a| Value::Int(a)).collect(),
            _ => {}
        }
    }
    case.scenario.config.max_time = 90_000;
    Ok(case)
}

fn op_from_case(
    case: &FailureCase,
    feedback: FeedbackConfig,
    stats: &mut SetupStats,
) -> Result<Op, String> {
    let started = Instant::now();
    let failure_log = case
        .failure_log()
        .map_err(|e| format!("{}: failure log: {e}", case.id))?;
    stats.failure_log_s += started.elapsed().as_secs_f64();
    Ok(Op {
        name: format!("{}/{}", case.id, feedback.name),
        scenario: case.scenario.clone(),
        failure_log,
        oracle: case.oracle.clone(),
        feedback,
        planted: None,
    })
}

fn scaled_ops(stats: &mut SetupStats) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for id in ["f17", "f1", "f16"] {
        let case = scaled_case(id)?;
        let full = op_from_case(&case, FeedbackConfig::full(), stats)?;
        let exhaustive = Op {
            name: format!("{id}/exhaustive"),
            feedback: FeedbackConfig::exhaustive(),
            ..full.clone()
        };
        ops.push(full);
        ops.push(exhaustive);
    }
    Ok(ops)
}

fn corpus_ops(smoke: bool, stats: &mut SetupStats) -> Result<Vec<Op>, String> {
    let classes = if smoke {
        [
            (SizeClass::Small, 6),
            (SizeClass::Medium, 3),
            (SizeClass::Large, 1),
        ]
    } else {
        [
            (SizeClass::Small, 24),
            (SizeClass::Medium, 12),
            (SizeClass::Large, 6),
        ]
    };
    let mut ops = Vec::new();
    for (size, count) in classes {
        let cfg = GenConfig {
            seed: CORPUS_SEED,
            size,
            multi_fault: false,
        };
        for index in 0..count {
            let started = Instant::now();
            let gc = generate_one(&cfg, index).map_err(|e| format!("{size} {index}: {e}"))?;
            stats.generate_s += started.elapsed().as_secs_f64();
            stats.gen_stmts += gc.stmts as u64;
            ops.push(Op {
                name: format!("{size}-{index:02}/full-feedback"),
                scenario: gc.case.scenario,
                failure_log: gc.failure_log,
                oracle: gc.case.oracle,
                feedback: FeedbackConfig::full(),
                planted: Some(gc.plant[0].site),
            });
        }
    }
    Ok(ops)
}

/// Builds a workload's operations. This is what `setup_s` times.
pub fn build_ops(spec: &Spec, smoke: bool) -> Result<(Vec<Op>, SetupStats), String> {
    let mut stats = SetupStats::default();
    let ops = match spec.name {
        "tickets22" => all_cases()
            .iter()
            .map(|case| op_from_case(case, FeedbackConfig::full(), &mut stats))
            .collect::<Result<Vec<_>, _>>()?,
        "scaled-seq" | "scaled-batch" => scaled_ops(&mut stats)?,
        "gen-corpus" => corpus_ops(smoke, &mut stats)?,
        other => return Err(format!("unknown workload {other}")),
    };
    Ok((ops, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Building a workload twice gives the same operations, and the seeds
    /// of a run depend on `--seed` and nothing else.
    #[test]
    fn workloads_are_a_pure_function_of_their_arguments() {
        for spec in &SPECS {
            let (a, stats_a) = build_ops(spec, true).expect("ops");
            let (b, stats_b) = build_ops(spec, true).expect("ops");
            assert_eq!(a.len(), b.len());
            assert_eq!(stats_a.gen_stmts, stats_b.gen_stmts);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.failure_log, y.failure_log);
                assert_eq!(x.planted, y.planted);
                assert_eq!(x.oracle, y.oracle);
            }
        }
        let seeds = |seed| (0..64).map(|i| campaign_seed(seed, i)).collect::<Vec<_>>();
        assert_eq!(seeds(1_000), seeds(1_000));
        assert_eq!(campaign_seed(1_000, 0), 1_000);
        assert!(seeds(1_000).iter().all(|&s| s < 1 << 40));
        let mut distinct = seeds(1_000);
        distinct.extend(seeds(1_001));
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 128);
    }

    #[test]
    fn workload_sizes_are_as_documented() {
        let sizes: Vec<usize> = SPECS
            .iter()
            .map(|s| build_ops(s, false).expect("ops").0.len())
            .collect();
        assert_eq!(sizes, [22, 6, 6, 42]);
        assert_eq!(
            spec("tickets22")
                .expect("workload")
                .campaigns_for(30, false),
            230
        );
        assert_eq!(
            spec("scaled-seq")
                .expect("workload")
                .campaigns_for(1, false),
            1
        );
    }
}
