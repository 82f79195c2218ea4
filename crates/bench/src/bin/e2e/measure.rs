//! The end-to-end run: campaigns timed with tracing off, every result
//! checked.

use std::time::Instant;

use anduril_core::{
    explore, explore_batched, BatchExplorerConfig, ExplorerConfig, FeedbackStrategy, ReproScript,
    Reproduction, SearchContext,
};
use anduril_sim::SimError;

use crate::calibrate::Yardstick;
use crate::workloads::{campaign_seed, Op, Spec, BATCH_SIZE, BATCH_THREADS};

/// Worker threads `scaled-batch` uses: [`BATCH_THREADS`], or fewer on a
/// smaller machine. Results do not depend on it, only wall time.
pub fn batch_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    BATCH_THREADS.min(cores)
}

pub fn batch_config() -> BatchExplorerConfig {
    BatchExplorerConfig {
        batch_size: BATCH_SIZE,
        threads: batch_threads(),
    }
}

pub fn explorer_config(spec: &Spec, seed: u64) -> ExplorerConfig {
    ExplorerConfig {
        max_rounds: spec.max_rounds,
        base_seed: seed,
        ..ExplorerConfig::default()
    }
}

/// The search half of an operation, on a context prepared for `seed`.
pub fn explore_op(
    ctx: &SearchContext,
    op: &Op,
    spec: &Spec,
    seed: u64,
    batched: bool,
) -> Result<Reproduction, SimError> {
    let mut strategy = FeedbackStrategy::new(op.feedback.clone());
    let cfg = explorer_config(spec, seed);
    if batched {
        let batch = batch_config();
        explore_batched(ctx, &op.oracle, &mut strategy, &cfg, &batch, None)
    } else {
        explore(ctx, &op.oracle, &mut strategy, &cfg, None)
    }
}

/// What one operation returned, as far as two runs of it must agree.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub rounds: usize,
    pub sim_ticks: u64,
    pub success: bool,
    pub replay_verified: bool,
    pub script: Option<ReproScript>,
}

impl Outcome {
    pub fn of(repro: &Reproduction) -> Outcome {
        Outcome {
            rounds: repro.rounds,
            sim_ticks: repro.sim_time_total,
            success: repro.success,
            replay_verified: repro.replay_verified,
            script: repro.script.clone(),
        }
    }
}

/// What an operation returned, or the error it stopped with.
type OpResult = Result<Outcome, String>;

/// One operation: a fresh context, then the search. The context must be
/// fresh because its snapshot cache is keyed by seed: reusing it would turn
/// misses into hits no user ever sees.
fn run_op(op: &Op, spec: &Spec, seed: u64, batched: bool) -> OpResult {
    let ctx = SearchContext::prepare(op.scenario.clone(), &op.failure_log, seed)
        .map_err(|e| e.to_string())?;
    match explore_op(&ctx, op, spec, seed, batched) {
        Ok(repro) => Ok(Outcome::of(&repro)),
        Err(e) => Err(e.to_string()),
    }
}

/// Why an operation counts as failed, if it does.
pub fn failure_of(op: &Op, outcome: &Outcome, max_rounds: usize) -> Option<String> {
    if !outcome.success {
        return Some(format!("not reproduced within {max_rounds} rounds"));
    }
    if !outcome.replay_verified {
        return Some("replay_verified is false".into());
    }
    let Some(script) = &outcome.script else {
        return Some("no script emitted".into());
    };
    match script.replay(&op.scenario) {
        Ok(run) if op.oracle.check(&run) => {}
        Ok(_) => return Some("script replay does not satisfy the oracle".into()),
        Err(e) => return Some(format!("script replay: {e}")),
    }
    match op.planted {
        Some(site) if site != script.site => Some(format!(
            "script names site {} but site {} was planted",
            script.site.0, site.0
        )),
        _ => None,
    }
}

struct Campaign {
    wall_s: f64,
    op_wall_s: Vec<f64>,
    outcomes: Vec<OpResult>,
}

fn run_campaign(ops: &[Op], spec: &Spec, seed: u64, batched: bool) -> Campaign {
    let mut op_wall_s = Vec::with_capacity(ops.len());
    let mut outcomes = Vec::with_capacity(ops.len());
    let started = Instant::now();
    for op in ops {
        let op_started = Instant::now();
        outcomes.push(run_op(op, spec, seed, batched));
        op_wall_s.push(op_started.elapsed().as_secs_f64());
    }
    Campaign {
        wall_s: started.elapsed().as_secs_f64(),
        op_wall_s,
        outcomes,
    }
}

/// Per-operation totals over the first repetition's campaigns.
pub struct OpTotals {
    pub name: String,
    pub rounds: u64,
    pub rounds_max: u64,
    pub wall_s: f64,
}

pub struct EndToEnd {
    /// Operations run in the timed repetitions, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first failures, as `op @seed: reason`.
    pub failures: Vec<String>,
    /// `campaign_wall_s[rep][campaign]`, as measured: every repetition does
    /// identical work, so differences along `rep` are the machine's.
    pub campaign_wall_s: Vec<Vec<f64>>,
    /// `yardstick[rep][gap]`: the machine's slowdown by each kernel call
    /// made before campaign `gap` of the repetition (and, for the last gap,
    /// after the last campaign).
    pub yardstick: Vec<Vec<Vec<f64>>>,
    /// Per campaign: rounds and simulated ticks summed over its operations.
    pub campaign_rounds: Vec<u64>,
    pub campaign_ticks: Vec<u64>,
    pub per_op: Vec<OpTotals>,
    /// FNV-1a over every `(seed, op, rounds, ticks, script)`.
    pub digest: u64,
}

const FAILURES_KEPT: usize = 20;
/// Kernel timings a slowdown estimate rests on, at least.
const YARDSTICK_SAMPLES: usize = 8;

impl EndToEnd {
    /// How slow the machine ran around campaign `c` of repetition `rep`:
    /// from the kernel timings of the gaps on both sides, widened until
    /// they hold [`YARDSTICK_SAMPLES`].
    fn slowdown(&self, rep: usize, c: usize) -> f64 {
        let gaps = &self.yardstick[rep];
        let per_gap = gaps[0].len().max(1);
        let reach = YARDSTICK_SAMPLES.div_ceil(2 * per_gap) - 1;
        let window = c.saturating_sub(reach)..=(c + 1 + reach).min(gaps.len() - 1);
        let samples: Vec<f64> = gaps[window].iter().flatten().copied().collect();
        crate::calibrate::slowdown(&samples)
    }

    /// One wall time per campaign: the median, over the repetitions `keep`
    /// picks, of the measured time divided by the machine's slowdown.
    pub fn calibrated_wall_s(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        let campaigns = self.campaign_wall_s[0].len();
        (0..campaigns)
            .map(|c| {
                let timings: Vec<f64> = (0..self.campaign_wall_s.len())
                    .filter(|&rep| keep(rep))
                    .map(|rep| self.campaign_wall_s[rep][c] / self.slowdown(rep, c))
                    .collect();
                crate::stats::median(&timings)
            })
            .collect()
    }

    /// One wall time per campaign: the fastest measured.
    pub fn fastest_wall_s(&self) -> Vec<f64> {
        let campaigns = self.campaign_wall_s[0].len();
        (0..campaigns)
            .map(|c| {
                let timings = self.campaign_wall_s.iter().map(|walls| walls[c]);
                timings.fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    fn fail(&mut self, op: &Op, seed: u64, why: &str) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(format!("{} @{seed}: {why}", op.name));
        }
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs the workload: one discarded warm-up campaign, then
/// `repetitions` timed passes over the campaign list, calling
/// `after_repetition` with the number of each pass it finishes (the caller
/// times set-up there, so its samples are spread over the run like the
/// campaigns').
///
/// The warm-up searches the first campaign's seed, sequentially, so it
/// doubles as a check: on a sequential workload the first timed campaign
/// must repeat it exactly, and on `scaled-batch` the batched result must
/// equal this sequential one.
pub fn run(
    ops: &[Op],
    spec: &Spec,
    seed: u64,
    campaigns: usize,
    repetitions: usize,
    mut after_repetition: impl FnMut(usize),
) -> EndToEnd {
    let mut yardstick = Yardstick::new();
    let seeds: Vec<u64> = (0..campaigns).map(|i| campaign_seed(seed, i)).collect();
    let mut e = EndToEnd {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        campaign_wall_s: Vec::new(),
        yardstick: Vec::new(),
        campaign_rounds: Vec::new(),
        campaign_ticks: Vec::new(),
        per_op: ops
            .iter()
            .map(|op| OpTotals {
                name: op.name.clone(),
                rounds: 0,
                rounds_max: 0,
                wall_s: 0.0,
            })
            .collect(),
        digest: 0xCBF2_9CE4_8422_2325,
    };
    let warm_up = run_campaign(ops, spec, seeds[0], false);
    // Per campaign of the first repetition: its results and their verdicts.
    let mut first_rep: Vec<(Vec<OpResult>, Vec<Option<String>>)> = Vec::with_capacity(campaigns);
    for rep in 0..repetitions {
        let mut walls = Vec::with_capacity(campaigns);
        let mut gaps = vec![Vec::new(); campaigns + 1];
        for (c, &s) in seeds.iter().enumerate() {
            yardstick.sample(spec.yardstick_calls, &mut gaps[c]);
            let campaign = run_campaign(ops, spec, s, spec.batched);
            walls.push(campaign.wall_s);
            e.attempted += ops.len() as u64;

            // Everything below is checking, outside the timed region.
            let verdicts: Vec<Option<String>> = (0..ops.len())
                .map(|i| match (&campaign.outcomes[i], first_rep.get(c)) {
                    // Equal to a result already judged: same verdict.
                    (outcome, Some((first, verdicts))) if first[i] == *outcome => {
                        verdicts[i].clone()
                    }
                    (_, Some(_)) => Some("result differs from the first repetition".into()),
                    (Err(why), None) => Some(why.clone()),
                    (outcome, None) if c == 0 && warm_up.outcomes[i] != *outcome => {
                        Some("result differs from the sequential warm-up".into())
                    }
                    (Ok(outcome), None) => failure_of(&ops[i], outcome, spec.max_rounds),
                })
                .collect();
            for (op, why) in ops.iter().zip(&verdicts) {
                if let Some(why) = why {
                    e.fail(op, s, why);
                }
            }
            if rep == 0 {
                let mut rounds = 0;
                let mut ticks = 0;
                for (i, outcome) in campaign.outcomes.iter().enumerate() {
                    let line = match outcome {
                        Ok(outcome) => {
                            rounds += outcome.rounds as u64;
                            ticks += outcome.sim_ticks;
                            let totals = &mut e.per_op[i];
                            totals.rounds += outcome.rounds as u64;
                            totals.rounds_max = totals.rounds_max.max(outcome.rounds as u64);
                            let script = outcome.script.as_ref().map(ReproScript::to_text);
                            format!(
                                "{s} {i} {} {} {}\n",
                                outcome.rounds,
                                outcome.sim_ticks,
                                script.unwrap_or_default()
                            )
                        }
                        Err(why) => format!("{s} {i} error {why}\n"),
                    };
                    e.per_op[i].wall_s += campaign.op_wall_s[i];
                    fnv1a(&mut e.digest, line.as_bytes());
                }
                e.campaign_rounds.push(rounds);
                e.campaign_ticks.push(ticks);
                first_rep.push((campaign.outcomes, verdicts));
            }
        }
        yardstick.sample(spec.yardstick_calls, &mut gaps[campaigns]);
        e.campaign_wall_s.push(walls);
        e.yardstick.push(gaps);
        after_repetition(rep);
    }
    e
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
