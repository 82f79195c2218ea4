//! Parallel batched exploration: speculate → execute → validate.
//!
//! The sequential Explorer is a strict feedback loop — round `r+1`'s plan
//! depends on round `r`'s outcome — so it cannot be parallelized naively.
//! This module batches it with *speculative execution*:
//!
//! 1. **Speculate.** Copy the strategy's priority model
//!    ([`Strategy::model`]) — a copy that never promotes observables — and
//!    roll it forward up to `batch_size` rounds, predicting each round's
//!    outcome from the normal run's fault-instance timeline
//!    ([`crate::FeedbackStrategy::speculate`]). This yields a
//!    batch of `(round, plan)` jobs — none for a strategy without a
//!    model, whose rounds then all run inline.
//! 2. **Execute.** Run the jobs concurrently with scoped threads against
//!    the shared immutable [`SearchContext`]. A run is a pure function of
//!    `(seed, plan)` — the simulator's RNG and log buffers are run-local —
//!    so results are position-independent artifacts.
//! 3. **Validate & merge.** Replay the *real* sequential algorithm in
//!    round order: recompute each round's plan from the trusted strategy;
//!    when it equals the speculative plan, reuse the precomputed result,
//!    otherwise discard it and run inline.
//!
//! Step 3 is the one round loop in [`crate::explorer`], which takes steps
//! 1–2 as its speculation parameter — the sequential explorer is the same
//! loop with none. So the emitted [`Reproduction`] — script, round count,
//! per-round records (up to host-time fields) — is **byte-identical** to
//! [`explore`]'s for any `batch_size`/`threads`, for any predictor
//! quality. Prediction accuracy only decides how much parallel work is
//! reusable, i.e. the speedup.
//!
//! [`explore`]: crate::explorer::explore

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use anduril_ir::SiteId;
use anduril_sim::{Candidate, FailedRun, InjectionPlan, RunResult, SimError};

use crate::context::SearchContext;
use crate::explorer::{round_seed, search, ExplorerConfig, Reproduction};
use crate::oracle::Oracle;
use crate::strategy::Strategy;
use crate::trace::{NoopTracer, Tracer};

/// Configuration of the batched explorer.
#[derive(Debug, Clone)]
pub struct BatchExplorerConfig {
    /// Rounds speculated (and executed concurrently) per epoch.
    pub batch_size: usize,
    /// Worker threads executing speculative runs. `1` keeps execution on
    /// the calling thread; results are identical for any value.
    pub threads: usize,
}

impl Default for BatchExplorerConfig {
    fn default() -> Self {
        BatchExplorerConfig {
            batch_size: 8,
            threads: 4,
        }
    }
}

/// Predicts which armed candidate a round will inject, from the normal
/// run's fault-instance timeline.
///
/// The round runs use seeds adjacent to the normal run's, so their dynamic
/// fault-site orderings are usually close to the normal run's: the armed
/// candidate whose exact occurrence happened *earliest* in the normal run
/// is the best guess for the one that fires first. Any-occurrence
/// candidates target sites the normal run never reached and are assumed
/// not to fire.
struct Predictor {
    /// `(site, occurrence)` → simulated time of that instance in the
    /// normal run.
    first_firing: HashMap<(SiteId, u32), u64>,
}

impl Predictor {
    fn new(ctx: &SearchContext) -> Self {
        let mut first_firing = HashMap::new();
        for t in &ctx.normal.trace {
            first_firing.entry((t.site, t.occurrence)).or_insert(t.time);
        }
        Predictor { first_firing }
    }

    fn fired(&self, plan: &InjectionPlan) -> Option<(Candidate, u32)> {
        let mut best: Option<(u64, &Candidate, u32)> = None;
        for c in &plan.candidates {
            let Some(occ) = c.occurrence else { continue };
            let Some(&time) = self.first_firing.get(&(c.site, occ)) else {
                continue;
            };
            if best.map(|(t, _, _)| time < t).unwrap_or(true) {
                best = Some((time, c, occ));
            }
        }
        best.map(|(_, c, occ)| (c.clone(), occ))
    }
}

/// Executes the speculative plans of rounds `first_round..`, returning one
/// result per plan (in plan order) — a round an error stopped comes back
/// as that, for the round loop to judge. A worker that panics costs the
/// whole batch: its message comes back as [`SimError::Internal`].
fn run_batch(
    ctx: &SearchContext,
    cfg: &ExplorerConfig,
    first_round: usize,
    plans: &[InjectionPlan],
    threads: usize,
) -> Result<Vec<Result<RunResult, Box<FailedRun>>>, SimError> {
    let run =
        |i: usize| ctx.run_round_or_partial(round_seed(cfg, first_round + i), plans[i].clone());
    let workers = threads.min(plans.len());
    if workers <= 1 {
        return Ok((0..plans.len()).map(run).collect());
    }
    let next = AtomicUsize::new(0);
    // Every handle is joined before any is judged: `scope` itself panics
    // over a panicked thread nobody joined.
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= plans.len() {
                            break;
                        }
                        out.push((i, run(i)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut collected = Vec::with_capacity(plans.len());
    for worker in joined {
        collected.extend(worker.map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            SimError::Internal(format!("batch worker panicked: {msg}"))
        })?);
    }
    collected.sort_unstable_by_key(|&(i, _)| i);
    Ok(collected.into_iter().map(|(_, result)| result).collect())
}

/// Runs the exploration loop in speculative parallel batches.
///
/// Equivalent to [`explore`] — same script, same round count, same
/// per-round records (host-time fields aside) — for any `batch` settings,
/// because every round's plan is re-derived from the real strategy state
/// and speculative results are only reused when the plans match exactly.
///
/// A throwaway copy of the strategy's model is rolled forward during
/// speculation; the real strategy only ever sees true outcomes.
///
/// [`explore`]: crate::explorer::explore
pub fn explore_batched(
    ctx: &SearchContext,
    oracle: &Oracle,
    strategy: &mut dyn Strategy,
    cfg: &ExplorerConfig,
    batch: &BatchExplorerConfig,
    ground_truth: Option<SiteId>,
) -> Result<Reproduction, SimError> {
    explore_batched_traced(ctx, oracle, strategy, cfg, batch, ground_truth, &NoopTracer)
}

/// [`explore_batched`] with a trace sink.
///
/// Emits the same deterministic event stream as
/// [`crate::explorer::explore_traced`] — it is the same loop — plus
/// batch-only `epoch` and `spec` (speculation hit/miss) events tagged with
/// epoch and slot, which [`crate::TraceEvent::is_batch_only`] identifies.
pub fn explore_batched_traced(
    ctx: &SearchContext,
    oracle: &Oracle,
    strategy: &mut dyn Strategy,
    cfg: &ExplorerConfig,
    batch: &BatchExplorerConfig,
    ground_truth: Option<SiteId>,
    tracer: &dyn Tracer,
) -> Result<Reproduction, SimError> {
    let predictor = Predictor::new(ctx);
    let batch_size = batch.batch_size.max(1);
    // Speculative planning on a throwaway copy, then concurrent execution
    // of the predicted `(seed, plan)` pairs. (The copy also inherits and
    // accumulates lifecycle notes; they vanish with it, so only the
    // trusted strategy's notes reach the tracer. It never promotes.)
    let mut speculate = |trusted: &mut dyn Strategy, round: usize| {
        let horizon = batch_size.min(cfg.max_rounds - round);
        let mut plans = Vec::with_capacity(horizon);
        if let Some(mut spec) = trusted.model().map(|m| m.speculative_copy()) {
            for i in 0..horizon {
                let Some(plan) = spec.plan_injection(ctx, round + i) else {
                    break;
                };
                spec.speculate(predictor.fired(&plan));
                plans.push(plan);
            }
        }
        let results = run_batch(ctx, cfg, round, &plans, batch.threads)?;
        Ok(plans.into_iter().zip(results).collect())
    };
    search(
        ctx,
        oracle,
        strategy,
        cfg,
        ground_truth,
        tracer,
        Some(&mut speculate),
    )
}
