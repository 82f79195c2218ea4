//! The Explorer's round loop (§3, steps 1–5).
//!
//! Step 4.a — re-run the emitted script once — costs no run here: the
//! paper's target is nondeterministic, this simulator is not, and the
//! round that satisfied the oracle is already the run of its own script
//! (see `ExploreState::absorb` and DESIGN.md §13). Debug builds still make
//! the replay and assert [`RunResult::same_run`] on it.
//!
//! The loop holds no part of the priority model. A round that missed
//! reaches the strategy as a [`RoundOutcome`] — the run and, for a model
//! that reads it, its prepared observables' per-thread presence — and the
//! model ([`FeedbackStrategy`], through [`Strategy::model`]) decides what
//! it applies and whether its observable set grows. What the loop keeps
//! per search is its round count, its totals and its diff memo; what
//! each round did is the trace's to record.

use std::time::{Duration, Instant};

use anduril_ir::{ExceptionType, SiteId};
use anduril_logdiff::DiffMemo;
use anduril_sim::{FailedRun, InjectionPlan, RunResult, SimError};

use crate::batch::Speculator;
use crate::context::{FaultUnit, RoundOutcome, SearchContext};
use crate::feedback::{FeedbackConfig, FeedbackStrategy};
use crate::oracle::Oracle;
use crate::scenario::Scenario;
use crate::strategy::Strategy;
use crate::trace::{NoopTracer, TraceEvent, Tracer};

/// Explorer configuration: how long a search may run, and its seeds. How
/// candidates are ranked is the strategy's ([`FeedbackConfig`]), not the
/// loop's. One run per round: the paper's §6 option of combining several
/// runs' logs waits for a caller (the lossy logs of the ROADMAP's
/// "failure log is the input" item are the likely first).
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Give up after this many injection rounds (the paper's user limit,
    /// default 2000).
    pub max_rounds: usize,
    /// Seed of the normal run; round `r` uses `base_seed + 1 + r`, which
    /// restores the cross-run nondeterminism the flexible window handles.
    pub base_seed: u64,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            max_rounds: 2000,
            base_seed: 1000,
        }
    }
}

/// The deterministic reproduction script emitted on success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproScript {
    /// Simulation seed to replay with.
    pub seed: u64,
    /// Root-cause fault site.
    pub site: SiteId,
    /// Dynamic occurrence to inject at.
    pub occurrence: u32,
    /// Exception type to throw.
    pub exc: ExceptionType,
    /// Human-readable site description.
    pub desc: String,
}

impl ReproScript {
    /// Replays the script against a scenario.
    pub fn replay(&self, scenario: &Scenario) -> Result<anduril_sim::RunResult, SimError> {
        scenario.run(
            self.seed,
            InjectionPlan::exact(self.site, self.occurrence, self.exc),
        )
    }

    /// How many fresh seeds [`ReproScript::replay_seeds`] names.
    pub const REPLAY_SEEDS: usize = 32;

    /// The fresh seeds [`ReproScript::replay_rate`] is asked about after
    /// a search from `base_seed`: `base_seed + 1_000_003·(i + 1)` for
    /// `i <` [`ReproScript::REPLAY_SEEDS`]. None is a round seed of that
    /// search (`base_seed + 1 + r`) unless it ran a million rounds.
    pub fn replay_seeds(base_seed: u64) -> impl Iterator<Item = u64> {
        let seeds = 1..=Self::REPLAY_SEEDS as u64;
        seeds.map(move |i| base_seed.wrapping_add(1_000_003u64.wrapping_mul(i)))
    }

    /// How many of `seeds` the script travels to: the seeds at which its
    /// exact injection satisfies `oracle`. The search that found it
    /// checked one seed, its own; a real cluster's replay is a fresh
    /// schedule, which here is a fresh seed. A replay an error stops
    /// satisfies nothing.
    pub fn replay_rate(
        &self,
        scenario: &Scenario,
        oracle: &Oracle,
        seeds: impl IntoIterator<Item = u64>,
    ) -> usize {
        let plan = InjectionPlan::exact(self.site, self.occurrence, self.exc);
        (seeds.into_iter())
            .filter(|&seed| (scenario.run(seed, plan.clone())).is_ok_and(|r| oracle.check(&r)))
            .count()
    }

    /// Serializes the script as a small self-describing text block.
    ///
    /// The format is stable, line-oriented `key = value` (so scripts can be
    /// checked into a ticket or bug report), parsed back by
    /// [`ReproScript::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("# anduril reproduction script v1\n");
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("site = {}\n", self.site.0));
        out.push_str(&format!("occurrence = {}\n", self.occurrence));
        out.push_str(&format!("exception = {}\n", self.exc.name()));
        out.push_str(&format!("desc = {}\n", self.desc));
        out
    }

    /// Parses a script produced by [`ReproScript::to_text`].
    ///
    /// Returns `None` on any malformed or missing field.
    pub fn parse(text: &str) -> Option<ReproScript> {
        let mut seed = None;
        let mut site = None;
        let mut occurrence = None;
        let mut exc = None;
        let mut desc = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=')?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => seed = value.parse().ok(),
                "site" => site = value.parse().ok().map(SiteId),
                "occurrence" => occurrence = value.parse().ok(),
                "exception" => exc = ExceptionType::parse(value),
                "desc" => desc = Some(value.to_string()),
                _ => {}
            }
        }
        Some(ReproScript {
            seed: seed?,
            site: site?,
            occurrence: occurrence?,
            exc: exc?,
            desc: desc?,
        })
    }
}

/// The result of a reproduction attempt.
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// Whether the failure was reproduced.
    pub success: bool,
    /// Rounds executed (including the successful one).
    pub rounds: usize,
    /// The deterministic reproduction script, on success.
    pub script: Option<ReproScript>,
    /// Whether the script's replay satisfies the oracle. With the in-repo
    /// strategies a reproduction has it `false` only when it has no script
    /// (a crash-only one): the reproducing round is the replay. A round
    /// that fired twice or also crashed is replayed for real and may not.
    pub replay_verified: bool,
    /// Injection requests served by the search's runs: the fault-free
    /// run its context was prepared with, then every round (`rounds + 1`
    /// runs).
    pub injection_requests: u64,
    /// How many of them met an armed candidate and were decided.
    pub armed_requests: u64,
    /// Nanoseconds those decisions took, over the same runs.
    pub decision_ns: u64,
    /// Simulated ticks the same runs covered, the fault-free run's
    /// included.
    pub sim_time_total: u64,
    /// Wall-clock duration of the whole exploration.
    pub wall: Duration,
}

/// Seed for round `round` of an exploration: `base_seed + 1 + round`,
/// restoring the cross-run nondeterminism the flexible window handles.
/// The sum wraps past `u64::MAX` in every build profile.
pub(crate) fn round_seed(cfg: &ExplorerConfig, round: usize) -> u64 {
    cfg.base_seed.wrapping_add(1).wrapping_add(round as u64)
}

/// Everything one search mutates besides its strategy: its round count,
/// totals and the diff memo. Executed rounds go through
/// [`ExploreState::absorb`] in round order, so this state evolves
/// identically whether a round was executed inline or speculatively on a
/// worker thread.
struct ExploreState<'a> {
    ctx: &'a SearchContext,
    oracle: &'a Oracle,
    cfg: &'a ExplorerConfig,
    tracer: &'a dyn Tracer,
    started: Instant,
    rounds: usize,
    injection_requests: u64,
    armed_requests: u64,
    decision_ns: u64,
    sim_time_total: u64,
    /// Every round diffs against `ctx`'s failure log, and most thread logs
    /// repeat from round to round.
    memo: DiffMemo,
}

/// Host nanoseconds since `since`; `0` when the clock was not read.
fn lap(since: Option<Instant>) -> u64 {
    since.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

impl<'a> ExploreState<'a> {
    fn new(
        ctx: &'a SearchContext,
        oracle: &'a Oracle,
        cfg: &'a ExplorerConfig,
        tracer: &'a dyn Tracer,
    ) -> Self {
        ExploreState {
            ctx,
            oracle,
            cfg,
            tracer,
            started: Instant::now(),
            rounds: 0,
            injection_requests: ctx.normal.injection_requests,
            armed_requests: ctx.normal.armed_requests,
            decision_ns: ctx.normal.decision_ns,
            sim_time_total: ctx.normal.end_time,
            memo: DiffMemo::default(),
        }
    }

    /// Drains the lifecycle notes the strategy's priority model queued
    /// (always, so the queue cannot grow unbounded) and records them
    /// tagged with `round`. A strategy without the model queues none.
    fn drain_notes(&self, strategy: &mut dyn Strategy, round: usize) {
        let Some(model) = strategy.model() else {
            return;
        };
        let notes = model.drain_notes();
        if self.tracer.enabled() {
            for note in notes {
                self.tracer.record(TraceEvent::Note { round, note });
            }
        }
    }

    /// Absorbs one executed round: counts it, checks the oracle, and on a
    /// miss feeds the outcome back into the strategy. `sim_ns` is what
    /// getting its result took; `0` unless a tracer records it.
    ///
    /// A round whose run an `error` stopped is a miss whatever its partial
    /// `result` shows: its script would replay into the same error. The
    /// strategy digests it like any other — what fired, which observables
    /// the log had by then.
    ///
    /// Returns the finished [`Reproduction`] if this round satisfied the
    /// oracle.
    fn absorb(
        &mut self,
        strategy: &mut dyn Strategy,
        round: usize,
        sim_ns: u64,
        result: RunResult,
        error: Option<SimError>,
    ) -> Option<Reproduction> {
        let ctx = self.ctx;
        let seed = round_seed(self.cfg, round);
        self.rounds += 1;
        self.injection_requests += result.injection_requests;
        self.armed_requests += result.armed_requests;
        self.decision_ns += result.decision_ns;
        self.sim_time_total += result.end_time;

        let injected = result
            .injected
            .as_ref()
            .map(|r| (r.candidate.site, r.occurrence, r.candidate.exc));
        // A round in which nothing fired cannot reproduce: its oracle is
        // not walked.
        let satisfied =
            error.is_none() && (injected.is_some() || result.crashed) && self.oracle.check(&result);
        if let (true, Some(error)) = (self.tracer.enabled(), &error) {
            self.tracer.record(TraceEvent::RoundError {
                round,
                error: error.to_string(),
            });
        }

        // Where the round went, for a sink that records it: the host clock
        // is read only then. The event leaves once feedback has run (right
        // away for the round that ends the search), always ahead of the
        // round's `Feedback` event.
        let clock = self.tracer.enabled();
        let (ticks, steps, log_entries) = (result.end_time, result.steps, result.log.len());
        let (requests, workload_ns) = (result.injection_requests, result.wall.as_nanos() as u64);
        let round_end = |sim_ns, diff_ns, feedback_ns| TraceEvent::RoundEnd {
            round,
            injected,
            oracle: satisfied,
            ticks,
            steps,
            log_entries,
            injection_requests: requests,
            workload_ns,
            sim_ns,
            diff_ns,
            feedback_ns,
        };

        if satisfied {
            if clock {
                self.tracer.record(round_end(sim_ns, 0, 0));
            }
            let (script, replay_verified) = match injected {
                // A crash injection satisfied the oracle (CrashTuner): no
                // exception script exists for it.
                None => (None, false),
                Some((site, occurrence, exc)) => {
                    let script = ReproScript {
                        seed,
                        site,
                        occurrence,
                        exc,
                        desc: ctx.scenario.program.sites[site.index()].desc.clone(),
                    };
                    // §3 step 4.a re-runs the script. A run is a pure
                    // function of `(seed, plan)`, and a round in which
                    // one shot fired and nothing crashed *is* the run of
                    // `exact(fired)` (DESIGN.md §13), so the verdict in
                    // hand is the replay's. Otherwise (a second stage
                    // fired too, a crash stage fired beside the
                    // injection) the script is a different run: replay it
                    // over the program's compiled form.
                    let replay =
                        || ctx.run_round(seed, InjectionPlan::exact(site, occurrence, exc));
                    let verified = if result.injected_all.len() == 1 && !result.crashed {
                        debug_assert!(
                            replay().is_ok_and(|r| r.same_run(&result)),
                            "round {round}: the reproducing round is not its exact replay"
                        );
                        satisfied
                    } else {
                        replay().is_ok_and(|r| self.oracle.check(&r))
                    };
                    (Some(script), verified)
                }
            };
            // The final provenance chain: from the reproducing injection
            // back through the observable and graph distance that
            // prioritized it, asked of the model that planned it (a round
            // that reproduces gets no feedback).
            let model = strategy.model().filter(|_| self.tracer.enabled());
            if let (Some((site, occurrence, exc)), Some(model)) = (injected, model) {
                if let Some(p) = model.explain_unit(ctx, FaultUnit { site, exc }) {
                    self.tracer.record(TraceEvent::ProvenanceChain {
                        round,
                        seed,
                        site,
                        desc: ctx.scenario.program.sites[site.index()].desc.clone(),
                        occurrence,
                        exc,
                        observable: model.observable_text(ctx, p.k_star),
                        k_star: p.k_star,
                        l: p.l,
                        i_k: p.i_k,
                        f_i: p.f_i,
                        temporal: Some(p.temporal),
                    });
                }
            }
            return Some(self.finish(true, script, replay_verified));
        }

        // The per-thread diff feeds only a model that reads its presence;
        // for any other strategy the round skips it.
        let since = clock.then(Instant::now);
        let outcome = if strategy.model().is_some_and(|m| m.reads_presence()) {
            RoundOutcome::with_memo(ctx, result, &mut self.memo)
        } else {
            RoundOutcome {
                result,
                present: None,
            }
        };
        let diff_ns = lap(since);
        let since = clock.then(Instant::now);
        strategy.feedback(ctx, &outcome);
        if clock {
            self.tracer.record(round_end(sim_ns, diff_ns, lap(since)));
            if let Some((present, adjust, i_k)) = strategy.model().and_then(|m| m.feedback_view()) {
                self.tracer.record(TraceEvent::Feedback {
                    round,
                    present: present.to_vec(),
                    adjust,
                    i_k: i_k.to_vec(),
                });
            }
        }
        self.drain_notes(strategy, round);
        None
    }

    /// Finishes the exploration without a reproduction (space exhausted or
    /// round budget spent).
    fn give_up(self) -> Reproduction {
        self.finish(false, None, false)
    }

    fn finish(
        &self,
        success: bool,
        script: Option<ReproScript>,
        replay_verified: bool,
    ) -> Reproduction {
        let wall = self.started.elapsed();
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent::ExploreEnd {
                success,
                rounds: self.rounds,
                replay_verified,
                wall_ns: wall.as_nanos() as u64,
            });
            self.tracer.flush();
        }
        Reproduction {
            success,
            rounds: self.rounds,
            script,
            replay_verified,
            injection_requests: self.injection_requests,
            armed_requests: self.armed_requests,
            decision_ns: self.decision_ns,
            sim_time_total: self.sim_time_total,
            wall,
        }
    }
}

/// The Explorer's round loop (Algorithm 2) — the only one.
///
/// The batch engine's `speculator` looks ahead before each round is
/// planned, and hands over each round's run. The loop re-derives every
/// round's plan from the trusted strategy, and the speculator reuses a
/// speculative run only when the plans are equal, so what the loop returns
/// does not depend on what was predicted. The sequential explorer passes
/// `None` and runs every round inline. An error from the speculator is the
/// engine's own (a worker panicked), not a round's, and ends the search.
pub(crate) fn search(
    ctx: &SearchContext,
    oracle: &Oracle,
    strategy: &mut dyn Strategy,
    cfg: &ExplorerConfig,
    ground_truth: Option<SiteId>,
    tracer: &dyn Tracer,
    mut speculator: Option<&mut Speculator<'_>>,
) -> Result<Reproduction, SimError> {
    let mut state = ExploreState::new(ctx, oracle, cfg, tracer);
    strategy.init(ctx);
    if tracer.enabled() {
        tracer.record(TraceEvent::ExploreStart {
            strategy: strategy.name().to_string(),
            max_rounds: cfg.max_rounds,
            base_seed: cfg.base_seed,
        });
    }

    for round in 0..cfg.max_rounds {
        if let Some(speculator) = speculator.as_deref_mut() {
            speculator.look_ahead(strategy, round);
        }
        let since = tracer.enabled().then(Instant::now);
        let plan = strategy.plan_injection(ctx, round);
        let init_ns = lap(since);
        let Some(plan) = plan else {
            state.drain_notes(strategy, round);
            return Ok(state.give_up());
        };
        let seed = round_seed(cfg, round);
        if tracer.enabled() {
            tracer.record(TraceEvent::RoundStart { round, seed });
            tracer.record(TraceEvent::Decision {
                round,
                armed: plan.armed(),
                provenance: strategy.model().and_then(|m| m.provenance(ctx)),
                init_ns,
            });
            // Figure 6: where the plan just made put the ground truth.
            if let Some(site) = ground_truth {
                tracer.record(TraceEvent::GroundTruthRank {
                    round,
                    site,
                    rank: strategy.model().and_then(|m| m.site_rank(site)),
                });
            }
        }
        state.drain_notes(strategy, round);
        let since = tracer.enabled().then(Instant::now);
        let (result, reused) = match speculator.as_deref_mut() {
            Some(speculator) => speculator.take(round, plan)?,
            None => (ctx.run_round_or_partial(seed, plan), false),
        };
        // A round is a round even when an error stopped its run; only the
        // simulator's own failure ends the search.
        let (result, error) = match result.map_err(|failed| *failed) {
            Ok(result) => (result, None),
            Err(FailedRun {
                error,
                partial: Some(partial),
            }) if !matches!(error, SimError::Internal(_)) => (partial, Some(error)),
            Err(failed) => return Err(failed.error),
        };
        // A reused speculative result was simulated ahead of this round:
        // what it cost is its own workload time, not the wait for it here.
        let sim_ns = match since {
            Some(_) if reused => result.wall.as_nanos() as u64,
            since => lap(since),
        };
        if let Some(done) = state.absorb(strategy, round, sim_ns, result, error) {
            return Ok(done);
        }
    }
    Ok(state.give_up())
}

/// Runs the exploration loop with an arbitrary strategy.
///
/// `ground_truth` (when known, as in our evaluation harness) has a traced
/// search record its per-round rank, Figure 6's `gt_rank` events; it does
/// not influence the search.
pub fn explore(
    ctx: &SearchContext,
    oracle: &Oracle,
    strategy: &mut dyn Strategy,
    cfg: &ExplorerConfig,
    ground_truth: Option<SiteId>,
) -> Result<Reproduction, SimError> {
    explore_traced(ctx, oracle, strategy, cfg, ground_truth, &NoopTracer)
}

/// [`explore`] with a trace sink: emits the full per-round event stream
/// (`round_start`, `decision` with priority provenance, `gt_rank` when
/// given a ground truth, `round_end`, `feedback`, lifecycle notes, and the
/// final provenance chain).
pub fn explore_traced(
    ctx: &SearchContext,
    oracle: &Oracle,
    strategy: &mut dyn Strategy,
    cfg: &ExplorerConfig,
    ground_truth: Option<SiteId>,
    tracer: &dyn Tracer,
) -> Result<Reproduction, SimError> {
    search(ctx, oracle, strategy, cfg, ground_truth, tracer, None)
}

/// One-call ANDURIL: prepare the context and reproduce with the full
/// feedback strategy.
pub fn reproduce(
    scenario: Scenario,
    failure_log_text: &str,
    oracle: &Oracle,
    cfg: &ExplorerConfig,
) -> Result<(Reproduction, SearchContext), SimError> {
    let ctx = SearchContext::prepare(scenario, failure_log_text, cfg.base_seed)?;
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let repro = explore(&ctx, oracle, &mut strategy, cfg, None)?;
    Ok((repro, ctx))
}
