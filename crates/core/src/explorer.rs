//! The Explorer's round loop (§3, steps 1–5).
//!
//! Step 4.a — re-run the emitted script once — costs no run here: the
//! paper's target is nondeterministic, this simulator is not, and the
//! round that satisfied the oracle is already the run of its own script
//! (see `ExploreState::absorb` and DESIGN.md §13). Debug builds still make
//! the replay and assert [`RunResult::same_run`] on it.
//!
//! The loop holds no part of the priority model. A round that missed
//! reaches the strategy as a [`RoundOutcome`] — the run and its prepared
//! observables' per-thread presence — and the model ([`FeedbackStrategy`],
//! through [`Strategy::model`]) decides what it applies and whether its
//! observable set grows. What the loop keeps per search is its records,
//! its totals and its diff memo.

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
/// runs' logs waits for a caller (ROADMAP 7(b)'s lossy logs are the
/// likely first).
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

/// Bookkeeping for one round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round number (0-based).
    pub round: usize,
    /// Candidates armed (the round's window).
    pub armed: usize,
    /// What was injected, if anything.
    pub injected: Option<(SiteId, u32, ExceptionType)>,
    /// Rank of the ground-truth root-cause site at planning time (Figure 6).
    pub gt_rank: Option<usize>,
    /// Host nanoseconds spent planning (round initialization, Table 4).
    pub init_ns: u64,
    /// Host nanoseconds spent executing the workload.
    pub workload_ns: u64,
    /// Simulated ticks the run covered.
    pub sim_time: u64,
    /// Whether the oracle was satisfied.
    pub oracle_satisfied: bool,
    /// The error that stopped the round's run, if one did (a step limit
    /// exceeded, a type error): the round counts, unsuccessful, and the
    /// other fields describe the run up to the error.
    pub error: Option<SimError>,
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
    /// Per-round records.
    pub per_round: Vec<RoundRecord>,
    /// Total injection requests served across all rounds.
    pub injection_requests: u64,
    /// How many of them met an armed candidate and were decided.
    pub armed_requests: u64,
    /// Total nanoseconds those decisions took, across all rounds.
    pub decision_ns: u64,
    /// Total simulated time across all rounds.
    pub sim_time_total: u64,
    /// Wall-clock duration of the whole exploration.
    pub wall: Duration,
    /// The strategy used.
    pub strategy: String,
}

/// Seed for round `round` of an exploration: `base_seed + 1 + round`,
/// restoring the cross-run nondeterminism the flexible window handles.
/// The sum wraps past `u64::MAX` in every build profile.
pub(crate) fn round_seed(cfg: &ExplorerConfig, round: usize) -> u64 {
    cfg.base_seed.wrapping_add(1).wrapping_add(round as u64)
}

/// Everything one search mutates besides its strategy: records, totals
/// and the diff memo. Executed rounds go through [`ExploreState::absorb`]
/// in round order, so this state evolves identically whether a round was
/// executed inline or speculatively on a worker thread.
struct ExploreState<'a> {
    ctx: &'a SearchContext,
    oracle: &'a Oracle,
    cfg: &'a ExplorerConfig,
    tracer: &'a dyn Tracer,
    started: Instant,
    per_round: Vec<RoundRecord>,
    injection_requests: u64,
    armed_requests: u64,
    decision_ns: u64,
    sim_time_total: u64,
    /// Every round diffs against `ctx`'s failure log, and most thread logs
    /// repeat from round to round.
    memo: DiffMemo,
}

/// Host time a round took before the search absorbs its result.
struct RoundNs {
    /// Planning the injection (`Strategy::plan_injection`).
    init_ns: u64,
    /// Getting the round's result; `0` unless a tracer records it.
    sim_ns: u64,
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
            per_round: Vec::new(),
            injection_requests: ctx.normal.injection_requests,
            armed_requests: ctx.normal.armed_requests,
            decision_ns: ctx.normal.decision_ns,
            sim_time_total: ctx.normal.end_time,
            memo: DiffMemo::default(),
        }
    }

    /// Drains a strategy's queued lifecycle notes (always, so the queue
    /// cannot grow unbounded) and records them tagged with `round`.
    fn drain_notes(&self, strategy: &mut dyn Strategy, round: usize) {
        let notes = strategy.drain_notes();
        if self.tracer.enabled() {
            for note in notes {
                self.tracer.record(TraceEvent::Note { round, note });
            }
        }
    }

    /// Absorbs one executed round: records it, checks the oracle, and on a
    /// miss feeds the outcome back into the strategy.
    ///
    /// A round whose run an `error` stopped is a miss whatever its partial
    /// `result` shows: its script would replay into the same error. The
    /// strategy digests it like any other — what fired, which observables
    /// the log had by then.
    ///
    /// Returns the finished [`Reproduction`] if this round satisfied the
    /// oracle.
    #[allow(clippy::too_many_arguments)] // One round's facts, each read once.
    fn absorb(
        &mut self,
        strategy: &mut dyn Strategy,
        round: usize,
        gt_rank: Option<usize>,
        armed: usize,
        spent: RoundNs,
        result: RunResult,
        error: Option<SimError>,
    ) -> Option<Reproduction> {
        let RoundNs { init_ns, sim_ns } = spent;
        let ctx = self.ctx;
        let seed = round_seed(self.cfg, round);
        self.injection_requests += result.injection_requests;
        self.armed_requests += result.armed_requests;
        self.decision_ns += result.decision_ns;
        self.sim_time_total += result.end_time;

        let injected = result
            .injected
            .as_ref()
            .map(|r| (r.candidate.site, r.occurrence, r.candidate.exc));
        let satisfied =
            error.is_none() && self.oracle.check(&result) && (injected.is_some() || result.crashed);
        if let (true, Some(error)) = (self.tracer.enabled(), &error) {
            self.tracer.record(TraceEvent::RoundError {
                round,
                error: error.to_string(),
            });
        }
        self.per_round.push(RoundRecord {
            round,
            armed,
            injected,
            gt_rank,
            init_ns,
            workload_ns: result.wall.as_nanos() as u64,
            sim_time: result.end_time,
            oracle_satisfied: satisfied,
            error,
        });

        // Where the round went, for a sink that records it: the host clock
        // is read only then. The event leaves once feedback has run (right
        // away for the round that ends the search), always ahead of the
        // round's `Feedback` event.
        let clock = self.tracer.enabled();
        let lap = |since: Option<Instant>| since.map_or(0, |t| t.elapsed().as_nanos() as u64);
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
                    // function of `(seed, plan)`, and a one-shot round
                    // that fired once and crashed nothing *is* the run of
                    // `exact(fired)` (DESIGN.md §13), so the verdict in
                    // hand is the replay's. Otherwise (a multi-shot plan
                    // that fired again, a crash point besides the
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
                if let Some(e) = model.explain_unit(ctx, FaultUnit { site, exc }) {
                    self.tracer.record(TraceEvent::ProvenanceChain {
                        round,
                        seed,
                        site,
                        desc: ctx.scenario.program.sites[site.index()].desc.clone(),
                        occurrence,
                        exc,
                        observable: model.observable_text(ctx, e.k_star),
                        k_star: e.k_star,
                        l: e.l,
                        i_k: e.i_k,
                        f_i: e.f_i,
                        temporal: e.best_instance.map(|(_, t)| t),
                    });
                }
            }
            return Some(self.finish(strategy.name(), true, script, replay_verified));
        }

        let since = clock.then(Instant::now);
        let outcome = RoundOutcome::with_memo(ctx, result, &mut self.memo);
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
    fn give_up(mut self, strategy_name: &str) -> Reproduction {
        self.finish(strategy_name, false, None, false)
    }

    fn finish(
        &mut self,
        strategy_name: &str,
        success: bool,
        script: Option<ReproScript>,
        replay_verified: bool,
    ) -> Reproduction {
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent::ExploreEnd {
                success,
                rounds: self.per_round.len(),
                replay_verified,
                wall_ns: self.started.elapsed().as_nanos() as u64,
            });
            self.tracer.flush();
        }
        Reproduction {
            success,
            rounds: self.per_round.len(),
            script,
            replay_verified,
            per_round: std::mem::take(&mut self.per_round),
            injection_requests: self.injection_requests,
            armed_requests: self.armed_requests,
            decision_ns: self.decision_ns,
            sim_time_total: self.sim_time_total,
            wall: self.started.elapsed(),
            strategy: strategy_name.to_string(),
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
        let init_start = Instant::now();
        let plan = strategy.plan_injection(ctx, round);
        let init_ns = init_start.elapsed().as_nanos() as u64;
        let gt_rank = ground_truth.and_then(|s| strategy.model()?.site_rank(s));
        let Some(plan) = plan else {
            state.drain_notes(strategy, round);
            return Ok(state.give_up(strategy.name()));
        };
        let seed = round_seed(cfg, round);
        let armed = plan.candidates.len() + usize::from(plan.crash_at.is_some());
        if tracer.enabled() {
            tracer.record(TraceEvent::RoundStart { round, seed });
            tracer.record(TraceEvent::Decision {
                round,
                window: armed,
                armed,
                provenance: strategy.model().and_then(|m| m.provenance()),
                init_ns,
            });
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
            Some(t) => t.elapsed().as_nanos() as u64,
            None => 0,
        };
        let spent = RoundNs { init_ns, sim_ns };
        if let Some(done) = state.absorb(strategy, round, gt_rank, armed, spent, result, error) {
            return Ok(done);
        }
    }
    Ok(state.give_up(strategy.name()))
}

/// Runs the exploration loop with an arbitrary strategy.
///
/// `ground_truth` (when known, as in our evaluation harness) enables the
/// per-round rank trace of Figure 6; it does not influence the search.
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
/// (`round_start`, `decision` with priority provenance, `round_end`,
/// `feedback`, lifecycle notes, and the final provenance chain).
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
