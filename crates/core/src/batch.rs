//! Parallel batched exploration: a sliding window of speculative rounds.
//!
//! The sequential Explorer is a strict feedback loop — round `r+1`'s plan
//! depends on round `r`'s outcome — so it cannot be parallelized naively.
//! This module runs it with *speculative execution*:
//!
//! 1. **Speculate.** A copy of the strategy's priority model
//!    ([`Strategy::model`], [`FeedbackStrategy::speculative_copy`]: a copy
//!    that never promotes observables) plans ahead of the search, up to a
//!    lookahead of `batch_size` rounds from the round being checked. In
//!    place of each round's outcome it is fed a prediction from the normal
//!    run's fault-instance timeline ([`FeedbackStrategy::speculate`]).
//! 2. **Execute.** Every `(round, plan)` the copy makes goes on one shared
//!    queue. `threads − 1` workers (at most `batch_size`) run jobs from
//!    it against the shared immutable [`SearchContext`]. A run is a pure
//!    function of `(seed, plan)` — the simulator's RNG and log buffers are
//!    run-local — so results are position-independent artifacts.
//! 3. **Validate.** The one round loop in [`crate::explorer`] re-plans
//!    every round from the trusted strategy and asks the `Speculator`
//!    for its result, which reuses a job's only when the plans are equal.
//!    The calling thread never idles: it runs a round no worker has
//!    started, and while a worker has the round it runs the next queued
//!    job. A miss drops the jobs nobody started and halves the lookahead
//!    (hits double it back, up to `batch_size`), and the copy is made again
//!    from the trusted model before the next round. One copy's lifetime is
//!    an *epoch*.
//!
//! So the emitted [`Reproduction`] — script, round count, totals — and
//! the trace stream (up to host-time fields and the batch-only events) are
//! **byte-identical** to [`explore`]'s for any `batch_size`/`threads`, for
//! any predictor quality. Prediction accuracy only decides how much parallel work is
//! reusable, i.e. the speedup.
//!
//! [`explore`]: crate::explorer::explore

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use anduril_ir::SiteId;
use anduril_sim::{Candidate, FailedRun, InjectionPlan, RunResult, SimError};

use crate::context::SearchContext;
use crate::explorer::{round_seed, search, ExplorerConfig, Reproduction};
use crate::feedback::FeedbackStrategy;
use crate::oracle::Oracle;
use crate::strategy::Strategy;
use crate::trace::{NoopTracer, TraceEvent, Tracer};

/// Configuration of the batched explorer.
#[derive(Debug, Clone)]
pub struct BatchExplorerConfig {
    /// How many rounds the speculative copy plans ahead of the round being
    /// checked, that round included.
    pub batch_size: usize,
    /// Threads running rounds, the calling thread included: `threads − 1`
    /// workers are spawned, but no more than `batch_size` (there are never
    /// more jobs), and `threads <= 1` is the sequential search. Results
    /// are identical for any value.
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
        for c in plan.candidates() {
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

/// One round's run: its result, or the error that stopped it.
type RoundRun = Result<RunResult, Box<FailedRun>>;

/// Where a queued job stands.
enum Status {
    Queued,
    Running,
    Done(Box<RoundRun>),
}

struct Job {
    round: usize,
    plan: InjectionPlan,
    status: Status,
}

/// What the caller and the workers share, under one lock.
#[derive(Default)]
struct Jobs {
    /// In the order queued, which among the queued ones is round order.
    /// No two jobs have the same round and plan.
    jobs: Vec<Job>,
    /// The message of the first job that panicked.
    panicked: Option<String>,
    /// The search is over: workers return instead of taking a job.
    closed: bool,
}

impl Jobs {
    fn find(&self, round: usize, plan: &InjectionPlan) -> Option<usize> {
        self.jobs
            .iter()
            .position(|j| j.round == round && j.plan == *plan)
    }

    /// Marks the first queued job running and hands out a copy of it.
    fn start_next(&mut self) -> Option<(usize, InjectionPlan)> {
        let job = self
            .jobs
            .iter_mut()
            .find(|j| matches!(j.status, Status::Queued))?;
        job.status = Status::Running;
        Some((job.round, job.plan.clone()))
    }

    fn finish(&mut self, round: usize, plan: &InjectionPlan, ran: Result<RoundRun, String>) {
        match ran {
            Ok(run) => {
                if let Some(i) = self.find(round, plan) {
                    self.jobs[i].status = Status::Done(Box::new(run));
                }
            }
            Err(msg) => {
                self.panicked.get_or_insert(msg);
            }
        }
    }

    fn check(&self) -> Result<(), SimError> {
        match &self.panicked {
            Some(msg) => Err(SimError::Internal(format!("batch worker panicked: {msg}"))),
            None => Ok(()),
        }
    }
}

/// The job queue: a [`Jobs`] behind a lock, a condition variable that
/// signals every change to it, and how a job is run.
struct Pool<'a> {
    jobs: Mutex<Jobs>,
    changed: Condvar,
    run: &'a (dyn Fn(usize, InjectionPlan) -> RoundRun + Sync),
}

impl<'a> Pool<'a> {
    fn new(run: &'a (dyn Fn(usize, InjectionPlan) -> RoundRun + Sync)) -> Self {
        Pool {
            jobs: Mutex::default(),
            changed: Condvar::new(),
            run,
        }
    }

    // Every update under the lock is one push, removal or assignment, and
    // runs no job: a poisoned lock still guards whole data.
    fn lock(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a job on whichever thread took it; a panic comes back as its
    /// message.
    fn run_caught(&self, round: usize, plan: InjectionPlan) -> Result<RoundRun, String> {
        panic::catch_unwind(AssertUnwindSafe(|| (self.run)(round, plan))).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload")
                .to_string()
        })
    }

    /// Queues `(round, plan)` unless a job for it is queued, running or
    /// done already (a miss keeps the runs in flight).
    fn submit(&self, round: usize, plan: InjectionPlan) {
        let mut jobs = self.lock();
        if jobs.find(round, &plan).is_none() {
            jobs.jobs.push(Job {
                round,
                plan,
                status: Status::Queued,
            });
            self.changed.notify_one();
        }
    }

    fn drop_queued(&self) {
        self.lock()
            .jobs
            .retain(|j| !matches!(j.status, Status::Queued));
    }

    /// Ends the search for the workers: each returns once its job is done.
    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// Runs the first queued job outside the lock and records what it
    /// did, or, with nothing queued, waits for a change.
    fn step<'g>(&'g self, mut jobs: MutexGuard<'g, Jobs>) -> MutexGuard<'g, Jobs> {
        let Some((round, plan)) = jobs.start_next() else {
            return self
                .changed
                .wait(jobs)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(jobs);
        let ran = self.run_caught(round, plan.clone());
        let mut jobs = self.lock();
        jobs.finish(round, &plan, ran);
        self.changed.notify_all();
        jobs
    }

    /// A worker: runs queued jobs until the pool closes.
    fn work(&self) {
        let mut jobs = self.lock();
        while !jobs.closed {
            jobs = self.step(jobs);
        }
    }

    /// The run of `round` under `plan`: a job's if one was queued for
    /// them, else one on the calling thread. `true` when a job's result is
    /// reused. While a worker has the job, the caller runs queued ones.
    fn claim(&self, round: usize, plan: InjectionPlan) -> Result<(RoundRun, bool), SimError> {
        let mut jobs = self.lock();
        jobs.jobs
            .retain(|j| j.round >= round || matches!(j.status, Status::Running));
        loop {
            jobs.check()?;
            let found = jobs.find(round, &plan);
            if found.is_some_and(|i| matches!(jobs.jobs[i].status, Status::Running)) {
                jobs = self.step(jobs);
                continue;
            }
            let job = found.map(|i| jobs.jobs.remove(i));
            drop(jobs);
            return Ok(match job {
                Some(Job {
                    status: Status::Done(run),
                    ..
                }) => (*run, true),
                // Queued (now taken off the queue) or never queued.
                _ => ((self.run)(round, plan), false),
            });
        }
    }
}

/// The batch engine's half of the round loop: the speculative copy, the
/// jobs it queues and the `epoch` / `spec` events only it records.
pub(crate) struct Speculator<'a> {
    ctx: &'a SearchContext,
    cfg: &'a ExplorerConfig,
    tracer: &'a dyn Tracer,
    pool: &'a Pool<'a>,
    predictor: Predictor,
    batch_size: usize,
    /// Rounds the copy plans ahead of the round being checked, that round
    /// included: halved by a miss, doubled by a hit, at most `batch_size`.
    lookahead: usize,
    /// The current epoch's copy: `None` before round 0 and after a miss.
    copy: Option<FeedbackStrategy>,
    /// Its plans for the rounds not yet checked, in round order.
    planned: VecDeque<InjectionPlan>,
    /// The next round the copy plans (`usize::MAX` once it has none).
    next: usize,
    /// The current epoch and the round it started at.
    epoch: usize,
    epoch_round: usize,
}

impl<'a> Speculator<'a> {
    fn new(
        ctx: &'a SearchContext,
        cfg: &'a ExplorerConfig,
        batch_size: usize,
        pool: &'a Pool<'a>,
        tracer: &'a dyn Tracer,
    ) -> Self {
        Speculator {
            ctx,
            cfg,
            tracer,
            pool,
            predictor: Predictor::new(ctx),
            batch_size,
            lookahead: batch_size,
            copy: None,
            planned: VecDeque::new(),
            next: 0,
            epoch: 0,
            epoch_round: 0,
        }
    }

    /// Before the trusted strategy plans `round`: starts an epoch if there
    /// is no copy — a copy of the trusted model as it stands now — and has
    /// the copy plan and queue rounds up to the lookahead.
    pub(crate) fn look_ahead(&mut self, trusted: &mut dyn Strategy, round: usize) {
        let starts = self.copy.is_none();
        if starts {
            let Some(model) = trusted.model() else {
                return;
            };
            self.copy = Some(model.speculative_copy());
            (self.next, self.epoch_round) = (round, round);
        }
        let Some(copy) = self.copy.as_mut() else {
            return;
        };
        let end = round
            .saturating_add(self.lookahead)
            .min(self.cfg.max_rounds);
        let mut jobs = 0;
        while self.next < end {
            let Some(plan) = copy.plan_injection(self.ctx, self.next) else {
                self.next = usize::MAX;
                break;
            };
            // The copy's notes are never recorded; a long epoch must not
            // pile them up.
            copy.drain_notes();
            copy.speculate(self.predictor.fired(&plan));
            self.pool.submit(self.next, plan.clone());
            self.planned.push_back(plan);
            self.next += 1;
            jobs += 1;
        }
        if starts && self.tracer.enabled() {
            self.tracer.record(TraceEvent::EpochStart {
                epoch: self.epoch,
                round,
                jobs,
            });
        }
    }

    /// The run of `round` under `plan`, the trusted strategy's: a job's
    /// when the copy predicted this plan, else one made now. `true` when a
    /// job's result is reused.
    pub(crate) fn take(
        &mut self,
        round: usize,
        plan: InjectionPlan,
    ) -> Result<(RoundRun, bool), SimError> {
        match self.planned.pop_front() {
            Some(predicted) => {
                let hit = predicted == plan;
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent::Speculation {
                        round,
                        epoch: self.epoch,
                        slot: round - self.epoch_round,
                        hit,
                    });
                }
                if hit {
                    self.lookahead = (self.lookahead * 2).min(self.batch_size);
                } else {
                    self.lookahead = (self.lookahead / 2).max(1);
                    self.restart();
                }
            }
            // The copy ran out of plans where the trusted model has one:
            // nothing was predicted, so nothing hit or missed (no `spec`
            // event), but the copy is stale.
            None => self.restart(),
        }
        self.pool.claim(round, plan)
    }

    /// Drops the copy and the jobs nobody started; the next round starts
    /// the next epoch.
    fn restart(&mut self) {
        self.copy = None;
        self.planned.clear();
        self.pool.drop_queued();
        self.epoch += 1;
    }
}

impl Drop for Speculator<'_> {
    /// However the search ends, unwinding included, the workers return
    /// and the thread scope can join them.
    fn drop(&mut self) {
        self.pool.close();
    }
}

/// Runs the exploration loop with speculative rounds on `batch.threads`
/// threads.
///
/// Equivalent to [`explore`] — same script, same round count, same trace
/// stream (host-time fields and batch-only events aside) — for any
/// `batch` settings, because every round's plan is re-derived from the real
/// strategy state and speculative results are only reused when the plans
/// match exactly.
///
/// A throwaway copy of the strategy's model is rolled forward during
/// speculation; the real strategy only ever sees true outcomes. A strategy
/// without a model, like `threads <= 1`, is searched sequentially, and no
/// thread is spawned.
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
    if batch.threads <= 1 || strategy.model().is_none() {
        return search(ctx, oracle, strategy, cfg, ground_truth, tracer, None);
    }
    let run = |round, plan| ctx.run_round_or_partial(round_seed(cfg, round), plan);
    let pool = Pool::new(&run);
    let found = std::thread::scope(|scope| {
        // Made before any worker exists, so that it closes the pool
        // whatever stops the search, a failed spawn included.
        let mut speculator = Speculator::new(ctx, cfg, batch.batch_size.max(1), &pool, tracer);
        for _ in 0..workers(batch) {
            scope.spawn(|| pool.work());
        }
        search(
            ctx,
            oracle,
            strategy,
            cfg,
            ground_truth,
            tracer,
            Some(&mut speculator),
        )
    })?;
    // A job that panicked after the last round was claimed.
    pool.lock().check()?;
    Ok(found)
}

/// The workers a batched search spawns: `threads − 1`, but no more than
/// the jobs the speculative copy can queue at once (its lookahead is at
/// most `batch_size` rounds), since a worker beyond those never has a job.
fn workers(batch: &BatchExplorerConfig) -> usize {
    let jobs = batch.batch_size.max(1);
    batch.threads.saturating_sub(1).min(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// `threads` asks for no more workers than there can be jobs, so a
    /// huge value spawns `batch_size` threads, not that many. Starts none.
    #[test]
    fn a_batched_search_spawns_no_more_workers_than_it_queues_jobs() {
        let spawned = |threads, batch_size| {
            workers(&BatchExplorerConfig {
                batch_size,
                threads,
            })
        };
        assert_eq!(spawned(usize::MAX, 8), 8);
        assert_eq!(spawned(2, 8), 1);
        assert_eq!(spawned(9, 8), 8);
        assert_eq!(spawned(4, 0), 1, "a zero lookahead still plans one round");
    }

    #[test]
    fn a_job_that_panics_on_a_worker_is_an_error_not_a_hang() {
        let (started, on_worker) = mpsc::channel();
        let run = |round: usize, _: InjectionPlan| -> RoundRun {
            started.send(()).ok();
            panic!("round {round} blew up");
        };
        let pool = Pool::new(&run);
        let plan = InjectionPlan::none();
        let claimed = std::thread::scope(|scope| {
            scope.spawn(|| pool.work());
            pool.submit(1, plan.clone());
            // The worker has the job: the caller must wait for it, and
            // must not wait forever.
            on_worker.recv().expect("the worker ran the job");
            let claimed = pool.claim(1, plan.clone());
            pool.close();
            claimed
        });
        match claimed {
            Err(SimError::Internal(msg)) => {
                assert_eq!(msg, "batch worker panicked: round 1 blew up")
            }
            other => panic!("expected an internal error, got {:?}", other.map(|_| ())),
        }
    }
}
