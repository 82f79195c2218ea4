//! Search context shared by every exploration strategy.
//!
//! Preparing a context performs the Explorer's step 1 and the Instrumenter
//! analysis (§3): run the workload fault-free, diff against the failure
//! log to identify relevant observables (§5.1), build the causal graph for
//! them, precompute per-observable distances, map the fault-instance
//! distribution from the normal run's timeline onto the failure log's
//! timeline (§5.2.3), and resolve the throwables the failure log records
//! against the program.

use std::collections::HashMap;
use std::time::Instant;

use anduril_causal::{build_graph_over, CausalGraph, Observable, ProgramFacts, Reachability};
use anduril_ir::{ExceptionType, FuncId, Level, Program, SiteId, TemplateId};
use anduril_logdiff::{
    compare_global, parse_log, Alignment, DiffMemo, DiffRecord, InternedLog, ParsedEntry,
};
use anduril_sim::{
    run_compiled_or_partial, FailedRun, InjectionPlan, RunResult, SimConfig, SimError,
};

use crate::scenario::Scenario;
use crate::trace::{NoopTracer, TraceEvent, Tracer};

/// A round's step budget as a multiple of the normal run's steps (see
/// [`SearchContext::round_step_budget`]). The longest round measured took
/// 3.68× its normal run (f19: 1 444 steps against 392; EXPERIMENTS.md
/// "Round step budget"), so this leaves 8.7× headroom.
const ROUND_STEP_FACTOR: u64 = 32;

/// One relevant observable with its failure-log positions.
#[derive(Debug, Clone)]
pub struct ObservableInfo {
    /// The matched template.
    pub template: TemplateId,
    /// Indices of this observable's failure-only entries in the failure
    /// log (its positions on the failure timeline), sorted ascending —
    /// they are collected from the diff's `missing` list, which is sorted.
    /// [`SearchContext::temporal_distance`] binary-searches them.
    pub positions: Vec<usize>,
}

/// A `(site, exception)` static fault candidate — the unit the paper calls
/// `f_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultUnit {
    /// The fault site.
    pub site: SiteId,
    /// The exception type to inject.
    pub exc: ExceptionType,
}

/// A throwable the failure log records, resolved against the program: a
/// failure's exception and the stack it was logged with, and the sites
/// that can have thrown it. Read once by `prepare`; the stacktrace
/// injector (§8.4) targets these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedThrowable {
    /// The logged exception class.
    pub exc: ExceptionType,
    /// The logged frames the program names, innermost first; frames it
    /// does not name are dropped. Never empty.
    pub stack: Vec<FuncId>,
    /// The candidate sites in the innermost frame (`stack[0]`) that
    /// declare `exc`, in id order.
    pub sites: Vec<SiteId>,
}

/// Counters of the snapshot cache that [`SearchContext`] no longer has;
/// read by `crates/bench/src/bin/e2e/traced.rs`; delete with
/// `sim.snapshot.*` in the next benchmark issue.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    pub hits: u64,
    pub misses: u64,
    pub resumed: u64,
    pub stored: usize,
}

/// Everything a strategy can read when planning rounds.
///
/// Immutable after [`SearchContext::prepare`]: a search reads it and owns
/// what it mutates, so one context can host any number of searches, in
/// any order and from several threads at once.
#[derive(Debug)]
pub struct SearchContext {
    /// The scenario under reproduction.
    pub scenario: Scenario,
    /// Parsed failure log (from the uninstrumented production system).
    pub failure: Vec<ParsedEntry>,
    /// `failure` interned and grouped once at preparation time: every
    /// round diffs `u32` tokens against this instead of re-parsing and
    /// re-comparing strings. The intern table is frozen here, which keeps
    /// the context shareable across the batch engine's worker threads.
    pub failure_interned: InternedLog,
    /// The fault-free run.
    pub normal: RunResult,
    /// Relevant observables (failure-only messages).
    pub observables: Vec<ObservableInfo>,
    /// The `(node, thread)` groups of `failure_interned` that hold an
    /// observable position — the only thread logs a round's diff has to
    /// look at (its `wanted` mask).
    pub observable_groups: Vec<bool>,
    /// The static causal graph for those observables.
    pub graph: CausalGraph,
    /// `distances[k][site]` = spatial distance `L_{i,k}`.
    pub distances: Vec<HashMap<SiteId, u32>>,
    /// Per-site dynamic instances from the normal run, as
    /// `(occurrence, mapped failure-log position)`.
    pub site_instances: Vec<Vec<(u32, f64)>>,
    /// Fault sites statically reachable from the workload roots, in id
    /// order — Table 1's *reachable* column, and the site space baseline
    /// strategies draw from (dead-code sites are pruned before any
    /// injection is scheduled).
    pub candidate_sites: Vec<SiteId>,
    /// The static fault candidates (reachable graph sources × declared
    /// exceptions).
    pub units: Vec<FaultUnit>,
    /// The throwables `failure` records at `Warn` or above, in log order
    /// (see [`LoggedThrowable`]).
    pub throwables: Vec<LoggedThrowable>,
    /// Seed used for the normal run (rounds use `base_seed + 1 + round`).
    pub base_seed: u64,
}

impl SearchContext {
    /// Prepares a context: normal run, observable identification, causal
    /// graph, distances, and instance alignment.
    pub fn prepare(
        scenario: Scenario,
        failure_log_text: &str,
        base_seed: u64,
    ) -> Result<SearchContext, SimError> {
        Self::prepare_traced(scenario, failure_log_text, base_seed, &NoopTracer)
    }

    /// [`SearchContext::prepare`] with a trace sink: each preparation
    /// phase emits a [`TraceEvent::ContextPhase`] with its duration and
    /// size, followed by a [`TraceEvent::ContextReady`] summary.
    pub fn prepare_traced(
        scenario: Scenario,
        failure_log_text: &str,
        base_seed: u64,
        tracer: &dyn Tracer,
    ) -> Result<SearchContext, SimError> {
        let phase = |name: &'static str, items: u64, since: Instant| {
            if tracer.enabled() {
                tracer.record(TraceEvent::ContextPhase {
                    phase: name.into(),
                    items,
                    ns: since.elapsed().as_nanos() as u64,
                });
            }
        };

        // Every run of this context (normal and all rounds) executes the
        // program's own register-VM form: lowered here if nothing has run
        // the program yet, read as it is otherwise.
        let t = Instant::now();
        let compiled = scenario.program.compiled();
        phase("sim.compile", compiled.code.len() as u64, t);

        let t = Instant::now();
        let normal = scenario.run_compiled(compiled, base_seed, InjectionPlan::none())?;
        phase("normal_run", normal.steps, t);

        // The failure log arrives as text (the production system is not
        // instrumented), so it is parsed once here; the normal run's log is
        // already structured and needs no text round trip. Interning the
        // failure side now is what makes every later round diff run over
        // `u32` tokens.
        let t = Instant::now();
        let failure = parse_log(failure_log_text);
        let failure_interned = InternedLog::new(&failure);
        phase("parse_logs", (failure.len() + normal.log.len()) as u64, t);

        let t = Instant::now();
        let diff = failure_interned.compare(&normal.log);
        phase("diff", diff.missing.len() as u64, t);

        // Map failure-only entries to templates; one observable per
        // template, holding every position it is missing at. The template
        // is a function of the entry's body, so it is matched once per
        // distinct interned token, not once per entry.
        let t = Instant::now();
        let program = &scenario.program;
        let tokens = failure_interned.position_tokens();
        let mut template_of_token: Vec<Option<Option<TemplateId>>> =
            vec![None; failure_interned.table().len()];
        let mut by_template: Vec<Vec<usize>> = vec![Vec::new(); program.templates.len()];
        for &idx in &diff.missing {
            let template = *template_of_token[tokens[idx] as usize]
                .get_or_insert_with(|| compiled.best_template(&failure[idx].body));
            if let Some(t) = template {
                by_template[t.index()].push(idx);
            }
        }
        let observables: Vec<ObservableInfo> = by_template
            .into_iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .map(|(t, positions)| ObservableInfo {
                template: TemplateId(t as u32),
                positions,
            })
            .collect();
        let observable_groups = failure_interned
            .groups_holding(observables.iter().flat_map(|o| o.positions.iter().copied()));
        phase("observables", observables.len() as u64, t);

        let t = Instant::now();
        let obs_inputs: Vec<Observable> = observables
            .iter()
            .map(|o| Observable {
                template: o.template,
            })
            .collect();
        // The call graph, the exception summaries and the use-def tables
        // are the program's own: derived by the first preparation of it
        // and read by every later one. Only the graph depends on the
        // observables.
        let facts = ProgramFacts::of(program);
        let roots = scenario.roots();
        let (graph, timings) = build_graph_over(program, facts, &obs_inputs, &roots);
        phase("graph", (graph.node_count() + graph.edge_count()) as u64, t);
        if tracer.enabled() {
            // The builder's own §4.1 sub-phase timers (Table 7), re-emitted
            // as trace spans so reports have one source of timing truth.
            // The exception analysis is the program's, timed when its facts
            // were derived.
            for (name, ns) in [
                ("graph.exception", timings.exception_ns),
                ("graph.slicing", timings.slicing_ns),
                ("graph.chaining", timings.chaining_ns),
            ] {
                tracer.record(TraceEvent::ContextPhase {
                    phase: name.into(),
                    items: graph.node_count() as u64,
                    ns,
                });
            }
        }

        let t = Instant::now();
        let distances = graph.distances_all();
        phase("distances", observables.len() as u64, t);

        // Fault-instance distribution mapped onto the failure timeline.
        let t = Instant::now();
        let alignment = Alignment::build(&diff.matches, normal.log.len(), failure.len());
        let mut site_instances: Vec<Vec<(u32, f64)>> = (normal.site_occurrences.iter())
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        // The trace is in execution order, so its log positions never
        // decrease and every instance between two log entries shares one:
        // each distinct position is mapped once.
        let mut last = None;
        for t in &normal.trace {
            let mapped = match last {
                Some((pos, mapped)) if pos == t.log_pos => mapped,
                _ => alignment.map(t.log_pos as f64),
            };
            last = Some((t.log_pos, mapped));
            site_instances[t.site.index()].push((t.occurrence, mapped));
        }
        phase("alignment", normal.trace.len() as u64, t);

        // Static reachability pruning: a site in dead code can leak into
        // the graph through the program-wide use-def tables, but the
        // workload can never execute it, so it is dropped from the
        // candidate space before any strategy sees it.
        let t = Instant::now();
        let reach = Reachability::over(&facts.calls, &roots);
        let candidate_sites = reach.reachable_sites(program);

        let mut units = Vec::new();
        for site in graph.sources() {
            if !reach.func(program.sites[site.index()].func) {
                continue;
            }
            for &exc in &program.sites[site.index()].exceptions {
                units.push(FaultUnit { site, exc });
            }
        }
        phase("pruning", candidate_sites.len() as u64, t);

        let t = Instant::now();
        let throwables = logged_throwables(&failure, program, &candidate_sites);
        phase("evidence", throwables.len() as u64, t);

        if tracer.enabled() {
            tracer.record(TraceEvent::ContextReady {
                observables: observables.len(),
                units: units.len(),
                sites_total: program.sites.len(),
                sites_reachable: candidate_sites.len(),
                graph_nodes: graph.node_count(),
                graph_edges: graph.edge_count(),
            });
        }

        Ok(SearchContext {
            scenario,
            failure,
            failure_interned,
            normal,
            observables,
            observable_groups,
            graph,
            distances,
            site_instances,
            candidate_sites,
            units,
            throwables,
            base_seed,
        })
    }

    /// Nothing is cached, so nothing is counted: read by
    /// `crates/bench/src/bin/e2e/traced.rs`; delete with `sim.snapshot.*`
    /// in the next benchmark issue. `misses` is a constant 1 and not 0
    /// only because that file's `spans_nest_inside_their_parents` asserts
    /// `sim.snapshot.misses > 0` and cannot change here.
    #[doc(hidden)]
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            misses: 1,
            ..SnapshotStats::default()
        }
    }

    /// Runs one round over the program's compiled form — the Explorer's
    /// hot path (used by both the sequential and the batched
    /// engines). Every round replays the workload from step zero: a run
    /// is a pure function of `(seed, plan)`, stopped with
    /// [`SimError::StepLimit`] past [`SearchContext::round_step_budget`].
    pub fn run_round(&self, seed: u64, plan: InjectionPlan) -> Result<RunResult, SimError> {
        self.run_round_or_partial(seed, plan)
            .map_err(|failed| failed.error)
    }

    /// [`SearchContext::run_round`] for the search itself, which keeps what
    /// a round did before an error stopped it: a fault that makes the
    /// system spin past the step budget is a failed round, not a failed
    /// search, and the strategy has to learn which fault it was.
    pub fn run_round_or_partial(
        &self,
        seed: u64,
        plan: InjectionPlan,
    ) -> Result<RunResult, Box<FailedRun>> {
        let scenario = &self.scenario;
        let config = SimConfig {
            seed,
            max_steps: self.round_step_budget(),
            ..scenario.config.clone()
        };
        run_compiled_or_partial(
            &scenario.program,
            scenario.program.compiled(),
            &scenario.topology,
            &config,
            plan,
        )
    }

    /// The most statements one round may execute: `ROUND_STEP_FACTOR` (32)
    /// times what the fault-free run took, and never more than the
    /// scenario's own [`SimConfig::max_steps`]. An injected fault changes
    /// how a run ends, not how much work the workload is, so a round far
    /// past the normal run's length is a livelock — and is stopped here
    /// instead of burning the global cap, which is seconds.
    pub fn round_step_budget(&self) -> u64 {
        let derived = ROUND_STEP_FACTOR.saturating_mul(self.normal.steps);
        derived.min(self.scenario.config.max_steps)
    }

    /// The search reads no occurrence bounds, so it prunes no plan: read
    /// by `crates/bench/src/bin/e2e/traced.rs`; delete with
    /// `causal.pruned_plan_share` in the next benchmark issue.
    /// `anduril analyze` computes the ratio from bounds of its own.
    #[doc(hidden)]
    pub fn pruned_plan_ratio(&self) -> f64 {
        0.0
    }

    /// The temporal distance `T_{i,j,k}`: messages between instance
    /// position `pos` (already mapped to the failure timeline) and the
    /// nearest position of observable `k`.
    ///
    /// Positions are sorted (see [`ObservableInfo::positions`]), so the
    /// nearest one is found by binary search instead of a linear scan —
    /// this runs once per (instance, observable) pair in the feedback
    /// scoring loop.
    pub fn temporal_distance(&self, pos: f64, k: usize) -> f64 {
        match self.observables.get(k) {
            Some(o) => nearest_distance(&o.positions, pos),
            // Observables promoted mid-search (indices past the prepared
            // set, see `crate::adaptive`) have no failure-log positions,
            // so their temporal term is neutral-infinite — exactly what
            // an empty position list yields.
            None => f64::INFINITY,
        }
    }

    /// Observables present in a run's log: those with a failure-log entry
    /// the per-thread diff (§5.1.1, the paper's method) matches. The run
    /// side is any [`DiffRecord`] — a round's structured log goes in
    /// directly, diffed over interned `u32` tokens.
    pub fn present_observables<R: DiffRecord>(&self, run: &[R]) -> Vec<usize> {
        self.present_observables_memo(run, &mut DiffMemo::default())
    }

    /// [`SearchContext::present_observables`] for a caller that diffs many
    /// runs against this context, as a search does: `memo` skips every
    /// thread log it has diffed before. The result does not depend on what
    /// the memo holds.
    pub fn present_observables_memo<R: DiffRecord>(
        &self,
        run: &[R],
        memo: &mut DiffMemo,
    ) -> Vec<usize> {
        let missing = self
            .failure_interned
            .missing_in(run, &self.observable_groups, memo);
        self.present_from_missing(missing)
    }

    /// [`SearchContext::present_observables`] under the naive whole-log
    /// diff — the §5.1.1 ablation (`FeedbackConfig::global_diff`).
    pub fn present_observables_global<R: DiffRecord>(&self, run: &[R]) -> Vec<usize> {
        let mut missing = vec![false; self.failure.len()];
        for idx in compare_global(run, &self.failure).missing {
            missing[idx] = true;
        }
        self.present_from_missing(&missing)
    }

    /// `missing[p]` = the diff left failure-log position `p` unmatched.
    fn present_from_missing(&self, missing: &[bool]) -> Vec<usize> {
        self.observables
            .iter()
            .enumerate()
            .filter(|(_, o)| o.positions.iter().any(|&p| !missing[p]))
            .map(|(k, _)| k)
            .collect()
    }
}

/// The throwables of `failure`, in log order: one for each entry at `Warn`
/// or above whose exception line's class (the text before `:`) is an
/// [`ExceptionType`] and at least one of whose stack frames the program
/// names.
fn logged_throwables(
    failure: &[ParsedEntry],
    program: &Program,
    candidate_sites: &[SiteId],
) -> Vec<LoggedThrowable> {
    (failure.iter())
        .filter(|entry| entry.level >= Level::Warn)
        .filter_map(|entry| {
            let line = entry.exc.as_deref()?;
            let exc = ExceptionType::parse(line.split(':').next()?)?;
            let stack: Vec<FuncId> = (entry.stack.iter())
                .filter_map(|f| program.func_named(f))
                .collect();
            let &innermost = stack.first()?;
            let sites = (candidate_sites.iter().copied())
                .filter(|sid| {
                    let site = &program.sites[sid.index()];
                    site.func == innermost && site.exceptions.contains(&exc)
                })
                .collect();
            Some(LoggedThrowable { exc, stack, sites })
        })
        .collect()
}

/// Distance from `pos` to the nearest element of sorted `positions`
/// (`f64::INFINITY` when empty): `partition_point` plus the two
/// neighbouring candidates.
fn nearest_distance(positions: &[usize], pos: f64) -> f64 {
    let i = positions.partition_point(|&p| (p as f64) < pos);
    let mut best = f64::INFINITY;
    if let Some(&p) = positions.get(i) {
        best = (p as f64 - pos).abs();
    }
    if i > 0 {
        best = best.min((pos - positions[i - 1] as f64).abs());
    }
    best
}

// The batched explorer shares one context across worker threads; every
// field is plain owned data, so this holds structurally — the assertion
// turns an accidental `Rc` or interior-mutable cell into a compile error.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SearchContext>();
};

/// Outcome of one injection round, as seen by strategies.
#[derive(Debug)]
pub struct RoundOutcome {
    /// The run's result.
    pub result: RunResult,
    /// Indices of the prepared observables present in the round's log, by
    /// the per-thread diff; `None` when the round loop did not run that
    /// diff, because the searching strategy's model applies no per-thread
    /// presence (it has none, its feedback is off, or it diffs the whole
    /// log). A strategy that wants it anyway computes it from `result.log`
    /// ([`SearchContext::present_observables`]).
    pub present: Option<Vec<usize>>,
}

impl RoundOutcome {
    /// Builds the outcome, computing the prepared observables' presence
    /// via the per-thread log diff. (The priority model completes it —
    /// global diff, promoted witnesses — in its own `feedback`.)
    pub fn new(ctx: &SearchContext, result: RunResult) -> Self {
        Self::with_memo(ctx, result, &mut DiffMemo::default())
    }

    /// [`RoundOutcome::new`] through the calling search's diff memo.
    pub fn with_memo(ctx: &SearchContext, result: RunResult, memo: &mut DiffMemo) -> Self {
        let present = Some(ctx.present_observables_memo(&result.log, memo));
        RoundOutcome { result, present }
    }
}

#[cfg(test)]
mod tests {
    use super::nearest_distance;

    /// The reference the binary-search version replaced.
    fn nearest_linear(positions: &[usize], pos: f64) -> f64 {
        positions
            .iter()
            .map(|&p| (pos - p as f64).abs())
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn nearest_distance_equals_linear_scan() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            let len = (next() % 40) as usize;
            let mut positions: Vec<usize> = (0..len).map(|_| (next() % 200) as usize).collect();
            positions.sort_unstable();
            // Probe integer, fractional, out-of-range, and exact-hit
            // query positions.
            for _ in 0..20 {
                let pos = (next() % 2200) as f64 / 10.0 - 10.0;
                assert_eq!(
                    nearest_distance(&positions, pos).to_bits(),
                    nearest_linear(&positions, pos).to_bits(),
                    "positions={positions:?} pos={pos}"
                );
            }
            for &p in &positions {
                assert_eq!(nearest_distance(&positions, p as f64), 0.0);
            }
        }
        assert_eq!(nearest_distance(&[], 3.0), f64::INFINITY);
    }
}
