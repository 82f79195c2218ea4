//! Fault-injection runtime (FIR).
//!
//! Mirrors the paper's instrumented `FIR.traceSite()` / `FIR.throwIfEnabled()`
//! pair (Figure 3): every execution of a fault site first reports to the
//! runtime (tracing occurrence, logical time, and position in the log
//! stream), then asks whether an exception should be thrown here.
//!
//! A run is armed with an [`InjectionPlan`]: an ordered list of
//! [`Stage`]s, each of which fires at most once per run. A
//! [`Stage::Window`] is the Explorer's flexible window (§5.2.5): the first
//! of its candidates whose guards match is injected, and the rest of the
//! window is disarmed. A [`Stage::Crash`] crashes the node at one
//! meta-info access (the CrashTuner baseline). Stages do not wait for each
//! other: each fires when its own guards first match.
//!
//! A search round arms one stage, so at most one fault fires per round —
//! ANDURIL's single-fault-per-round design. The scenario generator replays
//! a planted *multi-fault* root cause as one single-candidate stage per
//! fault ([`InjectionPlan::multi`]).

use std::time::Instant;

use anduril_ir::{ExceptionType, FuncId, SiteId, StmtRef};

/// One injectable candidate in a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The static fault site to inject at.
    pub site: SiteId,
    /// The dynamic occurrence (0-based) to inject at; `None` injects at the
    /// first occurrence that satisfies the other guards.
    pub occurrence: Option<u32>,
    /// The exception type to throw.
    pub exc: ExceptionType,
    /// If present, the current call stack (innermost first) must start with
    /// this prefix for the injection to fire. Used by the
    /// stacktrace-injector baseline.
    pub stack: Option<Vec<FuncId>>,
}

impl Candidate {
    /// A candidate pinned to an exact `(site, occurrence)` pair.
    pub fn exact(site: SiteId, occurrence: u32, exc: ExceptionType) -> Self {
        Candidate {
            site,
            occurrence: Some(occurrence),
            exc,
            stack: None,
        }
    }
}

/// One stage of a plan: shots of which at most one fires per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stage {
    /// A window of candidates; the first whose guards match is injected.
    Window(Vec<Candidate>),
    /// A node crash at one meta-info access (CrashTuner baseline).
    Crash(CrashPoint),
}

/// What one run is armed with: stages, each firing at most once, none
/// waiting for another.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    /// The plan's stages, in order.
    pub stages: Vec<Stage>,
}

/// A node-crash injection point (CrashTuner baseline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPoint {
    /// The meta-info access statement to crash at.
    pub stmt: StmtRef,
    /// The dynamic occurrence (0-based) of that access.
    pub occurrence: u32,
}

impl InjectionPlan {
    /// A plan that injects nothing (fault-free run).
    pub fn none() -> Self {
        InjectionPlan::default()
    }

    /// A plan with a single exact candidate — the deterministic
    /// reproduction script ANDURIL emits on success.
    pub fn exact(site: SiteId, occurrence: u32, exc: ExceptionType) -> Self {
        InjectionPlan::window(vec![Candidate::exact(site, occurrence, exc)])
    }

    /// One window over several candidates.
    pub fn window(candidates: Vec<Candidate>) -> Self {
        InjectionPlan {
            stages: vec![Stage::Window(candidates)],
        }
    }

    /// One single-candidate stage per candidate: every candidate may fire,
    /// each at most once. Replays planted multi-fault root causes
    /// (generated cascading failures); never armed by search strategies.
    pub fn multi(candidates: Vec<Candidate>) -> Self {
        let stages = candidates.into_iter().map(|c| Stage::Window(vec![c]));
        InjectionPlan {
            stages: stages.collect(),
        }
    }

    /// A plan that crashes the current node at the `occurrence`-th
    /// (0-based) execution of the meta-info access `stmt`.
    pub fn crash(stmt: StmtRef, occurrence: u32) -> Self {
        InjectionPlan {
            stages: vec![Stage::Crash(CrashPoint { stmt, occurrence })],
        }
    }

    /// Every window's candidates, stage by stage.
    pub fn candidates(&self) -> impl Iterator<Item = &Candidate> {
        self.stages.iter().flat_map(|stage| match stage {
            Stage::Window(candidates) => candidates.as_slice(),
            Stage::Crash(_) => &[],
        })
    }

    /// The number of shots the plan arms: its candidates and crash points.
    pub fn armed(&self) -> usize {
        let crashes = self.stages.iter().filter(|s| matches!(s, Stage::Crash(_)));
        self.candidates().count() + crashes.count()
    }
}

/// Record of an injection that fired during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedRecord {
    /// The candidate that fired.
    pub candidate: Candidate,
    /// The occurrence at which it actually fired.
    pub occurrence: u32,
    /// Logical time of the injection.
    pub time: u64,
}

/// One traced execution of a fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// The site that executed.
    pub site: SiteId,
    /// Its dynamic occurrence number in this run (0-based).
    pub occurrence: u32,
    /// Logical time of the execution.
    pub time: u64,
    /// Number of log entries emitted before this execution — the site
    /// instance's position on the run's log timeline (§5.2.3 uses message
    /// counts as logical time).
    pub log_pos: u32,
}

/// The per-run fault-injection runtime state.
#[derive(Debug, Clone, Default)]
pub struct Fir {
    /// Every window's candidates, each with its stage's index, grouped by
    /// site — site ids are compact, so the per-request lookup is an index,
    /// not a hash — and in the plan's (priority) order within a site.
    candidates: Vec<(usize, Candidate)>,
    /// `candidates[first_at[s]..first_at[s + 1]]` are armed at site `s`.
    first_at: Vec<u32>,
    /// The plan's crash points.
    crashes: Vec<CrashPoint>,
    /// Per stage, whether its window has fired: a fired window is
    /// disarmed. A crash stage needs no flag (see [`Fir::on_meta_access`]).
    fired: Vec<bool>,
    /// Occurrence counter per site.
    occ: Vec<u32>,
    /// Occurrence counters per meta-access point, kept sorted by statement
    /// so each access is a binary-search lookup. Generated programs carry
    /// hundreds of meta points, where the old first-fit linear scan made
    /// the per-access cost quadratic over a run.
    meta_occ: Vec<(StmtRef, u32)>,
    /// All traced site executions, in order.
    pub trace: Vec<TraceEntry>,
    /// Every injection that fired, in firing order: at most one per stage.
    pub injected_all: Vec<InjectedRecord>,
    /// Whether a crash injection fired.
    pub crashed: bool,
    /// Total `traceSite` requests served.
    pub requests: u64,
    /// How many of them found an armed candidate and went on to
    /// `throwIfEnabled`: the requests that decide something.
    pub armed_requests: u64,
    /// How many armed requests were timed (one in [`TIMED_EVERY`]).
    timed_requests: u64,
    /// Host nanoseconds the timed requests took to decide.
    timed_ns: u64,
}

/// One armed request in this many reads the clock, the first included: a
/// `now()` + `elapsed()` pair costs more than the decision it brackets.
const TIMED_EVERY: u64 = 64;

impl Fir {
    /// Arms the runtime with a plan for one run over `n_sites` sites, on
    /// the tables of an earlier run.
    pub(crate) fn rearm(&mut self, n_sites: usize, plan: InjectionPlan) {
        self.clear();
        self.fired.resize(plan.stages.len(), false);
        for (index, stage) in plan.stages.into_iter().enumerate() {
            match stage {
                Stage::Window(window) => {
                    (self.candidates).extend(window.into_iter().map(|c| (index, c)))
                }
                Stage::Crash(point) => self.crashes.push(point),
            }
        }
        // A candidate at a site the program does not have can never fire.
        self.candidates.retain(|(_, c)| c.site.index() < n_sites);
        self.candidates.sort_by_key(|(_, c)| c.site);
        self.first_at.resize(n_sites + 1, 0);
        for (_, c) in &self.candidates {
            self.first_at[c.site.index() + 1] += 1;
        }
        for s in 0..n_sites {
            self.first_at[s + 1] += self.first_at[s];
        }
        self.occ.resize(n_sites, 0);
        self.trace.reserve(64);
    }

    /// Empties every table, keeping its capacity: what a finished run
    /// handed back in its result has none left.
    pub(crate) fn clear(&mut self) {
        self.candidates.clear();
        self.first_at.clear();
        self.crashes.clear();
        self.fired.clear();
        self.occ.clear();
        self.meta_occ.clear();
        self.trace.clear();
        self.injected_all.clear();
        self.crashed = false;
        self.requests = 0;
        self.armed_requests = 0;
        self.timed_requests = 0;
        self.timed_ns = 0;
    }

    /// The candidates armed at `site` with their stages, in plan order.
    fn armed_at(&self, site: SiteId) -> &[(usize, Candidate)] {
        let s = site.index();
        &self.candidates[self.first_at[s] as usize..self.first_at[s + 1] as usize]
    }

    /// `FIR.traceSite()`: traces one execution of `site`. Returns `true`
    /// when a stage that has not fired has a candidate at this site — only
    /// then must the caller ask [`Fir::throw_if_enabled`].
    pub fn trace_site(&mut self, site: SiteId, time: u64, log_pos: u32) -> bool {
        let occurrence = self.occ[site.index()];
        self.occ[site.index()] += 1;
        self.trace.push(TraceEntry {
            site,
            occurrence,
            time,
            log_pos,
        });
        self.requests += 1;
        self.armed_at(site)
            .iter()
            .any(|&(stage, _)| !self.fired[stage])
    }

    /// `FIR.throwIfEnabled()`: decides whether the execution of `site`
    /// just traced by [`Fir::trace_site`] throws. Returns the exception
    /// type to throw, or `None` to let the call proceed. `stack` is the
    /// current call stack, innermost first; only a site for which
    /// [`Fir::guards_stack`] holds reads it.
    ///
    /// Only these calls count as decisions, and one in 64 (the first
    /// included) is timed: a request with no armed candidate decides
    /// nothing, and reading the clock around every decision would mostly
    /// measure the clock.
    pub fn throw_if_enabled(
        &mut self,
        site: SiteId,
        time: u64,
        stack: &[FuncId],
    ) -> Option<ExceptionType> {
        let start = self
            .armed_requests
            .is_multiple_of(TIMED_EVERY)
            .then(Instant::now);
        self.armed_requests += 1;
        let occurrence = self.occ[site.index()].checked_sub(1)?;
        let decision = self.decide(site, occurrence, time, stack);
        if let Some(start) = start {
            self.timed_ns += start.elapsed().as_nanos() as u64;
            self.timed_requests += 1;
        }
        decision
    }

    /// `true` when a candidate armed at `site` guards on the call stack
    /// (the stacktrace-injector baseline's do): [`Fir::throw_if_enabled`]
    /// needs the stack to decide. Otherwise the caller builds one only
    /// for the exception it throws.
    pub fn guards_stack(&self, site: SiteId) -> bool {
        self.armed_at(site).iter().any(|(_, c)| c.stack.is_some())
    }

    /// Host nanoseconds spent deciding armed requests, estimated from the
    /// timed ones (metrics only, never used in algorithmic paths).
    pub fn decision_ns(&self) -> u64 {
        match self.timed_requests {
            0 => 0,
            timed => (self.timed_ns as u128 * self.armed_requests as u128 / timed as u128) as u64,
        }
    }

    fn decide(
        &mut self,
        site: SiteId,
        occurrence: u32,
        time: u64,
        stack: &[FuncId],
    ) -> Option<ExceptionType> {
        let fired = &self.fired;
        let &(stage, ref hit) = self.armed_at(site).iter().find(|(stage, c)| {
            !fired[*stage]
                && c.occurrence.is_none_or(|o| o == occurrence)
                && c.stack.as_ref().is_none_or(|s| stack.starts_with(s))
        })?;
        let (exc, candidate) = (hit.exc, hit.clone());
        self.fired[stage] = true;
        self.injected_all.push(InjectedRecord {
            candidate,
            occurrence,
            time,
        });
        Some(exc)
    }

    /// Re-arms the plan's candidates at `occurrence`: a paused run that
    /// passes the occurrence it stands at waits for a later one.
    pub(crate) fn retarget(&mut self, occurrence: u32) {
        for (_, c) in &mut self.candidates {
            c.occurrence = Some(occurrence);
        }
    }

    /// `true` when the plan has a crash stage: only then does anyone
    /// need [`Fir::on_meta_access`] told about meta-info accesses.
    pub fn crash_armed(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Traces one execution of a meta-info access point; returns `true` if
    /// a crash stage wants the node crashed here.
    pub fn on_meta_access(&mut self, stmt: StmtRef) -> bool {
        // Occurrences are counted for the crash points to compare against:
        // without one nobody reads them.
        if !self.crash_armed() {
            return false;
        }
        let slot = match self.meta_occ.binary_search_by_key(&stmt, |&(s, _)| s) {
            Ok(i) => i,
            Err(i) => {
                self.meta_occ.insert(i, (stmt, 0));
                i
            }
        };
        let occ = &mut self.meta_occ[slot].1;
        let current = *occ;
        *occ += 1;
        // Occurrence counts only grow, so each crash stage fires at most once.
        let hit = (self.crashes.iter()).any(|p| p.stmt == stmt && p.occurrence == current);
        self.crashed |= hit;
        hit
    }

    /// Final occurrence counts per site.
    pub fn occurrences(&self) -> &[u32] {
        &self.occ
    }

    /// Final occurrence counts per site, moved out: the run is over.
    pub fn take_occurrences(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.occ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A runtime armed with `plan` over `n_sites` sites.
    fn armed(n_sites: usize, plan: InjectionPlan) -> Fir {
        let mut fir = Fir::default();
        fir.rearm(n_sites, plan);
        fir
    }

    impl Fir {
        /// The instrumented pair as the simulator calls it.
        fn on_site(
            &mut self,
            site: SiteId,
            time: u64,
            log_pos: u32,
            stack: &[FuncId],
        ) -> Option<ExceptionType> {
            if self.trace_site(site, time, log_pos) {
                self.throw_if_enabled(site, time, stack)
            } else {
                None
            }
        }
    }

    /// The stack is only worth building when `trace_site` says a candidate
    /// could answer: never for an unarmed site, never after the one shot.
    #[test]
    fn trace_site_reports_whether_a_candidate_could_fire() {
        let mut fir = armed(2, InjectionPlan::exact(SiteId(1), 1, ExceptionType::Io));
        assert!(!fir.trace_site(SiteId(0), 0, 0));
        assert!(fir.trace_site(SiteId(1), 1, 0));
        assert_eq!(fir.throw_if_enabled(SiteId(1), 1, &[]), None);
        assert!(fir.trace_site(SiteId(1), 2, 0));
        assert_eq!(
            fir.throw_if_enabled(SiteId(1), 2, &[]),
            Some(ExceptionType::Io)
        );
        assert!(!fir.trace_site(SiteId(1), 3, 0));
        assert_eq!(fir.requests, 4);
        assert_eq!(fir.trace.len(), 4);
    }

    #[test]
    fn injects_at_exact_occurrence_once() {
        let mut fir = armed(3, InjectionPlan::exact(SiteId(1), 2, ExceptionType::Io));
        assert_eq!(fir.on_site(SiteId(1), 0, 0, &[]), None);
        assert_eq!(fir.on_site(SiteId(1), 1, 0, &[]), None);
        assert_eq!(fir.on_site(SiteId(1), 2, 1, &[]), Some(ExceptionType::Io));
        // A later occurrence does not fire again.
        assert_eq!(fir.on_site(SiteId(1), 3, 2, &[]), None);
        assert_eq!(fir.injected_all[0].occurrence, 2);
        assert_eq!(fir.occurrences()[1], 4);
    }

    #[test]
    fn window_injects_first_matching_candidate() {
        let plan = InjectionPlan::window(vec![
            Candidate::exact(SiteId(0), 5, ExceptionType::Io),
            Candidate::exact(SiteId(2), 0, ExceptionType::Socket),
        ]);
        let mut fir = armed(3, plan);
        // Site 0 occurrence 0 does not match (candidate wants occurrence 5).
        assert_eq!(fir.on_site(SiteId(0), 0, 0, &[]), None);
        // Site 2 occurrence 0 matches the second candidate.
        assert_eq!(
            fir.on_site(SiteId(2), 1, 0, &[]),
            Some(ExceptionType::Socket)
        );
        // After one injection the window is closed.
        for t in 2..10 {
            assert_eq!(fir.on_site(SiteId(0), t, 0, &[]), None);
        }
    }

    #[test]
    fn stack_guard_must_match_prefix() {
        let plan = InjectionPlan::window(vec![Candidate {
            site: SiteId(0),
            occurrence: None,
            exc: ExceptionType::Io,
            stack: Some(vec![FuncId(7), FuncId(8)]),
        }]);
        let mut fir = armed(1, plan);
        assert_eq!(fir.on_site(SiteId(0), 0, 0, &[FuncId(7)]), None);
        assert_eq!(fir.on_site(SiteId(0), 1, 0, &[FuncId(8), FuncId(7)]), None);
        assert_eq!(
            fir.on_site(SiteId(0), 2, 0, &[FuncId(7), FuncId(8), FuncId(9)]),
            Some(ExceptionType::Io)
        );
    }

    #[test]
    fn trace_records_log_positions() {
        let mut fir = armed(1, InjectionPlan::none());
        fir.on_site(SiteId(0), 10, 3, &[]);
        fir.on_site(SiteId(0), 20, 7, &[]);
        assert_eq!(fir.trace.len(), 2);
        assert_eq!(fir.trace[0].log_pos, 3);
        assert_eq!(fir.trace[1].occurrence, 1);
        assert_eq!(fir.requests, 2);
    }

    #[test]
    fn a_stage_per_candidate_fires_every_candidate_once() {
        let plan = InjectionPlan::multi(vec![
            Candidate::exact(SiteId(0), 1, ExceptionType::Io),
            Candidate::exact(SiteId(2), 0, ExceptionType::Socket),
        ]);
        let mut fir = armed(3, plan);
        assert_eq!(fir.on_site(SiteId(0), 0, 0, &[]), None);
        assert_eq!(
            fir.on_site(SiteId(2), 1, 0, &[]),
            Some(ExceptionType::Socket)
        );
        // The second candidate still fires after the first injection...
        assert_eq!(fir.on_site(SiteId(0), 2, 1, &[]), Some(ExceptionType::Io));
        // ...but each candidate is consumed after firing.
        assert_eq!(fir.on_site(SiteId(2), 3, 1, &[]), None);
        assert_eq!(fir.injected_all.len(), 2);
        assert_eq!(fir.injected_all[0].candidate.site, SiteId(2));
        assert_eq!(fir.injected_all[1].candidate.site, SiteId(0));
    }

    /// The shape a stitched second stage needs: a window fires one of its
    /// candidates and disarms the rest, and a later stage still fires.
    #[test]
    fn each_window_stage_fires_once_and_disarms_only_itself() {
        let a = Candidate::exact(SiteId(0), 5, ExceptionType::Io);
        let b = Candidate::exact(SiteId(1), 0, ExceptionType::Socket);
        let c = Candidate::exact(SiteId(2), 1, ExceptionType::Timeout);
        let plan = InjectionPlan {
            stages: vec![Stage::Window(vec![a, b]), Stage::Window(vec![c])],
        };
        assert_eq!(plan.armed(), 3);
        let mut fir = armed(3, plan);
        assert_eq!(
            fir.on_site(SiteId(1), 0, 0, &[]),
            Some(ExceptionType::Socket)
        );
        // A shares B's window: it is disarmed, even at its occurrence 5.
        for t in 1..7 {
            assert!(!fir.trace_site(SiteId(0), t, 0));
        }
        assert_eq!(fir.on_site(SiteId(2), 7, 0, &[]), None);
        assert_eq!(
            fir.on_site(SiteId(2), 8, 0, &[]),
            Some(ExceptionType::Timeout)
        );
        assert!(!fir.trace_site(SiteId(2), 9, 0));
        let fired: Vec<_> = (fir.injected_all.iter())
            .map(|r| (r.candidate.site, r.occurrence))
            .collect();
        assert_eq!(fired, [(SiteId(1), 0), (SiteId(2), 1)]);
    }

    #[test]
    fn single_shot_plan_records_one_injection() {
        let mut fir = armed(2, InjectionPlan::exact(SiteId(0), 0, ExceptionType::Io));
        assert_eq!(fir.on_site(SiteId(0), 0, 0, &[]), Some(ExceptionType::Io));
        assert_eq!(fir.on_site(SiteId(0), 1, 1, &[]), None);
        assert_eq!(fir.injected_all.len(), 1);
        assert_eq!(fir.injected_all[0].occurrence, 0);
    }

    #[test]
    fn meta_access_counts_are_insertion_order_independent() {
        let a = StmtRef::new(anduril_ir::BlockId(9), 0);
        let b = StmtRef::new(anduril_ir::BlockId(2), 3);
        // A crash point the accesses never reach: counting is all that
        // happens.
        let mut fir = armed(0, InjectionPlan::crash(a, u32::MAX));
        // First touch the higher-sorting statement, then the lower one:
        // the sorted-vec insert must keep lookups exact for both.
        fir.on_meta_access(a);
        fir.on_meta_access(b);
        fir.on_meta_access(a);
        fir.on_meta_access(a);
        // Sorted by statement, as the binary search requires.
        assert_eq!(fir.meta_occ, vec![(b, 1), (a, 3)]);
    }

    /// The feedback search arms no crash point: a meta access then looks
    /// nothing up and counts nothing.
    #[test]
    fn meta_access_without_a_crash_point_does_nothing() {
        let mut fir = armed(0, InjectionPlan::none());
        assert!(!fir.crash_armed());
        assert!(!fir.on_meta_access(StmtRef::new(anduril_ir::BlockId(1), 0)));
        assert!(fir.meta_occ.is_empty());
        assert!(!fir.crashed);
    }

    /// Only a stack guard makes the caller build a stack, and one armed
    /// request in `TIMED_EVERY` — the first included — reads the clock, the
    /// total scaled up from those.
    #[test]
    fn stack_is_wanted_by_guards_only_and_decisions_are_sampled() {
        let plan = InjectionPlan::window(vec![
            Candidate::exact(SiteId(0), u32::MAX, ExceptionType::Io),
            Candidate {
                site: SiteId(1),
                occurrence: None,
                exc: ExceptionType::Io,
                stack: Some(vec![FuncId(7)]),
            },
        ]);
        let mut fir = armed(3, plan);
        assert!(!fir.guards_stack(SiteId(0)));
        assert!(fir.guards_stack(SiteId(1)));
        assert!(!fir.guards_stack(SiteId(2)));

        assert_eq!((fir.armed_requests, fir.decision_ns()), (0, 0));
        for t in 0..(2 * TIMED_EVERY + 1) {
            assert_eq!(fir.on_site(SiteId(2), t, 0, &[]), None, "not armed");
            assert_eq!(fir.on_site(SiteId(0), t, 0, &[]), None);
        }
        assert_eq!(fir.requests, 2 * (2 * TIMED_EVERY + 1));
        assert_eq!(fir.armed_requests, 2 * TIMED_EVERY + 1);
        assert_eq!(fir.timed_requests, 3);
        // Scaled, not summed: the estimate covers the untimed requests.
        assert!(fir.decision_ns() >= fir.timed_ns);
        fir.timed_ns = 30;
        assert_eq!(fir.decision_ns(), 10 * (2 * TIMED_EVERY + 1));
    }

    #[test]
    fn meta_access_crash_point() {
        let stmt = StmtRef::new(anduril_ir::BlockId(3), 1);
        let mut fir = armed(0, InjectionPlan::crash(stmt, 1));
        assert!(!fir.on_meta_access(stmt));
        assert!(fir.on_meta_access(stmt));
        assert!(!fir.on_meta_access(stmt));
        assert!(fir.crashed);
    }
}
