//! A CrashTuner-style comparator (§8.4).
//!
//! CrashTuner [Lu et al., SOSP '19] injects node *crashes* at accesses to
//! *meta-info variables* (node membership, leadership, epochs), where
//! crash-recovery bugs concentrate. Two modes are provided:
//!
//! - [`CrashTuner::crashes`] — the faithful tool: one node crash per round
//!   at the next `(meta-access point, occurrence)`. It can only reproduce
//!   failures whose oracle is satisfiable by a crash, which is why the
//!   paper reports it reproducing only 4 of 22 failures.
//! - [`CrashTuner::meta_exceptions`] — an adaptation that keeps the
//!   meta-info *timing heuristic* but injects exceptions at fault sites in
//!   functions touching meta-info state, making it comparable on
//!   exception-induced failures.

use std::collections::HashSet;

use anduril_core::{RoundOutcome, SearchContext, Strategy, StrategyNote};
use anduril_ir::{lower::meta_access_points, StmtRef};
use anduril_sim::InjectionPlan;

use crate::queue::OccurrenceQueue;

/// Injection mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Node crashes at meta-info access points (the faithful tool).
    Crashes,
    /// Exceptions at fault sites within meta-touching functions.
    MetaExceptions,
}

/// The CrashTuner-style strategy.
#[derive(Debug)]
pub struct CrashTuner {
    mode: Mode,
    /// Crash mode: `(stmt, occurrence)` queue.
    crash_queue: Vec<(StmtRef, u32)>,
    crash_next: usize,
    /// Exception mode: plans at the sites of meta-touching functions.
    exc_queue: OccurrenceQueue,
}

impl CrashTuner {
    /// The faithful crash-injection mode.
    pub fn crashes() -> Self {
        CrashTuner {
            mode: Mode::Crashes,
            crash_queue: Vec::new(),
            crash_next: 0,
            exc_queue: OccurrenceQueue::new(),
        }
    }

    /// The exception-injection adaptation.
    pub fn meta_exceptions() -> Self {
        CrashTuner {
            mode: Mode::MetaExceptions,
            ..Self::crashes()
        }
    }

    /// Occurrences per crash point explored in crash mode.
    const CRASH_OCCURRENCES: u32 = 3;
}

impl Strategy for CrashTuner {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Crashes => "crashtuner",
            Mode::MetaExceptions => "crashtuner-meta-exc",
        }
    }

    fn init(&mut self, ctx: &SearchContext) {
        let program = &ctx.scenario.program;
        self.crash_queue.clear();
        self.crash_next = 0;
        let points = meta_access_points(program);
        match self.mode {
            Mode::Crashes => {
                for occ in 0..Self::CRASH_OCCURRENCES {
                    for &p in &points {
                        self.crash_queue.push((p, occ));
                    }
                }
            }
            Mode::MetaExceptions => {
                // Functions containing a meta-info access, plus their
                // direct callees (the crash-recovery-relevant code is
                // usually one call away from the membership bookkeeping).
                let mut meta_funcs: HashSet<_> =
                    points.iter().map(|&p| program.func_of_stmt(p)).collect();
                let mut extended = meta_funcs.clone();
                for (sref, stmt) in program.all_stmts() {
                    if let anduril_ir::Stmt::Call { func, .. }
                    | anduril_ir::Stmt::Submit { func, .. }
                    | anduril_ir::Stmt::Spawn { func, .. } = stmt
                    {
                        if meta_funcs.contains(&program.func_of_stmt(sref)) {
                            extended.insert(*func);
                        }
                    }
                }
                meta_funcs = extended;
                self.exc_queue
                    .fill(ctx, |site| meta_funcs.contains(&site.func));
            }
        }
    }

    fn plan_injection(&mut self, ctx: &SearchContext, _round: usize) -> Option<InjectionPlan> {
        match self.mode {
            Mode::Crashes => {
                let &(stmt, occurrence) = self.crash_queue.get(self.crash_next)?;
                self.crash_next += 1;
                Some(InjectionPlan::crash(stmt, occurrence))
            }
            Mode::MetaExceptions => self.exc_queue.plan_injection(ctx),
        }
    }

    fn feedback(&mut self, _ctx: &SearchContext, outcome: &RoundOutcome) {
        if self.mode == Mode::MetaExceptions {
            self.exc_queue.feedback(outcome);
        }
    }

    fn drain_notes(&mut self) -> Vec<StrategyNote> {
        self.exc_queue.drain_notes()
    }
}
