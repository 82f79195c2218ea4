//! The stacktrace-injector baseline (§8.4).
//!
//! Extracts every warning/error record in the failure log that carries a
//! throwable, and injects only at fault sites inside the innermost stack
//! frame, guarded on the runtime stack matching the logged one. Performs
//! well when the failure log is clean and the root-cause fault is logged
//! with its stack; fails when the root cause never reached a log, and
//! wastes rounds when the logged site executes frequently.
//!
//! It does not search by the crate's `OccurrenceQueue`, and its shape is
//! why: that queue is one occurrence-major list of plans taken a window at
//! a time, each plan tried once. Here every target is armed in every
//! round, each at its own `next_occ` cursor and under its own stack guard,
//! and a cursor moves only when its target fired (or nothing did).

use std::collections::HashSet;

use anduril_core::{RoundOutcome, SearchContext, Strategy};
use anduril_ir::{ExceptionType, FuncId, Level, SiteId};
use anduril_sim::{Candidate, InjectionPlan};

/// One extracted `(site, stack)` injection target.
#[derive(Debug, Clone)]
struct Target {
    site: SiteId,
    exc: ExceptionType,
    stack: Vec<FuncId>,
    next_occ: u32,
    max_occ: u32,
}

/// The stacktrace-injector strategy.
#[derive(Debug, Default)]
pub struct StacktraceInjector {
    targets: Vec<Target>,
}

impl StacktraceInjector {
    /// Creates an empty injector; targets are extracted in `init`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of static targets extracted from the failure log.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }
}

impl Strategy for StacktraceInjector {
    fn name(&self) -> &'static str {
        "stacktrace-injector"
    }

    fn init(&mut self, ctx: &SearchContext) {
        self.targets.clear();
        let program = &ctx.scenario.program;
        let mut seen: HashSet<(SiteId, Vec<FuncId>)> = HashSet::new();
        for entry in &ctx.failure {
            if entry.level < Level::Warn || entry.stack.is_empty() {
                continue;
            }
            // Parse the exception class from the rendered throwable line.
            let exc = entry
                .exc
                .as_deref()
                .and_then(|e| ExceptionType::parse(e.split(':').next().unwrap_or(e)));
            let Some(exc) = exc else { continue };
            // Resolve logged frame names to function ids (innermost first).
            let stack: Vec<FuncId> = entry
                .stack
                .iter()
                .filter_map(|f| program.func_named(f))
                .collect();
            let Some(&innermost) = stack.first() else {
                continue;
            };
            // Candidate sites: reachable fault sites inside the innermost
            // frame that can throw the logged exception type.
            for &sid in &ctx.candidate_sites {
                let site = &program.sites[sid.index()];
                if site.func == innermost && site.exceptions.contains(&exc) {
                    let key = (sid, stack.clone());
                    if seen.insert(key) {
                        // The occurrence sweep's horizon: every instance
                        // the fault-free run reached.
                        self.targets.push(Target {
                            site: sid,
                            exc,
                            stack: stack.clone(),
                            next_occ: 0,
                            max_occ: ctx.site_instances[sid.index()].len().max(1) as u32,
                        });
                    }
                }
            }
        }
        self.targets.sort_by_key(|t| t.site);
    }

    fn plan_injection(&mut self, _ctx: &SearchContext, _round: usize) -> Option<InjectionPlan> {
        // Arm every target at its next untried occurrence, stack-guarded.
        let armed: Vec<Candidate> = self
            .targets
            .iter()
            .filter(|t| t.next_occ < t.max_occ)
            .map(|t| Candidate {
                site: t.site,
                occurrence: Some(t.next_occ),
                exc: t.exc,
                stack: Some(t.stack.clone()),
            })
            .collect();
        (!armed.is_empty()).then(|| InjectionPlan::window(armed))
    }

    fn feedback(&mut self, _ctx: &SearchContext, outcome: &RoundOutcome) {
        match &outcome.result.injected {
            Some(rec) => {
                for t in &mut self.targets {
                    if t.site == rec.candidate.site && t.next_occ == rec.occurrence {
                        t.next_occ += 1;
                    }
                }
            }
            None => {
                // Nothing in this round's plan occurred: advance every
                // target so the search makes progress.
                for t in &mut self.targets {
                    if t.next_occ < t.max_occ {
                        t.next_occ += 1;
                    }
                }
            }
        }
    }
}
