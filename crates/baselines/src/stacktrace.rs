//! The stacktrace-injector baseline (§8.4).
//!
//! Targets the throwables the failure log records at warning or error
//! level (`SearchContext::throwables`, read by `prepare`), and injects only
//! at fault sites inside each one's innermost stack frame, guarded on the
//! runtime stack matching the logged one. Performs well when the failure
//! log is clean and the root-cause fault is logged with its stack; fails
//! when the root cause never reached a log, and wastes rounds when the
//! logged site executes frequently.
//!
//! It does not search by the crate's `OccurrenceQueue`, and its shape is
//! why: that queue is one occurrence-major list of plans taken a window at
//! a time, each plan tried once. Here every target is armed in every
//! round, each at its own `next_occ` cursor and under its own stack guard,
//! and a cursor moves only when its target fired (or nothing did).

use std::collections::HashSet;

use anduril_core::{RoundOutcome, SearchContext, Strategy};
use anduril_ir::SiteId;
use anduril_sim::{Candidate, InjectionPlan};

/// One `(site, stack)` injection target: a site of a logged throwable.
#[derive(Debug, Clone)]
struct Target {
    site: SiteId,
    /// Index of the throwable in `SearchContext::throwables`: its
    /// exception is injected, guarded on its stack.
    throwable: usize,
    next_occ: u32,
    max_occ: u32,
}

/// The stacktrace-injector strategy.
#[derive(Debug, Default)]
pub struct StacktraceInjector {
    targets: Vec<Target>,
}

impl StacktraceInjector {
    /// Creates an empty injector; targets are taken from the context's
    /// logged throwables in `init`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Strategy for StacktraceInjector {
    fn name(&self) -> &'static str {
        "stacktrace-injector"
    }

    fn init(&mut self, ctx: &SearchContext) {
        self.targets.clear();
        // A `(site, stack)` pair logged twice is one target: the first.
        let mut seen = HashSet::new();
        for (i, t) in ctx.throwables.iter().enumerate() {
            for &site in &t.sites {
                if seen.insert((site, &t.stack[..])) {
                    // The occurrence sweep's horizon: every instance the
                    // fault-free run reached.
                    self.targets.push(Target {
                        site,
                        throwable: i,
                        next_occ: 0,
                        max_occ: ctx.site_instances[site.index()].len().max(1) as u32,
                    });
                }
            }
        }
        self.targets.sort_by_key(|t| t.site);
    }

    fn plan_injection(&mut self, ctx: &SearchContext, _round: usize) -> Option<InjectionPlan> {
        // Arm every target at its next untried occurrence, stack-guarded.
        let armed: Vec<Candidate> = (self.targets.iter())
            .filter(|t| t.next_occ < t.max_occ)
            .map(|t| {
                let logged = &ctx.throwables[t.throwable];
                Candidate {
                    site: t.site,
                    occurrence: Some(t.next_occ),
                    exc: logged.exc,
                    stack: Some(logged.stack.clone()),
                }
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
