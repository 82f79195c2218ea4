//! The occurrence-major plan queue [`Fate`](crate::Fate) and
//! [`CrashTuner`](crate::CrashTuner)'s exception mode both search by.

use std::collections::HashSet;

use anduril_core::{RoundOutcome, SearchContext};
use anduril_ir::{ExceptionType, FaultSite, SiteId};
use anduril_sim::{Candidate, InjectionPlan};

/// `(site, occurrence, exception)` plans, every plan at occurrence `o`
/// ahead of any at `o + 1`, armed a window at a time.
#[derive(Debug)]
pub(crate) struct OccurrenceQueue {
    order: Vec<(SiteId, u32, ExceptionType)>,
    tried: HashSet<(SiteId, u32, ExceptionType)>,
    /// Plans taken off the queue per round.
    window: usize,
}

impl OccurrenceQueue {
    pub(crate) fn new() -> Self {
        OccurrenceQueue {
            order: Vec::new(),
            tried: HashSet::new(),
            window: 10,
        }
    }

    /// Starts over (the grown window stays): queues every exception of
    /// every candidate site `keep` accepts, at each occurrence the normal
    /// run reached.
    pub(crate) fn fill(&mut self, ctx: &SearchContext, keep: impl Fn(&FaultSite) -> bool) {
        self.order.clear();
        self.tried.clear();
        let program = &ctx.scenario.program;
        let max_occ = ctx.site_instances.iter().map(Vec::len).max().unwrap_or(1) as u32;
        for occ in 0..max_occ.max(1) {
            for &sid in &ctx.candidate_sites {
                let site = &program.sites[sid.index()];
                if keep(site) && (occ as usize) < ctx.site_instances[sid.index()].len().max(1) {
                    for &exc in &site.exceptions {
                        self.order.push((sid, occ, exc));
                    }
                }
            }
        }
    }

    /// The next window of untried plans, `None` once every plan has been
    /// tried.
    pub(crate) fn plan_injection(&self) -> Option<InjectionPlan> {
        let mut untried = self
            .order
            .iter()
            .filter(|c| !self.tried.contains(c))
            .peekable();
        untried.peek()?;
        let armed = untried
            .take(self.window)
            .map(|&(site, occ, exc)| Candidate {
                site,
                occurrence: Some(occ),
                exc,
                stack: None,
            })
            .collect();
        Some(InjectionPlan::window(armed))
    }

    /// Retires the plan that fired; a round nothing fired in doubles the
    /// window.
    pub(crate) fn feedback(&mut self, outcome: &RoundOutcome) {
        if let Some(rec) = &outcome.result.injected {
            self.tried
                .insert((rec.candidate.site, rec.occurrence, rec.candidate.exc));
        } else {
            self.window = (self.window * 2).min(4_096);
        }
    }
}
