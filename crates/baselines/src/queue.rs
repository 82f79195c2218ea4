//! The occurrence-major plan queue [`Fate`](crate::Fate) and
//! [`CrashTuner`](crate::CrashTuner)'s exception mode both search by.

use std::collections::HashSet;

use anduril_core::{RoundOutcome, SearchContext, StrategyNote};
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
    pending_notes: Vec<StrategyNote>,
}

impl OccurrenceQueue {
    pub(crate) fn new() -> Self {
        OccurrenceQueue {
            order: Vec::new(),
            tried: HashSet::new(),
            window: 10,
            pending_notes: Vec::new(),
        }
    }

    /// Starts over (the grown window stays): queues every exception of every candidate site `keep` accepts, at
    /// each occurrence the normal run reached, and notes how many of those
    /// plans the static occurrence bounds prove infeasible.
    pub(crate) fn fill(&mut self, ctx: &SearchContext, keep: impl Fn(&FaultSite) -> bool) {
        self.order.clear();
        self.tried.clear();
        self.pending_notes.clear();
        let program = &ctx.scenario.program;
        let max_occ = ctx.site_instances.iter().map(Vec::len).max().unwrap_or(1) as u32;
        let mut bound_pruned = 0usize;
        for occ in 0..max_occ.max(1) {
            for &sid in &ctx.candidate_sites {
                let site = &program.sites[sid.index()];
                if keep(site) && (occ as usize) < ctx.site_instances[sid.index()].len().max(1) {
                    if !ctx.occurrence_feasible(sid, Some(occ)) {
                        bound_pruned += site.exceptions.len();
                    }
                    for &exc in &site.exceptions {
                        self.order.push((sid, occ, exc));
                    }
                }
            }
        }
        if bound_pruned > 0 {
            self.pending_notes.push(StrategyNote::BoundPruned {
                count: bound_pruned,
            });
        }
    }

    /// The next window of untried plans, `None` once every plan has been
    /// tried. Infeasible plans keep their slot in the window — the tool's
    /// pacing is part of what we compare against — but are never armed: a
    /// plan past the static occurrence bound cannot fire, so arming it
    /// would only pretend to spend the slot. Exhaustion is therefore a
    /// property of the queue, not of the armed set: a window of
    /// placeholder-only entries is a (wasted) round, exactly as the tool
    /// would have spent it.
    pub(crate) fn plan_injection(&self, ctx: &SearchContext) -> Option<InjectionPlan> {
        let mut untried = self
            .order
            .iter()
            .filter(|c| !self.tried.contains(c))
            .peekable();
        untried.peek()?;
        let armed = untried
            .take(self.window)
            .filter(|&&(site, occ, _)| ctx.occurrence_feasible(site, Some(occ)))
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

    pub(crate) fn drain_notes(&mut self) -> Vec<StrategyNote> {
        std::mem::take(&mut self.pending_notes)
    }
}
