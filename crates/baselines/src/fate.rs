//! A FATE-style comparator (§8.4).
//!
//! FATE [Gunawi et al., NSDI '11] assigns *failure IDs* to distinct fault
//! scenarios and explores new IDs first, prioritizing coverage over any
//! specific failure. Our adaptation: every fault site in the *whole
//! program* (no causal pruning) crossed with its declared exception types
//! forms the ID space; the occurrence dimension is explored breadth-first
//! (all sites at occurrence 0, then occurrence 1, …), which is exactly the
//! "cover new scenarios first" policy — and exactly wrong for failures
//! that need a *late* occurrence of an already-seen fault.

use anduril_core::{RoundOutcome, SearchContext, Strategy};
use anduril_sim::InjectionPlan;

use crate::queue::OccurrenceQueue;

/// The FATE-style strategy: breadth-first (occurrence-major) over every
/// candidate site of the program.
#[derive(Debug)]
pub struct Fate {
    queue: OccurrenceQueue,
}

impl Fate {
    /// Creates a FATE explorer with the default window.
    pub fn new() -> Self {
        Fate {
            queue: OccurrenceQueue::new(),
        }
    }
}

impl Default for Fate {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Fate {
    fn name(&self) -> &'static str {
        "fate"
    }

    fn init(&mut self, ctx: &SearchContext) {
        // Breadth-first over occurrences: every distinct failure ID (site ×
        // exception) at occurrence o before any ID at occurrence o+1.
        self.queue.fill(ctx, |_| true);
    }

    fn plan_injection(&mut self, _ctx: &SearchContext, _round: usize) -> Option<InjectionPlan> {
        self.queue.plan_injection()
    }

    fn feedback(&mut self, _ctx: &SearchContext, outcome: &RoundOutcome) {
        self.queue.feedback(outcome);
    }
}
