//! The exploration-strategy interface.
//!
//! The Explorer's round loop is strategy-agnostic: it asks a [`Strategy`]
//! for a round's injection plan and hands it the outcome of a round that
//! missed — four calls (`name`, `init`, `plan_injection`, `feedback`) and
//! [`Strategy::model`]. ANDURIL's full feedback algorithm lives in
//! [`crate::feedback::FeedbackStrategy`]; the paper's ablation variants are
//! alternative configurations of it, and the external comparators (FATE,
//! CrashTuner, stacktrace-injector) implement this trait in
//! `anduril-baselines`.
//!
//! Everything else the Explorer can do with a strategy — trace why a plan
//! ranked first and the lifecycle notes the search queued, record Figure
//! 6's rank, promote observables on a stall, speculate on a copy — needs
//! the priority model of §5.2, which only the feedback family has. Those
//! are inherent methods of [`FeedbackStrategy`], reached through
//! [`Strategy::model`]; a strategy without the model answers `None` and
//! the Explorer skips them.

use anduril_sim::InjectionPlan;

use crate::context::{RoundOutcome, SearchContext};
use crate::feedback::FeedbackStrategy;

/// A pluggable candidate-selection policy.
pub trait Strategy {
    /// Strategy name for reports and tables.
    fn name(&self) -> &'static str;

    /// Called once, after the context (normal run, causal graph) is built.
    fn init(&mut self, ctx: &SearchContext);

    /// Returns the injection plan for a round: the candidates to arm (the
    /// priority window) or, for CrashTuner, a node crash. `None` means
    /// the search space is exhausted.
    fn plan_injection(&mut self, ctx: &SearchContext, round: usize) -> Option<InjectionPlan>;

    /// Digests the outcome of an unsuccessful round.
    fn feedback(&mut self, ctx: &SearchContext, outcome: &RoundOutcome);

    /// The §5.2 priority model, if this strategy is one.
    fn model(&mut self) -> Option<&mut FeedbackStrategy> {
        None
    }
}
