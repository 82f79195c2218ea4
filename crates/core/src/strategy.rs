//! The exploration-strategy interface.
//!
//! The Explorer's round loop is strategy-agnostic: a [`Strategy`] decides
//! which candidates to arm each round and how to digest feedback from an
//! unsuccessful injection. ANDURIL's full feedback algorithm lives in
//! [`crate::feedback::FeedbackStrategy`]; the paper's ablation variants are
//! alternative configurations of it, and the external comparators (FATE,
//! CrashTuner, stacktrace-injector) implement this trait in
//! `anduril-baselines`.

use std::sync::Arc;

use anduril_ir::SiteId;
use anduril_sim::{Candidate, InjectionPlan};

use crate::adaptive::PromotedSet;
use crate::context::{FaultUnit, RoundOutcome, SearchContext};
use crate::feedback::Explanation;
use crate::trace::{PlanProvenance, StrategyNote};

/// A pluggable candidate-selection policy.
pub trait Strategy {
    /// Strategy name for reports and tables.
    fn name(&self) -> &'static str;

    /// Called once, after the context (normal run, causal graph) is built.
    fn init(&mut self, ctx: &SearchContext);

    /// Returns the candidates to arm for this round (the priority window).
    ///
    /// An empty vector means the strategy has exhausted its search space.
    fn plan_round(&mut self, ctx: &SearchContext, round: usize) -> Vec<Candidate>;

    /// Returns the full injection plan for a round.
    ///
    /// The default wraps [`Strategy::plan_round`] into a window plan;
    /// strategies that inject node crashes (CrashTuner) override this.
    /// `None` means the search space is exhausted.
    fn plan_injection(&mut self, ctx: &SearchContext, round: usize) -> Option<InjectionPlan> {
        let candidates = self.plan_round(ctx, round);
        if candidates.is_empty() {
            None
        } else {
            Some(InjectionPlan::window(candidates))
        }
    }

    /// Digests the outcome of an unsuccessful round.
    fn feedback(&mut self, ctx: &SearchContext, outcome: &RoundOutcome);

    /// Applies a *predicted* round outcome during speculative batch
    /// planning (see `explore_batched`): `fired` is the candidate the
    /// predictor assumes will inject, with its dynamic occurrence, and no
    /// observables are assumed present.
    ///
    /// Only ever called on a throwaway clone — never on the strategy whose
    /// state the exploration trusts. The default no-op is always sound:
    /// prediction quality only affects how many speculative runs can be
    /// reused, never which results the exploration produces.
    fn speculate(&mut self, _ctx: &SearchContext, _fired: Option<(Candidate, u32)>) {}

    /// Current rank of a fault site in the strategy's ordering, if the
    /// strategy ranks sites (used for Figure 6).
    fn site_rank(&self, _site: SiteId) -> Option<usize> {
        None
    }

    /// Priority provenance of the top-ranked candidate from the most
    /// recent [`Strategy::plan_round`], if the strategy ranks by priority.
    ///
    /// Feeds the trace layer's `decision` events; strategies without a
    /// priority model (the external comparators) return `None`.
    fn provenance(&self) -> Option<PlanProvenance> {
        None
    }

    /// Explains the current priority of a fault unit in the strategy's own
    /// terms, if it has any (used for the trace layer's final provenance
    /// chain and the per-round `k*` record).
    fn explain_unit(&self, _ctx: &SearchContext, _unit: FaultUnit) -> Option<Explanation> {
        None
    }

    /// The strategy's observable-feedback view, as `(adjust, I_k vector)`,
    /// if it maintains per-observable priorities. Read by the explorer
    /// *after* [`Strategy::feedback`] to emit `feedback` trace events.
    fn feedback_view(&self) -> Option<(f64, Vec<f64>)> {
        None
    }

    /// Drains lifecycle notes (retry passes, window growth, candidate
    /// retirements) queued since the last drain. The explorer owns the
    /// tracer, so strategies queue notes instead of emitting events.
    fn drain_notes(&mut self) -> Vec<StrategyNote> {
        Vec::new()
    }

    /// The strategy's current site ranking, best first, if it ranks sites.
    ///
    /// The adaptive layer reads this when a stall note surfaces, to focus
    /// observable promotion near the sites the strategy currently believes
    /// in (see [`crate::adaptive`]).
    fn ranked_sites(&self) -> Vec<SiteId> {
        Vec::new()
    }

    /// Notifies the strategy that the search promoted an observable, and
    /// hands it everything promoted so far (see [`crate::adaptive`]):
    /// observable `ctx.observables.len() + j` is `promoted.observables()[j]`.
    ///
    /// Strategies holding per-observable state — the `I_k` priority vector
    /// — extend it with neutral entries here, so feedback for promoted
    /// indices lands instead of being silently dropped, and keep the set
    /// to plan over its distance tables and appended units. Only ever
    /// called on the trusted strategy, between rounds.
    fn observables_appended(&mut self, _ctx: &SearchContext, _promoted: Arc<PromotedSet>) {}
}
