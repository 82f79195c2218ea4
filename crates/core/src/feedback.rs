//! ANDURIL's feedback-driven prioritization (§5.2) and its ablation
//! variants (§8.3).
//!
//! One configurable strategy implements the whole family:
//!
//! - **Full feedback** (the paper's ANDURIL): observable priorities `I_k`
//!   updated per round (Algorithm 2), spatial distance `L_{i,k}`, fault-site
//!   priority `F_i = min_k (L_{i,k} + I_k)`, temporal instance priority
//!   `T_{i,j,k*}`, two-level site-then-instance selection, flexible window.
//! - **Exhaustive**: every instance of every inferred site, in order.
//! - **Fault-site distance**: `F_i = min_k L_{i,k}` only, no feedback.
//! - **Fault-site distance w/ instance limit**: ditto, first 3 instances.
//! - **Fault-site feedback**: `L + I` but no temporal term, 3 instances.
//! - **Multiply feedback**: ranks `(site, instance)` pairs by
//!   `F_i × (T+1)` instead of the two-level scheme.
//! - **Full adaptive**: full feedback whose observable set grows at each
//!   retry pass ([`crate::adaptive`]); the others keep the paper's.

use std::collections::HashSet;

use anduril_ir::{ExceptionType, SiteId};
use anduril_sim::{Candidate, InjectionPlan};

use crate::adaptive::{self, PromotedSet};
use crate::context::{FaultUnit, RoundOutcome, SearchContext};
use crate::strategy::Strategy;
use crate::trace::{PlanProvenance, StrategyNote};

/// How site and instance priorities combine (§5.2.4 vs the ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Pick the best site first, then its best instance (the paper's
    /// divide-and-conquer).
    TwoLevel,
    /// Rank `(site, instance)` pairs by the product `F_i × (T+1)`.
    Multiply,
}

/// How the partial priorities `p_{i,k}` aggregate into `F_i` (§5.2.4
/// discusses `min` vs `sum`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `F_i = min_k (L_{i,k} + I_k)` — maximize the chance to reproduce
    /// one observable per run (the paper's choice).
    Min,
    /// `F_i = Σ_k (L_{i,k} + I_k)` — try to trigger all observables; less
    /// sensitive to feedback because magnitudes differ per observable.
    Sum,
}

/// Configuration spanning ANDURIL and its ablation variants.
#[derive(Debug, Clone)]
pub struct FeedbackConfig {
    /// Human-readable variant name.
    pub name: &'static str,
    /// Initial flexible-window size `k` (§5.2.5).
    pub initial_window: usize,
    /// Priority adjustment `s` applied to present observables (§5.2.1).
    pub adjust: f64,
    /// Use observable feedback `I_k` (Algorithm 2).
    pub feedback: bool,
    /// Use the temporal term to order instances (§5.2.3); otherwise
    /// instances are tried in occurrence order.
    pub temporal: bool,
    /// Consider only the first `n` instances of each site.
    pub instance_limit: Option<usize>,
    /// Combination scheme.
    pub combine: Combine,
    /// Aggregation of per-observable partial priorities.
    pub aggregate: Aggregate,
    /// Compute observable presence with the naive global diff instead of
    /// the per-thread diff (§5.1.1's ablation).
    pub global_diff: bool,
    /// Ignore priorities entirely and enumerate instances in order.
    pub exhaustive: bool,
    /// Promote observables at each retry pass ([`crate::adaptive`]).
    pub adaptive: bool,
}

impl FeedbackConfig {
    /// The paper's full ANDURIL configuration (defaults: `k = 10`,
    /// `s = +1`).
    pub fn full() -> Self {
        FeedbackConfig {
            name: "full-feedback",
            initial_window: 10,
            adjust: 1.0,
            feedback: true,
            temporal: true,
            instance_limit: None,
            combine: Combine::TwoLevel,
            aggregate: Aggregate::Min,
            global_diff: false,
            exhaustive: false,
            adaptive: false,
        }
    }

    /// The *exhaustive fault instance* variant.
    pub fn exhaustive() -> Self {
        FeedbackConfig {
            name: "exhaustive",
            feedback: false,
            temporal: false,
            exhaustive: true,
            ..Self::full()
        }
    }

    /// The *fault-site distance* variant.
    pub fn site_distance() -> Self {
        FeedbackConfig {
            name: "site-distance",
            feedback: false,
            temporal: false,
            ..Self::full()
        }
    }

    /// The *fault-site distance with instance limit* variant.
    pub fn site_distance_limited() -> Self {
        FeedbackConfig {
            name: "site-distance-limit3",
            instance_limit: Some(3),
            ..Self::site_distance()
        }
    }

    /// The *fault-site feedback* variant (no temporal term).
    pub fn site_feedback() -> Self {
        FeedbackConfig {
            name: "site-feedback",
            feedback: true,
            temporal: false,
            instance_limit: Some(3),
            ..Self::full()
        }
    }

    /// The *multiply feedback* variant.
    pub fn multiply() -> Self {
        FeedbackConfig {
            name: "multiply-feedback",
            combine: Combine::Multiply,
            ..Self::full()
        }
    }

    /// Full feedback with explicit window and adjustment (Table 3 sweeps).
    pub fn full_with(initial_window: usize, adjust: f64) -> Self {
        FeedbackConfig {
            initial_window,
            adjust,
            ..Self::full()
        }
    }

    /// The `sum`-aggregation ablation of §5.2.4.
    pub fn sum_aggregate() -> Self {
        FeedbackConfig {
            name: "sum-aggregate",
            aggregate: Aggregate::Sum,
            ..Self::full()
        }
    }

    /// The instance-order (non-temporal) ablation of §5.2.3, without an
    /// instance cap.
    pub fn order_distance() -> Self {
        FeedbackConfig {
            name: "order-distance",
            temporal: false,
            ..Self::full()
        }
    }

    /// The global-diff ablation of §5.1.1.
    pub fn global_diff() -> Self {
        FeedbackConfig {
            name: "global-diff",
            global_diff: true,
            ..Self::full()
        }
    }

    /// Full feedback that grows its observable set at each retry pass
    /// (DESIGN.md §15); `full` keeps the paper's fixed set.
    pub fn full_adaptive() -> Self {
        FeedbackConfig {
            name: "full-adaptive",
            adaptive: true,
            ..Self::full()
        }
    }
}

/// Why a fault unit is ranked where it is: the §5.2 priority breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The unit being explained.
    pub unit: FaultUnit,
    /// The site-level priority `F_i` (smaller = higher priority).
    pub f_i: f64,
    /// The argmin observable `k*` driving `F_i`.
    pub k_star: usize,
    /// Spatial distance `L_{i,k*}`.
    pub l: u32,
    /// Current observable feedback `I_{k*}`.
    pub i_k: f64,
    /// Best untried instance and its temporal distance `T`, if any
    /// instances remain.
    pub best_instance: Option<(Option<u32>, f64)>,
    /// Current rank of the unit's site (1 = best), if ranked.
    pub rank: Option<usize>,
}

/// The configurable feedback strategy.
#[derive(Debug, Clone)]
pub struct FeedbackStrategy {
    cfg: FeedbackConfig,
    window: usize,
    /// `I_k` per observable, prepared then promoted; smaller is higher
    /// priority. A promotion appends a neutral entry.
    pub(crate) i_priority: Vec<f64>,
    /// Tried `(site, exc, occurrence)` triples (`u32::MAX` = any-occurrence
    /// candidates for sites unseen in the normal run).
    tried: HashSet<(SiteId, ExceptionType, u32)>,
    /// Site ranking from the most recent planning pass (for Figure 6).
    last_ranking: Vec<SiteId>,
    /// Candidates armed in the most recent round, used to retire
    /// any-occurrence candidates that provably cannot fire.
    last_armed: Vec<Candidate>,
    /// Completed passes over the candidate space (see
    /// [`FeedbackStrategy::passes`]).
    passes: usize,
    /// Priority provenance of the most recent plan's top candidate.
    last_provenance: Option<PlanProvenance>,
    /// Lifecycle notes queued for the tracer (drained by the explorer).
    /// Notes queued on speculative clones vanish with the clone.
    pending_notes: Vec<StrategyNote>,
    /// What the search has promoted so far (empty unless `cfg.adaptive`):
    /// observables past the prepared set, and units past
    /// [`SearchContext::units`]. `init` empties it.
    pub(crate) promoted: PromotedSet,
    /// The observables the most recent [`Strategy::feedback`] found
    /// present and applied, prepared then promoted (reused every round).
    present: Vec<usize>,
}

impl FeedbackStrategy {
    /// Creates a strategy with the given configuration.
    pub fn new(cfg: FeedbackConfig) -> Self {
        let window = cfg.initial_window;
        FeedbackStrategy {
            cfg,
            window,
            i_priority: Vec::new(),
            tried: HashSet::new(),
            last_ranking: Vec::new(),
            last_armed: Vec::new(),
            passes: 0,
            last_provenance: None,
            pending_notes: Vec::new(),
            promoted: PromotedSet::default(),
            present: Vec::new(),
        }
    }

    /// The current per-observable feedback priorities `I_k`.
    pub fn observable_priorities(&self) -> &[f64] {
        &self.i_priority
    }

    /// How many full passes over the candidate space have completed.
    ///
    /// Reproduction is probabilistic across runs (§6): an instance that
    /// missed the oracle under one round seed can satisfy it under another,
    /// so when the prioritized space is exhausted the strategy starts a
    /// fresh pass instead of giving up while the round budget remains.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// The planning unit list: the prepared units followed by any a
    /// promotion appended. With nothing promoted this is exactly
    /// [`SearchContext::units`].
    fn units<'c>(&'c self, ctx: &'c SearchContext) -> impl Iterator<Item = FaultUnit> + 'c {
        ctx.units.iter().chain(self.promoted.units()).copied()
    }

    /// Spatial distance `L_{site,k}` of observable `k` (prepared or
    /// promoted) from `site`, if the site is causally connected to it.
    fn distance(&self, ctx: &SearchContext, k: usize, site: SiteId) -> Option<u32> {
        match ctx.distances.get(k) {
            Some(d) => d.get(&site).copied(),
            None => {
                let o = self.promoted.observables().get(k - ctx.distances.len())?;
                o.distances.get(&site).copied()
            }
        }
    }

    /// The instances of a unit's site eligible under the instance limit,
    /// as `(occurrence, mapped_position)`.
    fn instances<'c>(&self, ctx: &'c SearchContext, unit: FaultUnit) -> &'c [(u32, f64)] {
        let all = &ctx.site_instances[unit.site.index()];
        match self.cfg.instance_limit {
            Some(n) => &all[..all.len().min(n)],
            None => all,
        }
    }

    /// Spatial(+feedback) priority of a unit with its best observable.
    ///
    /// Returns `(F_i, k*)` where `k*` is the argmin observable (used for
    /// the temporal term even under `Sum` aggregation).
    fn site_priority(&self, ctx: &SearchContext, unit: FaultUnit) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        let mut sum = 0.0;
        // Prepared observables, then promoted ones: an adaptive promotion
        // reshapes `F_i` from the next planning pass on.
        let promoted = self.promoted.observables().iter().map(|o| &o.distances);
        for (k, dists) in ctx.distances.iter().chain(promoted).enumerate() {
            if let Some(&l) = dists.get(&unit.site) {
                let i_k = if self.cfg.feedback {
                    self.i_priority.get(k).copied().unwrap_or(0.0)
                } else {
                    0.0
                };
                let p = l as f64 + i_k;
                sum += p;
                if best.map(|(b, _)| p < b).unwrap_or(true) {
                    best = Some((p, k));
                }
            }
        }
        match self.cfg.aggregate {
            Aggregate::Min => best,
            Aggregate::Sum => best.map(|(_, k)| (sum, k)),
        }
    }

    /// The best untried instance of a unit for observable `k_star`.
    fn best_instance(
        &self,
        ctx: &SearchContext,
        unit: FaultUnit,
        k_star: usize,
    ) -> Option<(Option<u32>, f64)> {
        let insts = self.instances(ctx, unit);
        if insts.is_empty() {
            // Never exercised in the normal run: fall back to an
            // any-occurrence candidate (fires at the site's first dynamic
            // occurrence if the round happens to reach it).
            if self.tried.contains(&(unit.site, unit.exc, u32::MAX)) {
                return None;
            }
            return Some((None, f64::INFINITY));
        }
        let mut best: Option<(u32, f64)> = None;
        for &(occ, pos) in insts {
            if self.tried.contains(&(unit.site, unit.exc, occ)) {
                continue;
            }
            let t = if self.cfg.temporal {
                ctx.temporal_distance(pos, k_star)
            } else {
                occ as f64 // occurrence order
            };
            if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                best = Some((occ, t));
            }
        }
        best.map(|(occ, t)| (Some(occ), t))
    }

    fn plan_exhaustive(&mut self, ctx: &SearchContext) -> Vec<Candidate> {
        // Exhaustive enumeration has no priority model to explain.
        self.last_provenance = None;
        let mut out = Vec::new();
        'outer: for unit in self.units(ctx) {
            let insts = self.instances(ctx, unit);
            for &(occ, _) in insts {
                if self.tried.contains(&(unit.site, unit.exc, occ)) {
                    continue;
                }
                out.push(Candidate {
                    site: unit.site,
                    occurrence: Some(occ),
                    exc: unit.exc,
                    stack: None,
                });
                if out.len() >= self.window {
                    break 'outer;
                }
            }
        }
        out
    }

    fn plan_prioritized(&mut self, ctx: &SearchContext) -> Vec<Candidate> {
        let plan = self.plan_prioritized_pass(ctx);
        if !plan.is_empty() || self.tried.is_empty() {
            return plan;
        }
        // Every candidate got its one attempt, each against a single round
        // seed. Because reproduction is probabilistic across runs (§6), an
        // occurrence that missed under one seed can still satisfy the
        // oracle under another — start a fresh pass so instances pair with
        // new seeds instead of giving up while the round budget remains.
        // Stall onset is announced before the reset, so trace consumers
        // see the exhausted window/pass pair independently of the retry
        // that follows.
        self.pending_notes.push(StrategyNote::WindowExhausted {
            window: self.window,
            pass: self.passes,
        });
        self.tried.clear();
        self.window = self.cfg.initial_window;
        self.passes += 1;
        self.pending_notes
            .push(StrategyNote::RetryPass { pass: self.passes });
        let at = self.pending_notes.len();
        let plan = self.plan_prioritized_pass(ctx);
        // Promote once the retry pass has planned, so this round plans with
        // the fixed set; the notes go right behind `RetryPass`.
        if self.cfg.adaptive {
            let promoted = adaptive::on_stall(ctx, self);
            self.pending_notes.splice(at..at, promoted);
        }
        plan
    }

    /// State transition for "candidate `(site, exc)` fired at occurrence
    /// key `occ`" — shared by real and speculative feedback.
    fn note_injected(&mut self, site: SiteId, exc: ExceptionType, occ: u32) {
        self.tried.insert((site, exc, occ));
    }

    /// State transition for "nothing in the window occurred" — shared by
    /// real and speculative feedback.
    fn note_no_injection(&mut self) {
        // Double the window (§5.2.5). Saturating: after enough empty
        // rounds the window covers the whole candidate space and must stop
        // growing instead of overflowing.
        self.window = self.window.saturating_mul(2).max(1);
        self.pending_notes.push(StrategyNote::WindowGrew {
            window: self.window,
        });
        // Since *no* candidate fired, every armed any-occurrence candidate
        // had zero dynamic occurrences this round; retire them so they
        // cannot pin the plan open forever once the occurrence-bearing
        // instances are exhausted.
        for c in std::mem::take(&mut self.last_armed) {
            if c.occurrence.is_none() && self.tried.insert((c.site, c.exc, u32::MAX)) {
                self.pending_notes.push(StrategyNote::Retired {
                    site: c.site,
                    exc: c.exc,
                });
            }
        }
    }

    fn plan_prioritized_pass(&mut self, ctx: &SearchContext) -> Vec<Candidate> {
        // Score every unit that still has untried instances — prepared
        // plus promotion-appended, so a coverage promotion's newly
        // connected sites are armable on the very next pass.
        // `(primary, T, unit, occurrence, (F_i, k*))`.
        type Scored = (f64, f64, FaultUnit, Option<u32>, (f64, usize));
        let mut scored: Vec<Scored> = Vec::new();
        for unit in self.units(ctx) {
            let Some((f_i, k_star)) = self.site_priority(ctx, unit) else {
                continue;
            };
            let Some((occ, t)) = self.best_instance(ctx, unit, k_star) else {
                continue;
            };
            let primary = match self.cfg.combine {
                Combine::TwoLevel => f_i,
                Combine::Multiply => f_i * (t + 1.0),
            };
            scored.push((primary, t, unit, occ, (f_i, k_star)));
        }
        // `total_cmp`, not `partial_cmp().unwrap_or(Equal)`: collapsing an
        // incomparable (NaN) score to Equal makes the sort order depend on
        // the comparison sequence — i.e. on the unit iteration order — so
        // two runs could arm different candidates from identical scores.
        // The IEEE total order keeps the ranking a pure function of the
        // score values (NaN sorts after +inf, never silently "ties").
        scored.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.site.cmp(&b.2.site))
                .then(a.2.exc.cmp(&b.2.exc))
        });
        // Record the site ranking for Figure 6.
        self.last_ranking.clear();
        for (_, _, unit, _, _) in &scored {
            if !self.last_ranking.contains(&unit.site) {
                self.last_ranking.push(unit.site);
            }
        }
        // Record the winner's priority provenance for the trace layer.
        let top = scored.first().copied();
        self.last_provenance = top.map(|(_, t, unit, occ, (f_i, k_star))| PlanProvenance {
            site: unit.site,
            exc: unit.exc,
            occurrence: occ,
            f_i,
            k_star,
            l: self.distance(ctx, k_star, unit.site).unwrap_or(u32::MAX),
            i_k: if self.cfg.feedback {
                self.i_priority.get(k_star).copied().unwrap_or(0.0)
            } else {
                0.0
            },
            temporal: t,
        });
        scored
            .into_iter()
            .take(self.window)
            .map(|(_, _, unit, occ, _)| Candidate {
                site: unit.site,
                occurrence: occ,
                exc: unit.exc,
                stack: None,
            })
            .collect()
    }

    /// Explains the current priority of a fault unit (§5.2's terms), or
    /// `None` if the unit is not causally connected to any observable
    /// (used for `anduril explain` and the trace layer's final provenance
    /// chain).
    ///
    /// Call after at least one [`Strategy::plan_injection`] for a
    /// meaningful rank.
    pub fn explain_unit(&self, ctx: &SearchContext, unit: FaultUnit) -> Option<Explanation> {
        let (f_i, k_star) = self.site_priority(ctx, unit)?;
        let l = self.distance(ctx, k_star, unit.site)?;
        let i_k = self.i_priority.get(k_star).copied().unwrap_or(0.0);
        Some(Explanation {
            unit,
            f_i,
            k_star,
            l,
            i_k,
            best_instance: self.best_instance(ctx, unit, k_star),
            rank: self.site_rank(unit.site),
        })
    }

    /// Rank (1 = best) of a fault site in the most recent plan's ordering
    /// (Figure 6).
    pub fn site_rank(&self, site: SiteId) -> Option<usize> {
        self.last_ranking
            .iter()
            .position(|&s| s == site)
            .map(|p| p + 1)
    }

    /// The most recent plan's site ranking, best first.
    ///
    /// Promotion reads this at a retry pass, to focus on the sites the
    /// current observables guide least (see [`crate::adaptive`]).
    pub(crate) fn ranked_sites(&self) -> &[SiteId] {
        &self.last_ranking
    }

    /// Priority provenance of the top-ranked candidate of the most recent
    /// plan (`None` under exhaustive enumeration, which has no priorities
    /// to explain). Feeds the trace layer's `decision` events.
    pub fn provenance(&self) -> Option<PlanProvenance> {
        self.last_provenance.clone()
    }

    /// The log-template text of observable `k`, prepared or promoted.
    pub(crate) fn observable_text(&self, ctx: &SearchContext, k: usize) -> String {
        match ctx.observables.get(k) {
            Some(o) => ctx.scenario.program.templates[o.template.index()]
                .text
                .clone(),
            None => self.promoted.observables()[k - ctx.observables.len()]
                .text
                .clone(),
        }
    }

    /// The observable-feedback view, as `(present, adjust, I_k vector)`,
    /// if this configuration maintains per-observable priorities:
    /// `present` is what the last [`Strategy::feedback`] applied `adjust`
    /// to. Read by the explorer *after* it to emit `feedback` trace
    /// events.
    pub fn feedback_view(&self) -> Option<(&[usize], f64, &[f64])> {
        self.cfg
            .feedback
            .then_some((&self.present[..], self.cfg.adjust, &self.i_priority[..]))
    }

    /// A copy to [`speculate`](Self::speculate) on, as the batch engine
    /// does: it plans as this model does but never promotes, so only the
    /// trusted model grows its observable set (DESIGN.md §15).
    pub fn speculative_copy(&self) -> FeedbackStrategy {
        let mut copy = self.clone();
        copy.cfg.adaptive = false;
        copy
    }

    /// Applies a *predicted* round outcome during speculative batch
    /// planning (see `explore_batched`): `fired` is the candidate the
    /// predictor assumes will inject, with its dynamic occurrence, and no
    /// observables are assumed present — so `I_k` stays put and only the
    /// tried set / window move, as they would in [`Strategy::feedback`].
    ///
    /// Only ever called on a throwaway clone — never on the strategy whose
    /// state the exploration trusts: prediction quality only affects how
    /// many speculative runs can be reused, never which results the
    /// exploration produces.
    pub fn speculate(&mut self, fired: Option<(Candidate, u32)>) {
        match fired {
            Some((c, occ)) => {
                let key = c.occurrence.map(|_| occ).unwrap_or(u32::MAX);
                self.note_injected(c.site, c.exc, key);
            }
            None => self.note_no_injection(),
        }
    }
}

impl Strategy for FeedbackStrategy {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn init(&mut self, ctx: &SearchContext) {
        self.window = self.cfg.initial_window;
        self.i_priority = vec![0.0; ctx.observables.len()];
        self.promoted = PromotedSet::default();
        self.present.clear();
        self.tried.clear();
        self.last_ranking.clear();
        self.last_armed.clear();
        self.passes = 0;
        self.last_provenance = None;
        self.pending_notes.clear();
    }

    fn plan_injection(&mut self, ctx: &SearchContext, _round: usize) -> Option<InjectionPlan> {
        let plan = if self.cfg.exhaustive {
            self.plan_exhaustive(ctx)
        } else {
            self.plan_prioritized(ctx)
        };
        self.last_armed = plan.clone();
        (!plan.is_empty()).then(|| InjectionPlan::window(plan))
    }

    fn feedback(&mut self, ctx: &SearchContext, outcome: &RoundOutcome) {
        match &outcome.result.injected {
            Some(rec) => {
                let occ = rec
                    .candidate
                    .occurrence
                    .map(|_| rec.occurrence)
                    .unwrap_or(u32::MAX);
                self.note_injected(rec.candidate.site, rec.candidate.exc, occ);
            }
            None => self.note_no_injection(),
        }
        if !self.cfg.feedback {
            return;
        }
        // The presence this round applies, completed here and nowhere
        // else: the prepared observables per thread (`outcome.present`),
        // or under the global-diff ablation by the naive whole-log diff,
        // then the promoted witnesses the log shows (key probes either
        // way).
        let log = &outcome.result.log;
        self.present.clear();
        if self.cfg.global_diff {
            self.present.extend(ctx.present_observables_global(log));
        } else {
            self.present.extend_from_slice(&outcome.present);
        }
        self.promoted
            .extend_present(ctx.observables.len(), &mut self.present, log);
        for &k in &self.present {
            if let Some(p) = self.i_priority.get_mut(k) {
                *p += self.cfg.adjust;
            }
        }
    }

    fn drain_notes(&mut self) -> Vec<StrategyNote> {
        std::mem::take(&mut self.pending_notes)
    }

    fn model(&mut self) -> Option<&mut FeedbackStrategy> {
        Some(self)
    }
}
