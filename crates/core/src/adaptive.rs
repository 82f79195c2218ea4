//! Adaptive observable promotion — co-evolving the observable set with
//! the search.
//!
//! The paper fixes the observable set once at context preparation (§5.1),
//! which stalls when the failure log is too sparse to connect the true
//! root cause: the causal graph built from the prepared observables never
//! reaches the neighbourhood of the fault, so the responsible sites are
//! either invisible to planning entirely (not graph sources, hence not
//! fault units) or share one coarse `F_i` and the search degenerates to
//! sweeping. This module makes instrumentation itself a search variable
//! (the ROADMAP's adaptive-promotion item), in the spirit of "Box of
//! Pain" (tracing and fault injection co-evolve) and Lumos
//! (provenance-guided selection of *which* program points to observe
//! next): when a `full-adaptive` model
//! ([`FeedbackConfig::full_adaptive`](crate::FeedbackConfig::full_adaptive))
//! stalls — its prioritized space runs dry and it starts a §6 retry pass —
//! it promotes synthetic observables and folds them into the live search
//! without re-preparing the context.
//!
//! Promotion is coverage: a reachable candidate site with *no* fault unit
//! has effectively infinite `F_i` — prioritized planning cannot arm it at
//! all. The layer picks a hole-free witness log statement in the site's
//! own function, runs one *scoped* causal build over just that witness
//! ([`anduril_causal::build_graph_over`] the program's facts, with a
//! single-observable set), and promotes it together with every fault unit
//! the scoped graph newly connects.
//!
//! A promotion is a handful of incremental appends (see DESIGN.md §15),
//! all into the priority model: one scoped build for the new distance
//! table, one intern-table append for the witness `(level, body)` key, the
//! fault units it connected — into the model's own `PromotedSet` — and
//! one neutral `I_k` entry, in the same step. No phase of
//! [`SearchContext::prepare`] reruns, and the context is never written:
//! the set is a field of the [`FeedbackStrategy`] the search plans with,
//! which `init` empties, so it starts empty with every search and ends
//! with it. The model also owns what the set is for:
//! [`Strategy::feedback`](crate::Strategy::feedback) adds the promoted
//! witnesses a round's log shows to the presence it applies.
//!
//! Promotion acts on the §5.2 priority model — the unit list it plans
//! over, the `I_k` vector it extends — and the model is the one caller:
//! at its own pass boundary, right after the retry pass has
//! planned, so that round's plan is what it would be without adaptation.
//! The promotions reach the trace as
//! [`StrategyNote::ObservablePromoted`] notes queued behind the
//! `WindowExhausted` note; the round loop knows nothing of them.
//!
//! Determinism: every input (unit list, graphs, normal-run template set)
//! is itself deterministic. The batch engine's speculative
//! copies never promote; their plans simply miss validation after a
//! promotion and re-run inline, so sequential and batched streams stay
//! byte-identical with adaptation on.

use std::collections::{HashMap, HashSet};

use anduril_causal::{build_graph_over, Observable, ProgramFacts};
use anduril_ir::{BlockId, FuncId, Level, SiteId, Stmt, TemplateId};
use anduril_logdiff::{DiffRecord, InternTable};

use crate::context::{FaultUnit, SearchContext};
use crate::feedback::FeedbackStrategy;
use crate::trace::StrategyNote;

/// Total promotions allowed over one exploration (caps the `I_k` growth
/// and keeps late passes comparable to early ones). Promotions are not
/// rationed per stall: an uncovered site is invisible to planning, and
/// stalls grow rarer as promotions lengthen passes, so trickling coverage
/// out one stall at a time can starve the sites found last.
const MAX_PROMOTIONS: usize = 8;

/// A synthetic observable promoted into the live search.
///
/// Unlike a prepared [`ObservableInfo`](crate::ObservableInfo), a
/// promotion has no failure-log positions (it is not a failure-only
/// message), so its temporal distance is infinite; it contributes purely
/// through its spatial distance table and its presence feedback. Its
/// witness template is hole-free by construction, so presence in a round
/// log is a single interned `(level, body)` key probe.
#[derive(Debug, Clone)]
pub(crate) struct PromotedObservable {
    /// The witness log template.
    template: TemplateId,
    /// The witness's rendered body (a hole-free template renders to its
    /// own text).
    pub(crate) text: String,
    /// `distances[site]` = spatial distance `L` from the site to the
    /// witness, from the promotion's scoped causal build.
    pub(crate) distances: HashMap<SiteId, u32>,
    /// The witness token in the promoted set's own intern table.
    token: u32,
}

/// The observables (and fault units) one search has promoted so far —
/// the appendable half of its observable set, a field of the priority
/// model.
///
/// Observable indices `k < ctx.observables.len()` are the prepared set;
/// `ctx.observables.len() + j` is promotion `j`. The set owns a *fresh*
/// [`InternTable`] for witness keys — the context's frozen failure table
/// is never touched.
#[derive(Debug, Clone, Default)]
pub(crate) struct PromotedSet {
    table: InternTable,
    obs: Vec<PromotedObservable>,
    /// Fault units a promotion's scoped causal build discovered — sites
    /// the *prepared* graph never reached (its observable set was too
    /// sparse to connect them), so they are absent from
    /// [`SearchContext::units`] and prioritized planning could never arm
    /// them.
    units: Vec<FaultUnit>,
}

impl PromotedSet {
    /// Promoted observables in promotion order.
    pub(crate) fn observables(&self) -> &[PromotedObservable] {
        &self.obs
    }

    /// Fault units appended by promotions, in promotion order. The model
    /// plans over [`SearchContext::units`] chained with these.
    pub(crate) fn units(&self) -> &[FaultUnit] {
        &self.units
    }

    /// Appends to `present` the index (`base + j`, `base` being the
    /// prepared observable count) of every promoted observable whose
    /// witness key occurs in `records`.
    pub(crate) fn extend_present<R: DiffRecord>(
        &self,
        base: usize,
        present: &mut Vec<usize>,
        records: &[R],
    ) {
        if self.obs.is_empty() {
            return;
        }
        // One probe per record, not one per (promotion, record): witness
        // tokens come from this set's own table, so they index `seen`.
        let mut seen = vec![false; self.table.len()];
        for r in records {
            if let Some(s) = seen.get_mut(self.table.lookup(r.level(), r.body()) as usize) {
                *s = true;
            }
        }
        let witnessed = self
            .obs
            .iter()
            .enumerate()
            .filter(|(_, o)| seen[o.token as usize]);
        present.extend(witnessed.map(|(j, _)| base + j));
    }
}

/// Reacts to a stall (the retry pass the model just started): promotes a
/// synthetic observable for each candidate site no fault unit spans into
/// the model's set and `I_k`, and returns one
/// [`StrategyNote::ObservablePromoted`] per promotion for the model to
/// queue.
///
/// A reachable candidate site without a fault unit is invisible to
/// planning — the prepared observables' causal graph never reached it, so
/// it is not a graph source. One scoped causal build over a witness in the
/// site's own function both yields the new distance table and discovers
/// the fault units the sparse preparation missed. A witness whose graph
/// does not reach the site cannot move its `F_i` and is skipped, so
/// adaptation never spends its budget on no-ops. No existing observable
/// reaches an uncovered site: every reachable source of a prepared or
/// promoted graph is a unit.
pub(crate) fn on_stall(ctx: &SearchContext, model: &mut FeedbackStrategy) -> Vec<StrategyNote> {
    let program = &ctx.scenario.program;
    // Existing observable templates (prepared and already promoted) are
    // never promoted again.
    let mut exclude: HashSet<TemplateId> = ctx.observables.iter().map(|o| o.template).collect();
    exclude.extend(model.promoted.obs.iter().map(|o| o.template));
    // Templates the fault-free run already emits make weak witnesses
    // (they fire every round); they are last-resort fallbacks only.
    let common: HashSet<TemplateId> = ctx.normal.log.iter().map(|e| e.template).collect();
    let mut unit_sites: HashSet<SiteId> = ctx.units.iter().map(|u| u.site).collect();
    unit_sites.extend(model.promoted.units.iter().map(|u| u.site));

    let uncovered: Vec<SiteId> = ctx
        .candidate_sites
        .iter()
        .copied()
        .filter(|s| !unit_sites.contains(s) && !program.sites[s.index()].exceptions.is_empty())
        .collect();

    let mut notes = Vec::new();
    let mut scratch = Vec::new();
    for site in uncovered {
        if model.promoted.obs.len() >= MAX_PROMOTIONS {
            break;
        }
        // An earlier promotion of this stall may have connected the site
        // already.
        if unit_sites.contains(&site) {
            continue;
        }
        let func = program.sites[site.index()].func;
        let Some((template, level, witness_desc)) =
            coverage_witness(program, func, &exclude, &common)
        else {
            continue;
        };
        let (g, _timings) = build_graph_over(
            program,
            ProgramFacts::of(program),
            &[Observable { template }],
            &ctx.scenario.roots(),
        );
        let distances = g.distances_into(0, &mut scratch);
        let Some(&l_new) = distances.get(&site) else {
            continue;
        };
        // Every reachable site the scoped graph connects that planning
        // could not arm before becomes a fault unit.
        let mut new_units = Vec::new();
        for s in g.sources() {
            if unit_sites.contains(&s) || !ctx.candidate_sites.contains(&s) {
                continue;
            }
            for &exc in &program.sites[s.index()].exceptions {
                new_units.push(FaultUnit { site: s, exc });
            }
        }
        let units_added = new_units.len();
        unit_sites.extend(new_units.iter().map(|u| u.site));
        let text = program.templates[template.index()].text.clone();
        exclude.insert(template);

        // The whole incremental re-preparation: the witness key is
        // interned into the set's own table, the units join the unit
        // list, and `I_k` gains one neutral entry (no accumulated
        // feedback) in the same step.
        let set = &mut model.promoted;
        let token = set.table.append(level, &text);
        set.obs.push(PromotedObservable {
            template,
            text: text.clone(),
            distances,
            token,
        });
        set.units.extend(new_units);
        model.i_priority.push(0.0);
        notes.push(StrategyNote::ObservablePromoted {
            k: ctx.observables.len() + set.obs.len() - 1,
            template: text,
            site,
            node_desc: witness_desc,
            pass: model.passes(),
            l_new,
            units_added,
        });
    }
    notes
}

/// A hole-free witness log statement in `func` for a coverage promotion:
/// the first (block, statement) — in block order — whose template is not
/// already an observable, preferring templates the fault-free run never
/// emits (a failure-indicating witness gives presence feedback real
/// signal; a common one only contributes distance).
fn coverage_witness(
    program: &anduril_ir::Program,
    func: FuncId,
    exclude: &HashSet<TemplateId>,
    common: &HashSet<TemplateId>,
) -> Option<(TemplateId, Level, String)> {
    let mut fallback = None;
    for (bidx, stmts) in program.blocks.iter().enumerate() {
        let b = BlockId(bidx as u32);
        if program.func_of_block(b) != func {
            continue;
        }
        for (idx, stmt) in stmts.iter().enumerate() {
            let Stmt::Log {
                level,
                template,
                args,
                ..
            } = stmt
            else {
                continue;
            };
            if !args.is_empty() || exclude.contains(template) {
                continue;
            }
            let desc = format!(
                "log @ b{bidx}:{idx} in {}",
                program.funcs[func.index()].name
            );
            if common.contains(template) {
                if fallback.is_none() {
                    fallback = Some((*template, *level, desc));
                }
                continue;
            }
            return Some((*template, *level, desc));
        }
    }
    fallback
}
