//! The traced run: per-layer time and counts, measured from outside.
//!
//! Nothing inside the program is instrumented. Each operation is run for
//! real (`SearchContext::prepare`, then `explore`), and then *replayed*
//! through the bench's own copy of the two pipelines — preparation in
//! `prepare_traced`'s order, the round loop in `explore`'s — with a span
//! around every call into a layer. The replay must return what the real
//! search returned. A real call's self time is its duration minus its
//! replayed children: what the bench cannot reach from outside (observable
//! template matching and unit assembly in `prepare`; records and note
//! draining in `explore`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use anduril_causal::{build_graph, Observable, OccurrenceBounds, Reachability};
use anduril_core::{
    explore_batched_traced, explore_traced, FaultUnit, FeedbackStrategy, ReproScript, RoundOutcome,
    SearchContext, Strategy, TraceEvent, VecTracer,
};
use anduril_logdiff::{parse_log, Alignment, InternedLog};
use anduril_sim::{InjectionPlan, SimError};

use crate::calibrate::{slowdown, Yardstick};
use crate::measure::{batch_config, explore_op, explorer_config, failure_of, Outcome};
use crate::workloads::{campaign_seed, Op, Spec};

const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    /// The operation the span belongs to (campaign × operations + index).
    pub op: u32,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Ends whatever an error left open, so later spans do not nest under
    /// it.
    fn close_all(&mut self) {
        let end = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id as usize].end_ns = end;
        }
    }

    fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = call();
        self.close(id);
        out
    }
}

/// Exact counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts {
    pub code_len: u64,
    pub normal_steps: u64,
    pub parse_entries: u64,
    pub graph_nodes: u64,
    pub graph_edges: u64,
    pub units: u64,
    pub pruned_plan_share_sum: f64,
    pub rounds: u64,
    pub rounds_injected: u64,
    pub steps: u64,
    pub ticks: u64,
    pub round_entries: u64,
    pub snapshot_hits: u64,
    pub snapshot_misses: u64,
    pub snapshot_resumed: u64,
    pub snapshot_stored: u64,
    pub epochs: u64,
    pub spec_jobs: u64,
    pub spec_slots: u64,
    pub spec_hits: u64,
}

/// What the replayed preparation built, for comparison with the context.
#[derive(Debug, PartialEq)]
pub struct PrepShape {
    pub graph_nodes: usize,
    pub graph_edges: usize,
    pub distance_tables: usize,
    pub units: usize,
    pub normal_steps: u64,
    pub failure_entries: usize,
}

impl PrepShape {
    pub fn of(ctx: &SearchContext) -> PrepShape {
        PrepShape {
            graph_nodes: ctx.graph.node_count(),
            graph_edges: ctx.graph.edge_count(),
            distance_tables: ctx.distances.len(),
            units: ctx.units.len(),
            normal_steps: ctx.normal.steps,
            failure_entries: ctx.failure.len(),
        }
    }
}

/// Preparation, replayed call by call in `SearchContext::prepare_traced`'s
/// order. The observables come from the real context: matching them to
/// templates is private to `prepare` and stays in its self time.
pub fn replay_prepare(
    rec: &mut Recorder,
    counts: &mut Counts,
    ctx: &SearchContext,
    op: &Op,
    seed: u64,
) -> Result<PrepShape, SimError> {
    let scenario = &op.scenario;
    let program = &scenario.program;
    let parent = rec.open("replay.prepare");

    let compiled = rec.time("ir.compile", || {
        Arc::new(anduril_ir::lower::compile(program))
    });
    counts.code_len += compiled.code.len() as u64;

    let normal = rec.time("sim.normal_run", || {
        scenario.run_compiled(&compiled, seed, InjectionPlan::none())
    })?;
    counts.normal_steps += normal.steps;

    let (failure, interned) = rec.time("logdiff.parse", || {
        let failure = parse_log(&op.failure_log);
        let interned = InternedLog::new(&failure);
        (failure, interned)
    });
    counts.parse_entries += (failure.len() + normal.log.len()) as u64;

    let diff = rec.time("logdiff.prep_diff", || interned.compare(&normal.log));

    let observables: Vec<Observable> = ctx
        .observables
        .iter()
        .map(|o| Observable {
            template: o.template,
        })
        .collect();
    let roots = scenario.roots();
    let (graph, _) = rec.time("causal.graph", || {
        build_graph(program, &observables, &roots)
    });
    counts.graph_nodes += graph.node_count() as u64;
    counts.graph_edges += graph.edge_count() as u64;

    let distance_tables = rec.time("causal.distances", || {
        let mut scratch = Vec::new();
        (0..observables.len())
            .map(|k| graph.distances_into(k, &mut scratch))
            .count()
    });

    rec.time("logdiff.align", || {
        let alignment = Alignment::build(&diff.matches, normal.log.len(), failure.len());
        for t in &normal.trace {
            std::hint::black_box(alignment.map(t.log_pos as f64));
        }
    });

    let reach = rec.time("causal.reach", || Reachability::compute(program, &roots));
    let units = graph
        .sources()
        .into_iter()
        .filter(|site| reach.func(program.sites[site.index()].func))
        .map(|site| program.sites[site.index()].exceptions.len())
        .sum();

    rec.time("causal.bounds", || {
        std::hint::black_box(OccurrenceBounds::compute(program, &scenario.root_calls()));
    });
    rec.close(parent);

    counts.units += ctx.units.len() as u64;
    counts.pruned_plan_share_sum += ctx.pruned_plan_ratio();
    Ok(PrepShape {
        graph_nodes: graph.node_count(),
        graph_edges: graph.edge_count(),
        distance_tables,
        units,
        normal_steps: normal.steps,
        failure_entries: failure.len(),
    })
}

/// The round loop, replayed call by call in `explore`'s order on a fresh
/// context and a fresh strategy. Returns what `explore` returns.
pub fn replay_explore(
    rec: &mut Recorder,
    counts: &mut Counts,
    ctx: &SearchContext,
    op: &Op,
    spec: &Spec,
    seed: u64,
) -> Result<Outcome, SimError> {
    let oracle = &op.oracle;
    let mut strategy = FeedbackStrategy::new(op.feedback.clone());
    let mut outcome = Outcome {
        rounds: 0,
        sim_ticks: ctx.normal.end_time,
        success: false,
        replay_verified: false,
        script: None,
    };
    let parent = rec.open("replay.explore");
    rec.time("core.feedback.init", || strategy.init(ctx));
    for round in 0..spec.max_rounds {
        let plan = rec.time("core.feedback.plan", || strategy.plan_injection(ctx, round));
        // `explore` drains the strategy's notes at these points; the
        // queue must not grow here either.
        strategy.drain_notes();
        let Some(plan) = plan else { break };
        let round_seed = seed + 1 + round as u64;
        let result = rec.time("sim.round", || ctx.run_round(round_seed, plan))?;
        outcome.rounds += 1;
        outcome.sim_ticks += result.end_time;
        counts.rounds += 1;
        counts.steps += result.steps;
        counts.ticks += result.end_time;
        let injected = result
            .injected
            .as_ref()
            .map(|r| (r.candidate.site, r.occurrence, r.candidate.exc));
        counts.rounds_injected += u64::from(injected.is_some());

        let satisfied = rec.time("core.oracle.check", || oracle.check(&result))
            && (injected.is_some() || result.crashed);
        // `explore` asks this for its per-round record of `k*`.
        if let Some((site, _, exc)) = injected {
            rec.time("core.feedback.explain", || {
                std::hint::black_box(strategy.explain_unit(ctx, FaultUnit { site, exc }));
            });
        }
        if satisfied {
            outcome.success = true;
            if let Some((site, occurrence, exc)) = injected {
                let script = ReproScript {
                    seed: round_seed,
                    site,
                    occurrence,
                    exc,
                    desc: ctx.scenario.program.sites[site.index()].desc.clone(),
                };
                let replayed = rec.time("sim.replay", || {
                    ctx.run_round(script.seed, InjectionPlan::exact(site, occurrence, exc))
                });
                outcome.replay_verified = replayed
                    .map(|r| rec.time("core.oracle.check", || oracle.check(&r)))
                    .unwrap_or(false);
                outcome.script = Some(script);
            }
            break;
        }

        counts.round_entries += result.log.len() as u64;
        let round_outcome = rec.time("logdiff.round_diff", || RoundOutcome::new(ctx, result));
        rec.time("core.feedback.feedback", || {
            strategy.feedback(ctx, &round_outcome)
        });
        strategy.drain_notes();
    }
    rec.close(parent);
    Ok(outcome)
}

pub struct Traced {
    pub campaigns: usize,
    operations: usize,
    /// How slow the machine ran during each campaign (see `calibrate`).
    slowdown: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub recorder: Recorder,
    pub counts: Counts,
}

/// Everything the traced run does with one operation. Each search gets a
/// context of its own, for the reason `measure::run_op` gives.
fn trace_op(
    rec: &mut Recorder,
    counts: &mut Counts,
    op: &Op,
    spec: &Spec,
    seed: u64,
) -> Result<Option<String>, SimError> {
    let prepare = || SearchContext::prepare(op.scenario.clone(), &op.failure_log, seed);

    let ctx = rec.time("core.prepare", prepare)?;
    let real = rec.time("core.explore", || {
        explore_op(&ctx, op, spec, seed, spec.batched)
    })?;
    let real = Outcome::of(&real);
    let snapshots = ctx.snapshot_stats();
    counts.snapshot_hits += snapshots.hits;
    counts.snapshot_misses += snapshots.misses;
    counts.snapshot_resumed += snapshots.resumed;
    counts.snapshot_stored += snapshots.stored as u64;

    let shape = replay_prepare(rec, counts, &ctx, op, seed)?;
    if shape != PrepShape::of(&ctx) {
        return Ok(Some(format!(
            "replayed preparation built {shape:?}, prepare built {:?}",
            PrepShape::of(&ctx)
        )));
    }

    let ctx = prepare()?;
    if replay_explore(rec, counts, &ctx, op, spec, seed)? != real {
        return Ok(Some("replayed round loop differs from explore".into()));
    }

    let ctx = prepare()?;
    let tracer = VecTracer::new();
    let mut strategy = FeedbackStrategy::new(op.feedback.clone());
    let cfg = explorer_config(spec, seed);
    let traced = rec.time("core.explore_traced", || {
        if spec.batched {
            let batch = batch_config();
            explore_batched_traced(&ctx, &op.oracle, &mut strategy, &cfg, &batch, None, &tracer)
        } else {
            explore_traced(&ctx, &op.oracle, &mut strategy, &cfg, None, &tracer)
        }
    })?;
    for event in tracer.take() {
        match event {
            TraceEvent::EpochStart { jobs, .. } => {
                counts.epochs += 1;
                counts.spec_jobs += jobs as u64;
            }
            TraceEvent::Speculation { hit, .. } => {
                counts.spec_slots += 1;
                counts.spec_hits += u64::from(hit);
            }
            _ => {}
        }
    }
    if Outcome::of(&traced) != real {
        return Ok(Some("traced search differs from the untraced one".into()));
    }
    Ok(failure_of(op, &real, spec.max_rounds))
}

pub fn run(ops: &[Op], spec: &Spec, seed: u64, campaigns: usize) -> Traced {
    let mut yardstick = Yardstick::new();
    // A traced campaign is some four times an untraced one; at least the
    // eight timings `measure` asks for.
    let calls = spec.yardstick_calls.max(4);
    let mut t = Traced {
        campaigns,
        operations: ops.len(),
        slowdown: Vec::with_capacity(campaigns),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        recorder: Recorder::new(),
        counts: Counts::default(),
    };
    for c in 0..campaigns {
        let s = campaign_seed(seed, c);
        let mut kernel_s = Vec::new();
        yardstick.sample(calls, &mut kernel_s);
        for (i, op) in ops.iter().enumerate() {
            t.recorder.op = (c * ops.len() + i) as u32;
            t.attempted += 1;
            let verdict = trace_op(&mut t.recorder, &mut t.counts, op, spec, s)
                .unwrap_or_else(|e| Some(e.to_string()));
            t.recorder.close_all();
            if let Some(why) = verdict {
                t.failed += 1;
                t.failures.push(format!("{} @{s}: {why}", op.name));
            }
        }
        yardstick.sample(calls, &mut kernel_s);
        t.slowdown.push(slowdown(&kernel_s));
    }
    t
}

/// Key of the seconds summed over a replay's direct children.
fn children_key(parent: &str) -> Option<&'static str> {
    match parent {
        "replay.prepare" => Some("replay.prepare/*"),
        "replay.explore" => Some("replay.explore/*"),
        _ => None,
    }
}

impl Traced {
    /// Seconds per span name, and per replay the seconds of its direct
    /// children, each span divided by its campaign's slowdown: the same
    /// calibrated seconds `campaign_wall_s` is in.
    fn seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = &self.recorder.spans;
        let mut seconds = BTreeMap::new();
        for span in spans {
            let campaign = span.op as usize / self.operations;
            let calibrated = span.seconds() / self.slowdown[campaign];
            *seconds.entry(span.name).or_insert(0.0) += calibrated;
            let parent = spans.get(span.parent as usize).map(|p| p.name);
            if let Some(key) = parent.and_then(children_key) {
                *seconds.entry(key).or_insert(0.0) += calibrated;
            }
        }
        seconds
    }
}

/// The per-layer metrics, by name, per campaign, in calibrated seconds.
pub fn layer_values(
    t: &Traced,
    setup: &crate::workloads::SetupStats,
    batched: bool,
) -> BTreeMap<&'static str, f64> {
    let c = &t.counts;
    let n = t.campaigns as f64;
    let seconds = t.seconds();
    let total = |name: &str| seconds.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("ir.compile_s", "ir.compile"),
        ("sim.normal_run_s", "sim.normal_run"),
        ("sim.round_s", "sim.round"),
        ("sim.replay_s", "sim.replay"),
        ("logdiff.parse_s", "logdiff.parse"),
        ("logdiff.prep_diff_s", "logdiff.prep_diff"),
        ("logdiff.align_s", "logdiff.align"),
        ("logdiff.round_diff_s", "logdiff.round_diff"),
        ("causal.graph_s", "causal.graph"),
        ("causal.distances_s", "causal.distances"),
        ("causal.reach_s", "causal.reach"),
        ("causal.bounds_s", "causal.bounds"),
        ("core.prepare_s", "core.prepare"),
        ("core.explore_s", "core.explore"),
        ("core.feedback.init_s", "core.feedback.init"),
        ("core.feedback.plan_s", "core.feedback.plan"),
        ("core.feedback.feedback_s", "core.feedback.feedback"),
        ("core.feedback.explain_s", "core.feedback.explain"),
        ("core.oracle.check_s", "core.oracle.check"),
    ] {
        v.insert(metric, total(span) / n);
    }
    for (metric, count) in [
        ("ir.code_len", c.code_len),
        ("sim.normal_steps", c.normal_steps),
        ("sim.rounds", c.rounds),
        ("sim.steps", c.steps),
        ("sim.ticks", c.ticks),
        ("sim.snapshot.hits", c.snapshot_hits),
        ("sim.snapshot.misses", c.snapshot_misses),
        ("sim.snapshot.resumed", c.snapshot_resumed),
        ("sim.snapshot.stored", c.snapshot_stored),
        ("logdiff.parse_entries", c.parse_entries),
        ("logdiff.round_entries", c.round_entries),
        ("causal.graph_nodes", c.graph_nodes),
        ("causal.graph_edges", c.graph_edges),
        ("causal.units", c.units),
        ("core.batch.epochs", c.epochs),
        ("core.batch.spec_jobs", c.spec_jobs),
    ] {
        v.insert(metric, count as f64 / n);
    }
    v.insert(
        "sim.ns_per_step",
        ratio(total("sim.round") * 1e9, c.steps as f64),
    );
    v.insert(
        "logdiff.ns_per_entry",
        ratio(total("logdiff.round_diff") * 1e9, c.round_entries as f64),
    );
    v.insert(
        "causal.pruned_plan_share",
        ratio(c.pruned_plan_share_sum, t.attempted as f64),
    );
    v.insert(
        "core.feedback.injected_share",
        ratio(c.rounds_injected as f64, c.rounds as f64),
    );
    v.insert(
        "core.batch.spec_hit_share",
        ratio(c.spec_hits as f64, c.spec_slots as f64),
    );

    let prepare_self = total("core.prepare") - total("replay.prepare/*");
    let explore_self = total("core.explore") - total("replay.explore/*");
    v.insert("core.prepare_self_s", prepare_self / n);
    v.insert("core.explore_self_s", explore_self / n);
    v.insert(
        "core.unattributed_share",
        ratio(
            prepare_self + explore_self,
            total("core.prepare") + total("core.explore"),
        ),
    );
    v.insert(
        "core.batch.explore_s",
        if batched {
            total("core.explore") / n
        } else {
            0.0
        },
    );
    v.insert(
        "core.trace.vec_overhead_share",
        ratio(
            total("core.explore_traced") - total("core.explore"),
            total("core.explore"),
        ),
    );
    v.insert("gen.generate_s", setup.generate_s);
    v.insert("gen.stmts", setup.gen_stmts as f64);
    v.insert("failures.failure_log_s", setup.failure_log_s);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_ops, spec};

    /// The bench's copy of the round loop returns what `explore` returns —
    /// rounds, script and simulated ticks — and its copy of the
    /// preparation builds what `prepare` builds.
    fn assert_replays_match(workload: &str, smoke: bool, seed: u64) {
        let spec = spec(workload).expect("workload");
        let (ops, _) = build_ops(spec, smoke).expect("ops");
        let mut rec = Recorder::new();
        let mut counts = Counts::default();
        for op in &ops {
            let prepare = || {
                SearchContext::prepare(op.scenario.clone(), &op.failure_log, seed).expect("prepare")
            };
            let ctx = prepare();
            let real = explore_op(&ctx, op, spec, seed, false).expect("explore");
            assert!(real.success && real.replay_verified, "{}", op.name);

            let shape = replay_prepare(&mut rec, &mut counts, &ctx, op, seed).expect("replay");
            assert_eq!(shape, PrepShape::of(&ctx), "{}", op.name);

            let replayed =
                replay_explore(&mut rec, &mut counts, &prepare(), op, spec, seed).expect("replay");
            assert_eq!(replayed, Outcome::of(&real), "{}", op.name);
            assert_eq!(
                replayed.script.map(|s| s.to_text()),
                real.script.map(|s| s.to_text()),
                "{}",
                op.name
            );
        }
    }

    #[test]
    fn replays_match_on_all_22_tickets() {
        assert_replays_match("tickets22", false, 1_000);
        assert_replays_match("tickets22", false, 424_242);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "900-round searches; run with --release")]
    fn replays_match_on_the_scaled_scenarios() {
        assert_replays_match("scaled-seq", false, 1_000);
    }

    #[test]
    fn replays_match_on_generated_programs() {
        assert_replays_match("gen-corpus", true, 1_000);
    }

    /// A traced run fails nothing, every child span lies inside its
    /// parent, and the children of one parent never add up to more than
    /// it.
    #[test]
    fn spans_nest_inside_their_parents() {
        let spec = spec("tickets22").expect("workload");
        let (ops, setup) = build_ops(spec, true).expect("ops");
        let t = run(&ops, spec, 1_000, 1);
        assert_eq!((t.attempted, t.failed), (22, 0), "{:?}", t.failures);

        let spans = &t.recorder.spans;
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans {
            assert!(span.start_ns <= span.end_ns, "{}", span.name);
            if span.parent != NO_PARENT {
                let parent = &spans[span.parent as usize];
                assert_eq!(parent.op, span.op);
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                children_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in spans.iter().zip(children_ns) {
            assert!(children <= span.end_ns - span.start_ns, "{}", span.name);
        }

        let values = layer_values(&t, &setup, false);
        for def in &crate::metrics::PER_LAYER {
            assert!(values.contains_key(def.name), "{} not measured", def.name);
        }
        assert_eq!(values.len(), crate::metrics::PER_LAYER.len());
        // No search on a sequential workload can hit the snapshot cache.
        assert_eq!(values["sim.snapshot.hits"], 0.0);
        assert!(values["sim.snapshot.misses"] > 0.0);
    }
}
