//! Fault planting, failure-log derivation, and soundness verification.
//!
//! The generator never *guesses* a ground truth: it plants one. A
//! synthesized program's critical handler only misbehaves when its
//! external site actually throws, and externals only throw when the
//! injector fires — so the fault-free run is healthy by construction,
//! and the failure log is *derived* by simulating the planted plan and
//! checking the oracle against the real result. What ships in a
//! [`GeneratedCase`] is therefore reproducible by definition, not by
//! hope.
//!
//! Nor does it *search* for the plant: a run armed with `exact(site, k)`
//! is the fault-free run up to the `k`-th hit, so whether probe `k` meets
//! the phase gate closed ([`GenProgram::warmup_needle`]) is monotone in
//! `k` and the crossing is bisected, and a cascade's second fault starts
//! where the fault-free trace puts the first. A bisection probe stops
//! once the gate has answered, just past the time the fault-free trace
//! puts the `k`-th hit at. The planter's one probe loop starts at a
//! computed index; [`GeneratedCase::runs`] counts the runs and
//! [`GeneratedCase::steps`] what they cost.

use std::cell::Cell;
use std::sync::Arc;

use anduril_core::{Oracle, Scenario, SearchContext};
use anduril_failures::FailureCase;
use anduril_ir::{CompiledProgram, ExceptionType, SiteId, Value};
use anduril_sim::rng::SmallRng;
use anduril_sim::{InjectionPlan, RunResult, SimConfig};

use crate::grammar::{synthesize, GenProgram, SizeClass, DEGRADED_GLOBAL};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Master seed; case `i` derives its own sub-seed from it.
    pub seed: u64,
    /// Program size class.
    pub size: SizeClass,
    /// Plant a two-fault cascade instead of a single fault.
    pub multi_fault: bool,
}

impl GenConfig {
    /// Small single-fault cases from a master seed.
    pub fn new(seed: u64) -> GenConfig {
        GenConfig {
            seed,
            size: SizeClass::Small,
            multi_fault: false,
        }
    }
}

/// One planted root-cause fault: inject `exc` at the `occurrence`-th
/// dynamic hit of `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedFault {
    /// Static fault site.
    pub site: SiteId,
    /// Zero-based dynamic occurrence index under the failure seed.
    pub occurrence: u32,
    /// Exception type injected.
    pub exc: ExceptionType,
}

/// A generated failure case: a [`FailureCase`] the existing explorer,
/// baselines, analyze and trace machinery consume unchanged, plus the
/// planted ground truth and the derived failure log.
#[derive(Debug, Clone)]
pub struct GeneratedCase {
    /// The packaged case (id `gen-NNNN`).
    pub case: FailureCase,
    /// The planted fault(s); length 2 in multi-fault mode.
    pub plant: Vec<PlantedFault>,
    /// Failure log derived by simulating the planted plan.
    pub failure_log: String,
    /// Node count.
    pub nodes: usize,
    /// Function count.
    pub funcs: usize,
    /// Static fault-site count.
    pub sites: usize,
    /// Statement count.
    pub stmts: usize,
    /// Advisory lint warnings the program carried (expected 0).
    pub warnings: usize,
    /// Simulator runs generation made, the fault-free one included.
    pub runs: usize,
    /// Simulator steps those runs took together: a phase-gate probe is
    /// cut once the gate has answered, so runs differ in length.
    pub steps: u64,
    /// Phase-gate probes whose cut run saw neither of the gate's outcomes
    /// and ran again to the end (expected 0).
    pub probe_fallbacks: usize,
}

impl GeneratedCase {
    /// The injection plan that reproduces the planted failure.
    pub fn plan(&self) -> InjectionPlan {
        if self.plant.len() == 1 {
            let f = self.plant[0];
            InjectionPlan::exact(f.site, f.occurrence, f.exc)
        } else {
            InjectionPlan::multi(
                self.plant
                    .iter()
                    .map(|f| anduril_sim::Candidate::exact(f.site, f.occurrence, f.exc))
                    .collect(),
            )
        }
    }

    /// Whether this case's root cause needs two coordinated injections.
    pub fn is_multi_fault(&self) -> bool {
        self.plant.len() > 1
    }
}

/// Generation errors. `Unsound` means a soundness invariant failed for
/// this seed — a generator bug, not a user error.
#[derive(Debug, Clone)]
pub enum GenError {
    /// The synthesized program failed IR validation (generator bug).
    Ir(String),
    /// A derivation run failed (step/time limits, internal error).
    Sim(String),
    /// A soundness invariant did not hold for this seed.
    Unsound(String),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Ir(e) => write!(f, "ir error: {e}"),
            GenError::Sim(e) => write!(f, "sim error: {e}"),
            GenError::Unsound(e) => write!(f, "unsound case: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

/// `&'static str` for a synthesized string. Generated cases flow into
/// [`FailureCase`], whose identity fields are `&'static str` (the 22
/// paper cases are compile-time literals); leaking the handful of short
/// id/description strings per generated case is deliberate and bounded
/// by the case count.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn site_by_desc(scenario: &Scenario, desc: &str) -> Result<SiteId, GenError> {
    scenario
        .program
        .sites
        .iter()
        .find(|s| s.desc == desc)
        .map(|s| s.id)
        .ok_or_else(|| GenError::Unsound(format!("planted site {desc} not in program")))
}

/// How often `site` executed in `run`.
fn occurrences(run: &RunResult, site: SiteId) -> u32 {
    run.site_occurrences.get(site.index()).copied().unwrap_or(0)
}

/// One run of the scenario under planting: its program compiled once per
/// generated case, however many occurrences are probed, and every run
/// counted with its steps. The compiled form is a copy of planting's own,
/// dropped with it, so the case comes back with its program uncompiled: a
/// corpus is generated in bulk and often never searched.
struct Planting<'a> {
    scenario: &'a Scenario,
    compiled: CompiledProgram,
    failure_seed: u64,
    runs: Cell<usize>,
    steps: Cell<u64>,
    fallbacks: Cell<usize>,
}

impl Planting<'_> {
    fn run(&self, plan: InjectionPlan) -> Result<RunResult, GenError> {
        self.run_until(plan, u64::MAX)
    }

    /// `plan`'s run cut at simulated time `horizon` (or at the scenario's
    /// own, if that is sooner): the slices of the whole run that start by
    /// then, so its log is a prefix of the whole run's and its globals are
    /// the whole run's state at that point.
    fn run_until(&self, plan: InjectionPlan, horizon: u64) -> Result<RunResult, GenError> {
        let s = self.scenario;
        let cfg = SimConfig {
            seed: self.failure_seed,
            max_time: horizon.min(s.config.max_time),
            ..s.config.clone()
        };
        let r = anduril_sim::run_compiled(&s.program, &self.compiled, &s.topology, &cfg, plan)
            .map_err(|e| GenError::Sim(e.to_string()))?;
        self.runs.set(self.runs.get() + 1);
        self.steps.set(self.steps.get() + r.steps);
        Ok(r)
    }
}

/// The smallest `k` in `0..total` with `pred(k)` false — `total` if there
/// is none — for a `pred` that is true up to some point and false from
/// there on, in at most ⌈log₂(total + 1)⌉ calls. The last call that
/// answered false, if any did, was `pred(k)` at the returned `k`.
fn first_false<E>(total: u32, mut pred: impl FnMut(u32) -> Result<bool, E>) -> Result<u32, E> {
    let (mut lo, mut hi) = (0, total);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid)? {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Builds the oracle for a generated program: the FATAL needle, the
/// critical node's abort, and the root-cause handler's error needle.
fn oracle_for(gp: &GenProgram) -> Oracle {
    let mut parts = vec![
        Oracle::LogContains(gp.fatal_needle.clone()),
        Oracle::NodeAborted(gp.critical_node.clone()),
        Oracle::LogContains(format!("{} {}", gp.error_needle, gp.critical_node)),
    ];
    if let Some(poison) = &gp.poison_needle {
        parts.push(Oracle::LogContains(format!(
            "{} {}",
            poison, gp.critical_node
        )));
    }
    Oracle::And(parts)
}

/// Simulated ticks a phase-gate probe runs past the fault-free time of the
/// hit it arms. The critical handler answers right after the throw, but
/// its thread's slice can end in between, and the next one starts at least
/// a tick later: at 0, 18 probes of `e2e`'s corpus see neither answer; at
/// 5, none.
const PROBE_SLACK: u64 = 40;

/// Plants the single fault at the first occurrence of the critical site
/// whose injection satisfies the oracle under the failure seed — what
/// `FailureCase::ground_truth`'s scan from 0 resolves the packaged case
/// to. A phase gate makes the occurrences before its crossing recoverable;
/// they log the warmup needle, so the crossing is bisected, not walked to,
/// and the loop below starts there.
///
/// A bisection probe at `k` is the fault-free run up to the `k`-th hit,
/// so it runs to the fault-free time of that hit plus [`PROBE_SLACK`],
/// and to the end only if the gate has not answered by then. The loop's
/// runs go to the end: the one that satisfies the oracle is the failure
/// run.
fn plant_single(
    planting: &Planting,
    gp: &GenProgram,
    oracle: &Oracle,
    normal: RunResult,
) -> Result<(Vec<PlantedFault>, RunResult), GenError> {
    let site = site_by_desc(planting.scenario, &gp.critical_site_desc)?;
    // Only the site's hit times were needed: a single-fault case holds one
    // run at a time while it is planted (planting sets `e2e`'s
    // `peak_rss_mb` on `gen-corpus`).
    let times: Vec<u64> = (normal.trace.iter())
        .filter(|t| t.site == site)
        .map(|t| t.time)
        .collect();
    drop(normal);
    let total = times.len() as u32;
    if total == 0 {
        return Err(GenError::Unsound(format!(
            "critical site {} never reached fault-free",
            gp.critical_site_desc
        )));
    }
    let plan = |occ| InjectionPlan::exact(site, occ, gp.critical_exc);
    let start = match &gp.warmup_needle {
        Some(needle) => first_false(total, |occ| {
            // Closed, the critical handler logs the needle; open, it sets
            // the flag. Only it does either, and the plan runs it once, so
            // what the cut run saw is what the whole run does.
            let cut = planting.run_until(plan(occ), times[occ as usize] + PROBE_SLACK)?;
            let closed = cut.has_log(needle);
            if closed || cut.global(&gp.critical_node, DEGRADED_GLOBAL) == Some(&Value::Int(1)) {
                return Ok(closed);
            }
            drop(cut);
            planting.fallbacks.set(planting.fallbacks.get() + 1);
            Ok(planting.run(plan(occ))?.has_log(needle))
        })?,
        None => 0,
    };
    if start == total {
        return Err(GenError::Unsound(format!(
            "phase gate never reached: all {total} occurrences of {} retried in warmup",
            gp.critical_site_desc
        )));
    }
    for occ in start..total {
        let r = planting.run(plan(occ))?;
        if r.injected.is_some() && oracle.check(&r) {
            let plant = vec![PlantedFault {
                site,
                occurrence: occ,
                exc: gp.critical_exc,
            }];
            return Ok((plant, r));
        }
    }
    Err(GenError::Unsound(format!(
        "no occurrence of {} ({start}..{total}) satisfies the oracle",
        gp.critical_site_desc
    )))
}

/// Plants the two-fault cascade: picks an early occurrence for fault A
/// (the WAL poisoner), then tries fault B occurrences until the pair fires
/// completely and the oracle holds — from the first B hit after A's. The
/// run is the fault-free one up to A's hit, so every B hit before it finds
/// the WAL clean and recovers, and the fault-free trace (in execution
/// order) says how many there are.
fn plant_multi(
    planting: &Planting,
    gp: &GenProgram,
    oracle: &Oracle,
    normal: &RunResult,
    rng: &mut SmallRng,
) -> Result<(Vec<PlantedFault>, RunResult), GenError> {
    let scenario = planting.scenario;
    let site_b = site_by_desc(scenario, &gp.critical_site_desc)?;
    let desc_a = gp
        .poison_site_desc
        .as_deref()
        .ok_or_else(|| GenError::Unsound("multi-fault case lacks poison site".into()))?;
    let site_a = site_by_desc(scenario, desc_a)?;
    let (total_a, total_b) = (occurrences(normal, site_a), occurrences(normal, site_b));
    if total_a == 0 || total_b == 0 {
        return Err(GenError::Unsound(
            "a planted multi-fault site is unreachable fault-free".into(),
        ));
    }
    // Fault A early (first half of its fault-free occurrences) so B has
    // room to land after it. The fault-free timeline is undisturbed up
    // to A's firing, so any occ < total_a is guaranteed to fire.
    let occ_a = (rng.random_range(0..(total_a as u64 / 2).max(1))) as u32;
    let first_b = normal
        .trace
        .iter()
        .take_while(|t| (t.site, t.occurrence) != (site_a, occ_a))
        .filter(|t| t.site == site_b)
        .count() as u32;
    // B's occurrence count can shift once A fires, so allow some slack
    // past the fault-free count.
    for occ_b in first_b..(total_b + 16) {
        let plan = InjectionPlan::multi(vec![
            anduril_sim::Candidate::exact(site_a, occ_a, gp.poison_exc),
            anduril_sim::Candidate::exact(site_b, occ_b, gp.critical_exc),
        ]);
        let r = planting.run(plan)?;
        if r.injected_all.len() == 2 && oracle.check(&r) {
            let plant = vec![
                PlantedFault {
                    site: site_a,
                    occurrence: occ_a,
                    exc: gp.poison_exc,
                },
                PlantedFault {
                    site: site_b,
                    occurrence: occ_b,
                    exc: gp.critical_exc,
                },
            ];
            return Ok((plant, r));
        }
    }
    Err(GenError::Unsound(format!(
        "no B occurrence from {first_b} pairs with A@{occ_a} to satisfy the oracle"
    )))
}

/// Generates case `index` of a batch: synthesizes a program from the
/// derived sub-seed, plants the fault(s), derives the failure log, and
/// packages a [`FailureCase`]. Soundness invariants checked here:
///
/// 1. `finish_linted` reports no errors (enforced in [`synthesize`]).
/// 2. The fault-free run completes, satisfies neither the oracle nor
///    kills any thread.
/// 3. The planted plan actually fires and satisfies the oracle (its run
///    *is* the failure log — ground truth by construction).
pub fn generate_one(cfg: &GenConfig, index: usize) -> Result<GeneratedCase, GenError> {
    let sub_seed = cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = SmallRng::seed_from_u64(sub_seed);
    let name = format!("gen-{index:04}");
    let gp = synthesize(&mut rng, &name, cfg.size, cfg.multi_fault)
        .map_err(|e| GenError::Ir(format!("{e:?}")))?;
    let scenario = Scenario {
        name: name.clone(),
        program: Arc::new(gp.program.clone()),
        topology: gp.topology.clone(),
        config: gp.config.clone(),
    };
    let failure_seed = 1 + rng.random_range(0..10_000u64);

    let planting = Planting {
        compiled: anduril_ir::lower::compile(&scenario.program),
        scenario: &scenario,
        failure_seed,
        runs: Cell::new(0),
        steps: Cell::new(0),
        fallbacks: Cell::new(0),
    };
    let normal = planting.run(InjectionPlan::none())?;
    let oracle = oracle_for(&gp);
    if oracle.check(&normal) {
        return Err(GenError::Unsound(
            "oracle already satisfied fault-free".into(),
        ));
    }
    if normal
        .log
        .iter()
        .any(|l| l.body.contains("Uncaught exception"))
    {
        return Err(GenError::Unsound(
            "fault-free run killed a thread with an uncaught exception".into(),
        ));
    }

    let (plant, failure_run) = if cfg.multi_fault {
        plant_multi(&planting, &gp, &oracle, &normal, &mut rng)?
    } else {
        plant_single(&planting, &gp, &oracle, normal)?
    };
    let failure_log = failure_run.log_text();
    let (runs, steps) = (planting.runs.get(), planting.steps.get());
    let probe_fallbacks = planting.fallbacks.get();

    let case = FailureCase {
        id: leak(name.clone()),
        ticket: leak(format!("GEN-{}", sub_seed % 100_000)),
        system: "generated",
        description: leak(format!(
            "generated {} {}: {} nodes, {} sites, fault at {}",
            cfg.size,
            if cfg.multi_fault {
                "two-fault cascade"
            } else {
                "single fault"
            },
            gp.node_count(),
            scenario.program.sites.len(),
            gp.critical_site_desc,
        )),
        oracle,
        root_site_desc: leak(gp.critical_site_desc.clone()),
        root_exc: gp.critical_exc,
        failure_seed,
        deeper_causes: vec![],
        scenario,
    };

    Ok(GeneratedCase {
        nodes: gp.node_count(),
        funcs: case.scenario.program.funcs.len(),
        sites: case.scenario.program.sites.len(),
        stmts: case.scenario.program.stmt_count(),
        warnings: gp.warnings.len(),
        runs,
        steps,
        probe_fallbacks,
        case,
        plant,
        failure_log,
    })
}

/// Generates a batch of `count` cases.
pub fn generate(cfg: &GenConfig, count: usize) -> Result<Vec<GeneratedCase>, GenError> {
    (0..count).map(|i| generate_one(cfg, i)).collect()
}

/// Deep soundness verification, used by the fuzz suite and the bench:
/// the fault-free run is healthy, the planted plan replays to the
/// oracle, and — for single-fault cases — the planted ground truth
/// survives the search context's reachability pruning and abstract
/// occurrence bounds (it must be discoverable, not just replayable).
///
/// Hands back the context it prepared over the case's failure log (base
/// seed 1 000), so a caller that goes on to search the case need not
/// prepare it a second time.
pub fn verify_sound(gc: &GeneratedCase) -> Result<SearchContext, String> {
    if !gc
        .case
        .fault_free_run_is_healthy()
        .map_err(|e| format!("fault-free run: {e}"))?
    {
        return Err("fault-free run unexpectedly satisfies the oracle".into());
    }
    let replay = gc
        .case
        .scenario
        .run(gc.case.failure_seed, gc.plan())
        .map_err(|e| format!("planted replay: {e}"))?;
    if !gc.case.oracle.check(&replay) {
        return Err("planted plan no longer satisfies the oracle".into());
    }
    if replay.injected_all.len() != gc.plant.len() {
        return Err(format!(
            "planted plan fired {} of {} faults",
            replay.injected_all.len(),
            gc.plant.len()
        ));
    }
    let ctx = SearchContext::prepare(gc.case.scenario.clone(), &gc.failure_log, 1_000)
        .map_err(|e| format!("context prepare: {e}"))?;
    for f in &gc.plant {
        if !ctx.occurrence_feasible(f.site, Some(f.occurrence)) {
            return Err(format!(
                "occurrence bounds prune planted ({:?}, {})",
                f.site, f.occurrence
            ));
        }
    }
    if !gc.is_multi_fault() {
        let f = gc.plant[0];
        if !ctx.candidate_sites.contains(&f.site) {
            return Err(format!(
                "reachability pruning drops planted site {:?}",
                f.site
            ));
        }
    }
    Ok(ctx)
}

#[cfg(test)]
mod tests {
    use super::first_false;

    /// Every predicate of length ≤ 16 that is true up to a crossing and
    /// false from it — all-true and all-false included — bisects to the
    /// answer a walk from 0 gives, in at most ⌈log₂(total + 1)⌉ calls,
    /// the last false one of them at the crossing itself.
    #[test]
    fn first_false_is_the_linear_answer_on_every_monotone_predicate() {
        for total in 0..=16u32 {
            for crossing in 0..=total {
                let linear = (0..total).find(|&k| k >= crossing).unwrap_or(total);
                let mut calls = Vec::new();
                let found = first_false(total, |k| {
                    calls.push(k);
                    Ok::<_, ()>(k < crossing)
                });
                assert_eq!(found, Ok(linear), "{crossing} of {total}");
                let bound = (total + 1).next_power_of_two().trailing_zeros();
                assert!(calls.len() as u32 <= bound, "{calls:?} of {total}");
                let last_false = calls.iter().rfind(|&&k| k >= crossing);
                assert_eq!(last_false.copied(), (linear < total).then_some(linear));
            }
        }
    }
}
