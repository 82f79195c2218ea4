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
//! `k` and the crossing is galloped to, then bisected, and a cascade's
//! second fault starts where the fault-free trace puts the first. A gate
//! probe stops once the gate has answered, just past the time the
//! fault-free trace puts the `k`-th hit at. The planter's one probe loop
//! starts at a computed index.
//!
//! Nor does it simulate a prefix twice: a single-fault case's fault-free
//! run is itself a run paused at the site's hits ([`PausedRun`]), which
//! keeps copies at some of them on its way to the end, and every probe and
//! the failure run branch off those copies. [`GeneratedCase::runs`] counts
//! the worlds started and the branches, and [`GeneratedCase::steps`] the
//! steps they took, a shared prefix once.

use std::cell::Cell;
use std::sync::Arc;

use anduril_core::{Oracle, Scenario, SearchContext};
use anduril_failures::FailureCase;
use anduril_ir::{ExceptionType, SiteId, Value};
use anduril_sim::rng::SmallRng;
use anduril_sim::{InjectionPlan, PausedRun, Reached, RunResult};

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
    /// Simulator runs generation made: the worlds it started (the
    /// fault-free run; a cascade's probes) and the branches it took off
    /// copies of a paused one (each copy that went on: to a probe's
    /// occurrence, into an injection). A copy kept for later is not a run
    /// until it goes on.
    pub runs: usize,
    /// Simulator steps those runs took together, a prefix that branches
    /// share counted once: the fault-free run counts all of its steps, a
    /// branch only its steps past the point it was copied at, and a
    /// phase-gate probe is cut once the gate has answered.
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

/// The scenario's runs under planting, every one counted with the steps it
/// took. They read the program's own compiled form, however many
/// occurrences are probed, so the case comes back lowered: a generated
/// case is there to be run, and its later runs read that one form.
///
/// A run is a world started or a branch: a copy of a paused run that goes
/// on (a copy kept is not one). A branch's steps are those past the point
/// it was copied at, so a prefix the branches share is counted once.
struct Planting<'a> {
    scenario: &'a Scenario,
    failure_seed: u64,
    runs: Cell<usize>,
    steps: Cell<u64>,
    fallbacks: Cell<usize>,
}

fn sim_error(e: anduril_sim::SimError) -> GenError {
    GenError::Sim(e.to_string())
}

/// The steps a run that reached somewhere has taken.
fn steps_of(reached: &Reached) -> u64 {
    match reached {
        Reached::Paused(at) => at.steps(),
        Reached::Ended(run) => run.steps,
    }
}

impl Planting<'_> {
    fn count(&self, runs: usize, steps: u64) {
        self.runs.set(self.runs.get() + runs);
        self.steps.set(self.steps.get() + steps);
    }

    /// `plan`'s whole run.
    fn run(&self, plan: InjectionPlan) -> Result<RunResult, GenError> {
        let r = self
            .scenario
            .run(self.failure_seed, plan)
            .map_err(sim_error)?;
        self.count(1, r.steps);
        Ok(r)
    }

    /// A world started and paused at the `occurrence`-th execution of
    /// `site`, `exc` armed there.
    fn pause(
        &self,
        site: SiteId,
        occurrence: u32,
        exc: ExceptionType,
    ) -> Result<Reached<'_>, GenError> {
        let s = self.scenario;
        let cfg = s.config.with_seed(self.failure_seed);
        let reached = PausedRun::start(
            &s.program,
            s.program.compiled(),
            &s.topology,
            &cfg,
            site,
            occurrence,
            exc,
        )
        .map_err(sim_error)?;
        self.count(1, steps_of(&reached));
        Ok(reached)
    }

    /// The fault-free run, driven as a run paused at `site`'s hits (`exc`
    /// armed there) that keeps a copy at hits 0, 1, 3, 7, … — the points
    /// [`first_false`] gallops over — or at hit 0 alone unless `gallop`,
    /// then passes on to its end. Hands back that end and the copies, in
    /// order.
    fn walk(
        &self,
        site: SiteId,
        exc: ExceptionType,
        gallop: bool,
    ) -> Result<(RunResult, Vec<PausedRun<'_>>), GenError> {
        let mut kept = Vec::new();
        let mut reached = self.pause(site, 0, exc)?;
        loop {
            match reached {
                Reached::Paused(at) => {
                    let next = if gallop {
                        next_gallop(at.occurrence())
                    } else {
                        u32::MAX
                    };
                    kept.push(at.clone());
                    reached = self.pass(at, next)?;
                }
                Reached::Ended(normal) => return Ok((*normal, kept)),
            }
        }
    }

    /// `at` moved on to `occurrence`.
    fn pass<'p>(&self, at: PausedRun<'p>, occurrence: u32) -> Result<Reached<'p>, GenError> {
        let from = at.steps();
        let reached = at.pass_to(occurrence).map_err(sim_error)?;
        self.count(0, steps_of(&reached) - from);
        Ok(reached)
    }

    /// A branch off `at` moved on to `occurrence`, which lies below the
    /// fault-free count.
    fn branch<'p>(&self, at: &PausedRun<'p>, occurrence: u32) -> Result<PausedRun<'p>, GenError> {
        self.count(1, 0);
        if occurrence == at.occurrence() {
            return Ok(at.clone());
        }
        match self.pass(at.clone(), occurrence)? {
            Reached::Paused(moved) => Ok(moved),
            Reached::Ended(_) => Err(ended_before(occurrence)),
        }
    }

    /// A branch off `at` that injects there and runs to `horizon` (or the
    /// scenario's own, if that is sooner): the slices of the whole run that
    /// start by then, so its log is a prefix of the whole run's and its
    /// globals are the whole run's state at that point.
    fn inject(&self, at: &PausedRun, horizon: u64) -> Result<RunResult, GenError> {
        let r = at.clone().inject(horizon).map_err(sim_error)?;
        self.count(1, r.steps - at.steps());
        Ok(r)
    }
}

/// A run paused at an occurrence below the fault-free count ended before
/// it: the prefix it shares with the fault-free run was not that run's.
fn ended_before(occurrence: u32) -> GenError {
    GenError::Unsound(format!(
        "a run ended before occurrence {occurrence}, which the fault-free run reached"
    ))
}

/// The gallop's point after `k`: 0, 1, 3, 7, …
fn next_gallop(k: u32) -> u32 {
    k.saturating_mul(2).saturating_add(1)
}

/// The smallest `k` in `0..total` with `pred(k)` false — `total` if there
/// is none — for a `pred` that is true up to some point and false from
/// there on. It gallops down the points 0, 1, 3, 7, … below `total`, from
/// the furthest, until a call answers true or the points run out, then
/// bisects between that point and the one above it (or `total`). The
/// points cut `0..total` into gaps of at most 2^j − 1 between the `j`-th
/// and the next, so a crossing in gap `j` costs `m − j + 1` gallop calls,
/// `m` the last point's index, and at most `j` to bisect: at most
/// ⌈log₂(total + 1)⌉ calls, a plain bisection's. The last call that
/// answered false, if any did, was `pred(k)` at the returned `k`.
fn first_false<E>(total: u32, mut pred: impl FnMut(u32) -> Result<bool, E>) -> Result<u32, E> {
    let (mut lo, mut hi) = (0, total);
    let mut top = 0;
    while next_gallop(top) < total {
        top = next_gallop(top);
    }
    let mut point = (total > 0).then_some(top);
    while let Some(k) = point {
        if pred(k)? {
            lo = k + 1;
            break;
        }
        hi = k;
        point = k.checked_sub(1).map(|k| k / 2);
    }
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
/// they log the warmup needle, so the crossing is searched for, not walked
/// to, and the loop below starts there.
///
/// Every run here is the fault-free run up to a hit of the site, so the
/// fault-free run itself is walked over the site's hits
/// ([`Planting::walk`]) and everything else branches off the copies it
/// kept; none simulates that prefix again. A probe at `k` is a cut
/// injection off the copy at `k` — a kept one, or a branch moved on to `k`
/// from the nearest copy below — cut at the fault-free time of the hit
/// plus [`PROBE_SLACK`] (and run again to the end only if the gate has not
/// answered by then). A closed answer drops the copies below `k`, an open
/// one those above it, so what is left brackets the crossing. The loop's
/// runs are injections off the copy at the crossing that go to the end:
/// the one that satisfies the oracle is the failure run.
fn plant_single(
    planting: &Planting,
    gp: &GenProgram,
    oracle: &Oracle,
) -> Result<(Vec<PlantedFault>, RunResult), GenError> {
    let site = site_by_desc(planting.scenario, &gp.critical_site_desc)?;
    let (normal, mut kept) = planting.walk(site, gp.critical_exc, gp.warmup_needle.is_some())?;
    check_fault_free(oracle, &normal)?;
    // Only the site's hit times are needed from here on: a single-fault
    // case holds as few runs at a time as it can while it is planted
    // (planting sets `e2e`'s `peak_rss_mb` on `gen-corpus`).
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
    let start = match &gp.warmup_needle {
        Some(needle) => first_false(total, |occ| {
            // Every copy left lies at or above the last closed probe, and
            // the copy at 0 is kept until one closes: some copy is at or
            // below `occ`.
            let mut i = kept.partition_point(|c| c.occurrence() <= occ) - 1;
            if kept[i].occurrence() < occ {
                let at = planting.branch(&kept[i], occ)?;
                i += 1;
                kept.insert(i, at);
            }
            let at = &kept[i];
            // Closed, the critical handler logs the needle; open, it sets
            // the flag. Only it does either, and the plan runs it once, so
            // what the cut run saw is what the whole run does.
            let cut = planting.inject(at, times[occ as usize] + PROBE_SLACK)?;
            let mut closed = cut.has_log(needle);
            if !closed && cut.global(&gp.critical_node, DEGRADED_GLOBAL) != Some(&Value::Int(1)) {
                drop(cut);
                planting.fallbacks.set(planting.fallbacks.get() + 1);
                closed = planting.inject(at, u64::MAX)?.has_log(needle);
            }
            if closed {
                // Every probe to come, and the failure run, lies past `occ`.
                kept.drain(..i);
            } else {
                // Every probe to come lies below `occ`; the failure run is
                // at the lowest open one.
                kept.truncate(i + 1);
            }
            Ok(closed)
        })?,
        None => 0,
    };
    if start == total {
        return Err(GenError::Unsound(format!(
            "phase gate never reached: all {total} occurrences of {} retried in warmup",
            gp.critical_site_desc
        )));
    }
    // The last probe that answered open was at `start`, and no copy above
    // it is left; without a gate the one copy is at 0.
    let at = kept.pop().expect("a copy at the crossing");
    debug_assert_eq!(at.occurrence(), start);
    drop(kept);
    let mut bound = Reached::Paused(at);
    while let Reached::Paused(at) = bound {
        let r = planting.inject(&at, u64::MAX)?;
        if oracle.check(&r) {
            let plant = vec![PlantedFault {
                site,
                occurrence: at.occurrence(),
                exc: gp.critical_exc,
            }];
            return Ok((plant, r));
        }
        let next = at.occurrence() + 1;
        bound = planting.pass(at, next)?;
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

/// Soundness invariant 2 of [`generate_one`]: the fault-free run satisfies
/// neither the oracle nor kills any thread.
fn check_fault_free(oracle: &Oracle, normal: &RunResult) -> Result<(), GenError> {
    if oracle.check(normal) {
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
    Ok(())
}

/// Generates case `index` of a batch: synthesizes a program from the
/// derived sub-seed, plants the fault(s), derives the failure log, and
/// packages a [`FailureCase`]. Soundness invariants checked here:
///
/// 1. `finish` reports no errors (enforced in [`synthesize`]).
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
        program: Arc::clone(&gp.program),
        topology: gp.topology.clone(),
        config: gp.config.clone(),
    };
    let failure_seed = 1 + rng.random_range(0..10_000u64);

    let planting = Planting {
        scenario: &scenario,
        failure_seed,
        runs: Cell::new(0),
        steps: Cell::new(0),
        fallbacks: Cell::new(0),
    };
    let oracle = oracle_for(&gp);
    let (plant, failure_run) = if cfg.multi_fault {
        let normal = planting.run(InjectionPlan::none())?;
        check_fault_free(&oracle, &normal)?;
        plant_multi(&planting, &gp, &oracle, &normal, &mut rng)?
    } else {
        plant_single(&planting, &gp, &oracle)?
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
        runs,
        steps,
        probe_fallbacks,
        case,
        plant,
        failure_log,
    })
}

/// Deep soundness verification, used by the fuzz suite and the bench:
/// the fault-free run is healthy, the planted plan replays to the
/// oracle, and — for single-fault cases — the planted ground truth
/// survives the search context's reachability pruning (it must be
/// discoverable, not just replayable).
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
    /// false from it — all-true and all-false included — gallops down then
    /// bisects to the answer a walk from 0 gives, in at most
    /// ⌈log₂(total + 1)⌉ calls, the first of them at the furthest gallop
    /// point below `total` and the last false one at the crossing itself.
    #[test]
    fn first_false_gallops_then_bisects_to_the_linear_answer_on_every_monotone_predicate() {
        for total in 0..=16u32 {
            for crossing in 0..=total {
                let linear = (0..total).find(|&k| k >= crossing).unwrap_or(total);
                let mut calls = Vec::new();
                let found = first_false(total, |k| {
                    calls.push(k);
                    Ok::<_, ()>(k < crossing)
                });
                assert_eq!(found, Ok(linear), "{crossing} of {total}");
                let log = (total + 1).next_power_of_two().trailing_zeros();
                assert!(calls.len() as u32 <= log, "{calls:?} of {total}");
                // The walker keeps its copies at the gallop points.
                let top = (total > 0).then(|| (1 << (log - 1)) - 1);
                assert_eq!(calls.first().copied(), top, "{calls:?} of {total}");
                let last_false = calls.iter().rfind(|&&k| k >= crossing);
                assert_eq!(last_false.copied(), (linear < total).then_some(linear));
            }
        }
    }
}
