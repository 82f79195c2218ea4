//! Save/restore snapshots of VM world state for prefix re-simulation.
//!
//! A run is a pure function of `(program, topology, config, plan)`, and —
//! crucially — until the armed plan's first injection (or crash) fires, the
//! world evolves *identically for every plan*: `FIR.traceSite()` mutates
//! only occurrence counters and the trace, and a request that decides "no
//! injection" is observationally a no-op (its `decision_ns` is a host-time
//! metric excluded from result comparison). So any two runs with the same
//! seed share a byte-identical prefix up to the earlier of their first
//! divergence points.
//!
//! This module exploits that: [`run_compiled_capture`] executes a run
//! normally while saving periodic [`WorldSnapshot`]s of the complete world
//! state (threads/frames, node globals/channels, futures, the calendar
//! wheel, RNG, FIR counters), and [`run_compiled_resume`] replays a *new*
//! plan under the same seed by restoring the latest snapshot strictly
//! before the plan's first possible divergence point and driving forward
//! from there. Resumed runs are byte-identical to full replay — same RNG
//! draw order, same step counts, same `RunResult` — which the
//! `snapshot_equivalence` differential suite pins over every failure case.
//!
//! # Snapshot validity (invalidation rules)
//!
//! A snapshot taken at trace length `T` is valid for plan `P` iff
//!
//! 1. no candidate of `P` matches any entry of `trace[0..T]` (site equal
//!    and occurrence equal-or-unconstrained; stack-guarded candidates are
//!    conservatively treated as matching on site+occurrence alone), and
//! 2. `P`'s crash point, if any, has not already passed: the snapshot's
//!    meta-access counter for the crash statement is still `<=` the target
//!    occurrence.
//!
//! Rule 1 guarantees the prefix contains no site execution where `P` could
//! have injected; rule 2 the same for CrashTuner-style crash points (meta
//! accesses are not in the site trace, but their counters are part of the
//! snapshot). Under both, a full replay with `P` would have reached the
//! snapshot point in exactly the restored state, so resuming preserves
//! RNG and step parity by induction.
//!
//! Snapshots are only taken at event-loop boundaries (the state machine's
//! quiescent points between scheduler events) and only while the FIR is
//! clean — once an injection or crash fires, the timeline is plan-specific
//! and capture stops.

use anduril_ir::lower::CompiledProgram;
use anduril_ir::{LogEntry, Program, StmtRef};

use crate::config::{SimConfig, Topology};
use crate::fir::{Fir, InjectionPlan, TraceEntry};
use crate::result::RunResult;
use crate::rng::SmallRng;
use crate::thread::Thread;

use super::{run_compiled, EventQueue, FutureState, Node, SimError, World};

/// When and how many snapshots a capture run takes.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotPolicy {
    /// Minimum executed statements between consecutive snapshots. The
    /// actual spacing can only be coarser: snapshots are taken at the
    /// first event-loop boundary at or past the threshold.
    pub interval_steps: u64,
    /// Upper bound on retained snapshots. When a capture run outgrows it,
    /// every other snapshot is dropped and the interval doubles (geometric
    /// thinning), so long runs keep logarithmically many evenly spread
    /// snapshots with the most recent one always retained.
    pub max_snapshots: usize,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        // The interval bounds how far behind the frontier the newest
        // snapshot can trail — i.e. the steps a resume re-executes even
        // with a perfectly placed divergence. 128 steps is a few
        // microseconds of VM work, comfortably under the fixed restore
        // cost, while the world clone per snapshot stays cheap enough
        // that capture adds well under one replay of overhead.
        SnapshotPolicy {
            interval_steps: 128,
            max_snapshots: 32,
        }
    }
}

/// A "Distributed Execution Indexing"-style key identifying the exact
/// execution prefix a snapshot was taken at: the step count pins the
/// scheduler position, and the `(trace_len, trace_hash)` pair pins the
/// dynamic fault-site instance sequence, so instance identification
/// survives the resume optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecIndex {
    /// Statements executed up to the snapshot point.
    pub steps: u64,
    /// Traced fault-site executions up to the snapshot point.
    pub trace_len: u32,
    /// FNV-1a-style hash over the `(site, occurrence)` sequence of the
    /// trace prefix.
    pub trace_hash: u64,
}

/// One captured world state, resumable under any plan it is valid for.
///
/// Opaque outside the simulator: consumers hold snapshots through a
/// [`SeedPrefix`] and pass them back to [`run_compiled_resume`].
pub struct WorldSnapshot {
    /// Execution-index key of the capture point.
    index: ExecIndex,
    clock: u64,
    seq: u64,
    rng: SmallRng,
    events: EventQueue,
    threads: Vec<Thread>,
    nodes: Vec<Node>,
    futures: Vec<FutureState>,
    /// Log entries emitted before the capture point (an index into the
    /// owning [`SeedPrefix`]'s shared log prefix).
    log_len: u32,
    /// Per-site occurrence counters at the capture point.
    occ: Vec<u32>,
    /// Meta-access occurrence counters at the capture point.
    meta_occ: Vec<(StmtRef, u32)>,
    /// `FIR.throwIfEnabled` requests served before the capture point.
    requests: u64,
}

impl WorldSnapshot {
    /// The execution-index key of the capture point.
    pub fn index(&self) -> ExecIndex {
        self.index
    }
}

impl std::fmt::Debug for WorldSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("index", &self.index)
            .field("clock", &self.clock)
            .field("log_len", &self.log_len)
            .finish_non_exhaustive()
    }
}

/// Everything captured from one run of a seed: the shared log/trace prefix
/// plus the snapshots indexing into it. Produced by
/// [`run_compiled_capture`], consumed by [`run_compiled_resume`].
pub struct SeedPrefix {
    seed: u64,
    /// Log prefix up to the last snapshot's `log_len` (nothing beyond the
    /// last snapshot is ever restored, so the tail is not stored).
    log: Vec<LogEntry>,
    /// Trace prefix up to the last snapshot's `trace_len`.
    trace: Vec<TraceEntry>,
    /// Snapshots in capture order (ascending execution index).
    snapshots: Vec<WorldSnapshot>,
}

impl SeedPrefix {
    /// The seed the prefix was captured under. Resuming is only valid for
    /// runs with this exact seed (and the same program and topology).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of retained snapshots (zero when the run was shorter than
    /// one snapshot interval, or dirty from the start).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Approximate heap footprint driver for cache accounting: entries in
    /// the shared log prefix.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The latest snapshot strictly before `plan`'s first possible
    /// divergence point, or `None` if every snapshot's prefix already
    /// contains a potential injection (or passed crash point) of the plan.
    pub fn best_for(&self, plan: &InjectionPlan) -> Option<&WorldSnapshot> {
        // First trace index where any candidate of the plan could fire.
        // Stack guards are ignored (conservative: a guard that would have
        // rejected the match only makes the snapshot wrongly *invalid*,
        // never wrongly valid).
        let first_divergence = self
            .trace
            .iter()
            .position(|t| {
                plan.candidates.iter().any(|c| {
                    c.site == t.site && c.occurrence.map(|o| o == t.occurrence).unwrap_or(true)
                })
            })
            .map(|i| i as u32)
            .unwrap_or(u32::MAX);
        self.snapshots.iter().rev().find(|s| {
            s.index.trace_len <= first_divergence
                && plan
                    .crash_at
                    .as_ref()
                    .is_none_or(|p| Fir::meta_count(&s.meta_occ, p.stmt) <= p.occurrence)
        })
    }
}

impl std::fmt::Debug for SeedPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeedPrefix")
            .field("seed", &self.seed)
            .field("snapshots", &self.snapshots.len())
            .field("log", &self.log.len())
            .field("trace", &self.trace.len())
            .finish()
    }
}

/// How a resumed run actually executed (metrics for benches and tests;
/// never part of the deterministic result).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeInfo {
    /// `true` if a snapshot was restored; `false` means the run fell back
    /// to full replay (no valid snapshot for the plan).
    pub resumed: bool,
    /// Statements skipped by restoring (the snapshot's step count).
    pub snapshot_steps: u64,
    /// Trace length at the resume point.
    pub snapshot_trace_len: u32,
}

/// Live capture bookkeeping hanging off a [`World`] during a capture run.
pub(super) struct CaptureState {
    interval: u64,
    max_snapshots: usize,
    next_at: u64,
    /// Set once the FIR goes dirty (injection or crash): the timeline is
    /// plan-specific from here on, so capture stops for good.
    done: bool,
    snapshots: Vec<WorldSnapshot>,
}

impl CaptureState {
    pub(super) fn new(policy: &SnapshotPolicy) -> Self {
        let interval = policy.interval_steps.max(1);
        CaptureState {
            interval,
            max_snapshots: policy.max_snapshots.max(1),
            next_at: interval,
            done: false,
            snapshots: Vec::new(),
        }
    }
}

/// FNV-1a-style fold over the `(site, occurrence)` prefix sequence.
fn trace_hash(trace: &[TraceEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in trace {
        h ^= ((t.site.0 as u64) << 32) | t.occurrence as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<'p> World<'p> {
    /// `true` when the next event-loop boundary must take (or give up on)
    /// a snapshot, so the scheduler has to come back to the loop top.
    pub(super) fn snapshot_due(&self) -> bool {
        self.capture
            .as_ref()
            .is_some_and(|cap| !cap.done && self.steps >= cap.next_at)
    }

    /// Takes a snapshot if the capture policy is due one. Called at the
    /// top of the event loop, where the popped-event state is complete and
    /// re-entering [`World::drive`] reproduces the run exactly.
    pub(super) fn maybe_snapshot(&mut self) {
        if !self.snapshot_due() {
            return;
        }
        if self.fir.injected.is_some() || self.fir.crashed {
            self.capture.as_mut().expect("checked above").done = true;
            return;
        }
        let snap = WorldSnapshot {
            index: ExecIndex {
                steps: self.steps,
                trace_len: self.fir.trace.len() as u32,
                trace_hash: trace_hash(&self.fir.trace),
            },
            clock: self.clock,
            seq: self.seq,
            rng: self.rng.clone(),
            events: self.events.clone(),
            threads: self.threads.clone(),
            nodes: self.nodes.clone(),
            futures: self.futures.clone(),
            log_len: self.log.len() as u32,
            occ: self.fir.occ_clone(),
            meta_occ: self.fir.meta_occ_clone(),
            requests: self.fir.requests,
        };
        let cap = self.capture.as_mut().expect("checked above");
        cap.snapshots.push(snap);
        if cap.snapshots.len() > cap.max_snapshots {
            // Geometric thinning: keep the newest snapshot and every other
            // one before it, then double the interval. Long runs settle on
            // ~max/2 snapshots spaced `interval` apart with the newest one
            // never more than one interval behind the frontier.
            let n = cap.snapshots.len();
            let mut idx = 0;
            cap.snapshots.retain(|_| {
                let keep = (n - 1 - idx).is_multiple_of(2);
                idx += 1;
                keep
            });
            cap.interval = cap.interval.saturating_mul(2);
        }
        cap.next_at = self.steps + cap.interval;
    }

    /// Drains the capture state into a [`SeedPrefix`], cloning the shared
    /// log/trace prefix up to the last snapshot (later entries are never
    /// restored, so they are not stored).
    fn take_prefix(&mut self) -> SeedPrefix {
        let snapshots = self.capture.take().map(|c| c.snapshots).unwrap_or_default();
        let (log_len, trace_len) = snapshots
            .last()
            .map(|s| (s.log_len as usize, s.index.trace_len as usize))
            .unwrap_or((0, 0));
        SeedPrefix {
            seed: self.cfg.seed,
            log: self.log[..log_len].to_vec(),
            trace: self.fir.trace[..trace_len].to_vec(),
            snapshots,
        }
    }

    /// Restores the complete world state from a snapshot. The world must
    /// be freshly constructed (same program, topology, and seed as the
    /// capture run) with the *new* plan armed; everything the constructor
    /// set up for step zero is overwritten with the capture-point state.
    fn restore(&mut self, prefix: &SeedPrefix, snap: &WorldSnapshot) {
        self.clock = snap.clock;
        self.seq = snap.seq;
        self.steps = snap.index.steps;
        self.rng = snap.rng.clone();
        self.events = snap.events.clone();
        self.threads = snap.threads.clone();
        self.nodes = snap.nodes.clone();
        self.futures = snap.futures.clone();
        self.log = prefix.log[..snap.log_len as usize].to_vec();
        self.fir.restore_prefix(
            snap.occ.clone(),
            snap.meta_occ.clone(),
            prefix.trace[..snap.index.trace_len as usize].to_vec(),
            snap.requests,
        );
    }
}

/// [`run_compiled`] plus snapshot capture: runs the plan to completion and
/// also returns the [`SeedPrefix`] later same-seed runs can resume from.
///
/// The run's `RunResult` is byte-identical to an uncaptured run — capture
/// only clones state at event-loop boundaries and never alters execution.
pub fn run_compiled_capture(
    program: &Program,
    compiled: &CompiledProgram,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
    policy: &SnapshotPolicy,
) -> Result<(RunResult, SeedPrefix), SimError> {
    let mut world = World::new(program, compiled, topo, cfg, plan)?;
    world.capture = Some(Box::new(CaptureState::new(policy)));
    world.drive()?;
    let prefix = world.take_prefix();
    Ok((world.finish(), prefix))
}

/// Runs a plan under a previously captured seed, resuming from the latest
/// snapshot strictly before the plan's first divergence point instead of
/// replaying from step zero. Falls back to a full [`run_compiled`] when no
/// snapshot is valid for the plan.
///
/// `cfg.seed` must equal [`SeedPrefix::seed`] and the program/topology
/// must be the ones the prefix was captured with; resuming under anything
/// else is a logic error (checked by `debug_assert`, undetectable in
/// release builds).
pub fn run_compiled_resume(
    program: &Program,
    compiled: &CompiledProgram,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
    prefix: &SeedPrefix,
) -> Result<(RunResult, ResumeInfo), SimError> {
    debug_assert_eq!(
        cfg.seed, prefix.seed,
        "resume under a different seed than the capture run"
    );
    let Some(snap) = prefix.best_for(&plan) else {
        let result = run_compiled(program, compiled, topo, cfg, plan)?;
        return Ok((result, ResumeInfo::default()));
    };
    let info = ResumeInfo {
        resumed: true,
        snapshot_steps: snap.index.steps,
        snapshot_trace_len: snap.index.trace_len,
    };
    let mut world = World::empty(program, compiled, cfg, plan)?;
    world.restore(prefix, snap);
    world.drive()?;
    Ok((world.finish(), info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeSpec;
    use anduril_ir::builder::ProgramBuilder;
    use anduril_ir::{expr as e, ExceptionType, Level, SiteId};

    /// A single-node program that executes one fault site ~1000 times, so
    /// a capture run takes several snapshots and late injections leave a
    /// long shared prefix.
    fn looping_scenario() -> (Program, Topology) {
        let mut pb = ProgramBuilder::new("snapshot-loop");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            let i = b.local();
            b.assign(i, e::int(0));
            b.while_(e::lt(e::var(i), e::int(1000)), |b| {
                b.try_catch(
                    |b| {
                        b.external("disk.read", &[ExceptionType::Io]);
                    },
                    ExceptionType::Io,
                    |b| {
                        b.log(Level::Warn, "read failed at {}", vec![e::var(i)]);
                    },
                );
                b.assign(i, e::add(e::var(i), e::int(1)));
            });
            b.log(Level::Info, "loop done", vec![]);
        });
        let program = pb.finish().unwrap();
        let topo = Topology::new(vec![NodeSpec::new("n1", main, vec![])]);
        (program, topo)
    }

    fn assert_identical(tag: &str, a: &RunResult, b: &RunResult) {
        assert_eq!(a.log, b.log, "{tag}: log streams differ");
        assert_eq!(a.trace, b.trace, "{tag}: traces differ");
        assert_eq!(a.injected, b.injected, "{tag}: injected records differ");
        assert_eq!(
            a.injected_all, b.injected_all,
            "{tag}: injection histories differ"
        );
        assert_eq!(a.crashed, b.crashed, "{tag}: crash flags differ");
        assert_eq!(
            a.site_occurrences, b.site_occurrences,
            "{tag}: occurrence counters differ"
        );
        assert_eq!(a.threads, b.threads, "{tag}: thread snapshots differ");
        assert_eq!(a.nodes, b.nodes, "{tag}: node snapshots differ");
        assert_eq!(a.end_time, b.end_time, "{tag}: end times differ");
        assert_eq!(a.steps, b.steps, "{tag}: step counts differ");
        assert_eq!(
            a.injection_requests, b.injection_requests,
            "{tag}: request counts differ"
        );
    }

    #[test]
    fn capture_does_not_alter_the_run() {
        let (program, topo) = looping_scenario();
        let compiled = anduril_ir::lower::compile(&program);
        let cfg = SimConfig::default();
        let plain = run_compiled(&program, &compiled, &topo, &cfg, InjectionPlan::none()).unwrap();
        let (captured, prefix) = run_compiled_capture(
            &program,
            &compiled,
            &topo,
            &cfg,
            InjectionPlan::none(),
            &SnapshotPolicy::default(),
        )
        .unwrap();
        assert_identical("capture vs plain", &plain, &captured);
        assert!(prefix.snapshot_count() >= 2, "run long enough to snapshot");
        assert!(prefix.snapshot_count() <= SnapshotPolicy::default().max_snapshots);
    }

    #[test]
    fn resume_is_byte_identical_to_full_replay() {
        let (program, topo) = looping_scenario();
        let compiled = anduril_ir::lower::compile(&program);
        let cfg = SimConfig::default();
        let (_, prefix) = run_compiled_capture(
            &program,
            &compiled,
            &topo,
            &cfg,
            InjectionPlan::none(),
            &SnapshotPolicy::default(),
        )
        .unwrap();
        for occurrence in [100u32, 500, 900] {
            let plan = InjectionPlan::exact(SiteId(0), occurrence, ExceptionType::Io);
            let full = run_compiled(&program, &compiled, &topo, &cfg, plan.clone()).unwrap();
            let (resumed, info) =
                run_compiled_resume(&program, &compiled, &topo, &cfg, plan, &prefix).unwrap();
            assert_identical(&format!("resume occ {occurrence}"), &full, &resumed);
            if occurrence >= 500 {
                assert!(info.resumed, "late injections must actually resume");
                assert!(info.snapshot_steps > 0);
                assert!(info.snapshot_trace_len <= occurrence);
            }
        }
    }

    #[test]
    fn any_occurrence_plan_falls_back_to_full_replay() {
        let (program, topo) = looping_scenario();
        let compiled = anduril_ir::lower::compile(&program);
        let cfg = SimConfig::default();
        let (_, prefix) = run_compiled_capture(
            &program,
            &compiled,
            &topo,
            &cfg,
            InjectionPlan::none(),
            &SnapshotPolicy::default(),
        )
        .unwrap();
        // An unconstrained candidate fires at the site's first occurrence,
        // which every snapshot's prefix already contains: no snapshot is
        // valid, and the run must silently fall back.
        let plan = InjectionPlan {
            candidates: vec![crate::fir::Candidate {
                site: SiteId(0),
                occurrence: None,
                exc: ExceptionType::Io,
                stack: None,
            }],
            crash_at: None,
            multi_shot: false,
        };
        let full = run_compiled(&program, &compiled, &topo, &cfg, plan.clone()).unwrap();
        let (resumed, info) =
            run_compiled_resume(&program, &compiled, &topo, &cfg, plan, &prefix).unwrap();
        assert!(!info.resumed);
        assert_identical("fallback", &full, &resumed);
    }

    #[test]
    fn capture_stops_once_dirty() {
        let (program, topo) = looping_scenario();
        let compiled = anduril_ir::lower::compile(&program);
        let cfg = SimConfig::default();
        // Inject early: capture must stop at the injection, so the few
        // retained snapshots (if any) all predate it and later plans can
        // still resume from the clean prefix.
        let inject_plan = InjectionPlan::exact(SiteId(0), 50, ExceptionType::Io);
        let (_, prefix) = run_compiled_capture(
            &program,
            &compiled,
            &topo,
            &cfg,
            inject_plan,
            &SnapshotPolicy {
                interval_steps: 64,
                max_snapshots: 64,
            },
        )
        .unwrap();
        for snap_steps in prefix.snapshots.iter().map(|s| s.index.trace_len) {
            assert!(snap_steps <= 50, "snapshot taken past the injection");
        }
        let plan = InjectionPlan::exact(SiteId(0), 40, ExceptionType::Io);
        let full = run_compiled(&program, &compiled, &topo, &cfg, plan.clone()).unwrap();
        let (resumed, _) =
            run_compiled_resume(&program, &compiled, &topo, &cfg, plan, &prefix).unwrap();
        assert_identical("dirty-capture prefix reuse", &full, &resumed);
    }
}
