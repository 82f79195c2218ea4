//! The observable outcome of one simulation run.

use std::sync::Arc;
use std::time::Duration;

use anduril_ir::{log::render_log, ChanId, CondId, LogEntry, Value};

use crate::fir::{InjectedRecord, TraceEntry};

/// Final state of one thread, with names resolved for oracle checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSnapshot {
    /// Node name (interned: shares the simulator's per-node allocation).
    pub node: Arc<str>,
    /// Thread name (interned like [`ThreadSnapshot::node`]).
    pub thread: Arc<str>,
    /// Final lifecycle state.
    pub state: ThreadEndState,
    /// Function names on the call stack at the end, innermost first
    /// (interned once per compiled program).
    pub stack: Vec<Arc<str>>,
}

/// Why a thread is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a message on a channel.
    Chan(ChanId),
    /// Waiting on a condition variable.
    Cond(CondId),
    /// Waiting for a future to complete.
    Future(u64),
    /// Sleeping until a deadline.
    Sleep,
    /// An executor worker with an empty task queue.
    IdleWorker,
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockReason::Chan(c) => write!(f, "recv(chan#{})", c.0),
            BlockReason::Cond(c) => write!(f, "wait(cond#{})", c.0),
            BlockReason::Future(id) => write!(f, "await(future#{id})"),
            BlockReason::Sleep => f.write_str("sleep"),
            BlockReason::IdleWorker => f.write_str("idle-worker"),
        }
    }
}

/// Thread lifecycle state at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadEndState {
    /// Completed normally.
    Done,
    /// Terminated by an uncaught exception (rendered form).
    Died(String),
    /// Still parked on a blocking statement (the run went quiescent or hit
    /// its horizon) — the "stuck" symptom shape.
    Blocked(BlockReason),
    /// Was still runnable when the run's horizon was reached.
    Running,
    /// Its node aborted or crashed.
    Killed,
}

/// Final state of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Node name (interned: shares the simulator's per-node allocation).
    pub name: Arc<str>,
    /// `false` if the node aborted or crashed.
    pub alive: bool,
    /// `true` if the node executed an `Abort` statement.
    pub aborted: bool,
    /// Final global variable values, as `(name, value)` pairs (names
    /// interned once per compiled program).
    pub globals: Vec<(Arc<str>, Value)>,
}

impl NodeSnapshot {
    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }
}

/// Everything a run produced: the log, the fault-site trace, injection
/// bookkeeping, and final cluster state.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Structured log entries in emission order.
    pub log: Vec<LogEntry>,
    /// Every traced fault-site execution, in order.
    pub trace: Vec<TraceEntry>,
    /// The first injection that fired, if any.
    pub injected: Option<InjectedRecord>,
    /// Every injection that fired, in firing order: at most one per stage
    /// of the plan ([`crate::InjectionPlan::stages`]), so `injected` as a
    /// zero-or-one-element list when the plan has one window.
    pub injected_all: Vec<InjectedRecord>,
    /// Whether a CrashTuner-style crash injection fired.
    pub crashed: bool,
    /// Final per-site occurrence counts.
    pub site_occurrences: Vec<u32>,
    /// Final thread states.
    pub threads: Vec<ThreadSnapshot>,
    /// Final node states.
    pub nodes: Vec<NodeSnapshot>,
    /// Logical time at which the run ended.
    pub end_time: u64,
    /// Total statements executed.
    pub steps: u64,
    /// `FIR.traceSite` requests served: every execution of a fault site.
    pub injection_requests: u64,
    /// How many of them met an armed candidate and asked
    /// `FIR.throwIfEnabled` for a decision; `decision_ns` is their time.
    pub armed_requests: u64,
    /// Host nanoseconds spent on those decisions, scaled up from the one
    /// in 64 that is timed (metrics only).
    pub decision_ns: u64,
    /// Host wall-clock duration of the run.
    pub wall: Duration,
}

impl RunResult {
    /// Whether `other` is the same run: the same log, fault-site trace,
    /// occurrence counts, final thread and node states, end time, step
    /// and request counts, crash flag, and the same injections fired at
    /// the same `(site, occurrence, time)` with the same exception.
    ///
    /// Ignores exactly what a run's plan and host can change without
    /// changing the run: `wall` and `decision_ns` (host time),
    /// `armed_requests` (a window arms more sites than the exact candidate
    /// that replays it), and the guard of each fired candidate
    /// (`InjectedRecord::candidate`'s `occurrence` and `stack` — a window
    /// candidate and the exact candidate naming the instance it fired at
    /// differ only there).
    pub fn same_run(&self, other: &RunResult) -> bool {
        let fired = |i: &InjectedRecord| (i.candidate.site, i.occurrence, i.time, i.candidate.exc);
        self.injected.as_ref().map(fired) == other.injected.as_ref().map(fired)
            && (self.injected_all.iter().map(fired)).eq(other.injected_all.iter().map(fired))
            && self.crashed == other.crashed
            && self.end_time == other.end_time
            && self.steps == other.steps
            && self.injection_requests == other.injection_requests
            && self.site_occurrences == other.site_occurrences
            && self.trace == other.trace
            && self.log == other.log
            && self.threads == other.threads
            && self.nodes == other.nodes
    }

    /// Renders the full log as Log4j-style text.
    pub fn log_text(&self) -> String {
        render_log(&self.log)
    }

    /// Returns `true` if any log body contains `needle`.
    pub fn has_log(&self, needle: &str) -> bool {
        self.log.iter().any(|e| e.body.contains(needle))
    }

    /// Counts log bodies containing `needle`.
    pub fn count_log(&self, needle: &str) -> usize {
        self.log.iter().filter(|e| e.body.contains(needle)).count()
    }

    /// Returns `true` if a thread whose name contains `thread` ended
    /// blocked with `func` somewhere on its stack.
    pub fn thread_blocked_in(&self, thread: &str, func: &str) -> bool {
        self.threads.iter().any(|t| {
            t.thread.contains(thread)
                && matches!(t.state, ThreadEndState::Blocked(_))
                && t.stack.iter().any(|f| f.as_ref() == func)
        })
    }

    /// Returns `true` if a thread whose name contains `thread` died of an
    /// uncaught exception.
    pub fn thread_died(&self, thread: &str) -> bool {
        self.threads
            .iter()
            .any(|t| t.thread.contains(thread) && matches!(t.state, ThreadEndState::Died(_)))
    }

    /// Returns `true` if a thread whose name contains `thread` completed
    /// normally.
    pub fn thread_done(&self, thread: &str) -> bool {
        self.threads
            .iter()
            .any(|t| t.thread.contains(thread) && t.state == ThreadEndState::Done)
    }

    /// Returns `true` if the named node aborted.
    pub fn node_aborted(&self, node: &str) -> bool {
        self.nodes
            .iter()
            .any(|n| n.name.as_ref() == node && n.aborted)
    }

    /// Returns `true` if the named node is still alive.
    pub fn node_alive(&self, node: &str) -> bool {
        self.nodes
            .iter()
            .any(|n| n.name.as_ref() == node && n.alive)
    }

    /// Looks up a node's final global value.
    pub fn global(&self, node: &str, name: &str) -> Option<&Value> {
        self.nodes
            .iter()
            .find(|n| n.name.as_ref() == node)
            .and_then(|n| n.global(name))
    }
}
