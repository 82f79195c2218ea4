//! User-defined failure oracles.
//!
//! The paper's reproduction target is an *oracle*: a predicate over the
//! run's observable outcome that encapsulates the failure symptoms — a log
//! message, a stack trace (a thread stuck in a particular function), or
//! external state. A failure is reproduced exactly when the oracle is
//! satisfied (§2, input 4).

use anduril_ir::Value;
use anduril_sim::RunResult;

/// A composable predicate over a [`RunResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum Oracle {
    /// Some log body contains the substring.
    LogContains(String),
    /// No log body contains the substring.
    LogAbsent(String),
    /// At least `n` log bodies contain the substring.
    LogCountAtLeast(String, usize),
    /// A thread whose name contains `thread` ended blocked with `func` on
    /// its stack (the "stuck at waitForSafePoint" symptom shape).
    ThreadBlockedIn {
        /// Thread-name substring.
        thread: String,
        /// Function name that must appear on the blocked stack.
        func: String,
    },
    /// A thread whose name contains the substring died of an uncaught
    /// exception.
    ThreadDied(String),
    /// A thread whose name contains the substring completed normally.
    ThreadDone(String),
    /// The named node aborted.
    NodeAborted(String),
    /// The named node is still alive at the end of the run.
    NodeAlive(String),
    /// A node global has exactly this value at the end of the run
    /// (corrupted-external-state symptoms).
    GlobalEquals {
        /// Node name.
        node: String,
        /// Global variable name.
        global: String,
        /// Expected value.
        value: Value,
    },
    /// An integer node global is at least `min`.
    GlobalAtLeast {
        /// Node name.
        node: String,
        /// Global variable name.
        global: String,
        /// Minimum value.
        min: i64,
    },
    /// All sub-oracles hold.
    And(Vec<Oracle>),
    /// Any sub-oracle holds.
    Or(Vec<Oracle>),
    /// The sub-oracle does not hold.
    Not(Box<Oracle>),
}

impl Oracle {
    /// Evaluates the oracle against a finished run.
    pub fn check(&self, r: &RunResult) -> bool {
        match self {
            Oracle::LogContains(s) => r.has_log(s),
            Oracle::LogAbsent(s) => !r.has_log(s),
            Oracle::LogCountAtLeast(s, n) => r.count_log(s) >= *n,
            Oracle::ThreadBlockedIn { thread, func } => r.thread_blocked_in(thread, func),
            Oracle::ThreadDied(t) => r.thread_died(t),
            Oracle::ThreadDone(t) => r.thread_done(t),
            Oracle::NodeAborted(n) => r.node_aborted(n),
            Oracle::NodeAlive(n) => r.node_alive(n),
            Oracle::GlobalEquals {
                node,
                global,
                value,
            } => r.global(node, global) == Some(value),
            Oracle::GlobalAtLeast { node, global, min } => matches!(
                r.global(node, global),
                Some(Value::Int(v)) if v >= min
            ),
            Oracle::And(os) => os.iter().all(|o| o.check(r)),
            Oracle::Or(os) => os.iter().any(|o| o.check(r)),
            Oracle::Not(o) => !o.check(r),
        }
    }

    /// Convenience conjunction.
    pub fn and(self, other: Oracle) -> Oracle {
        match self {
            Oracle::And(mut v) => {
                v.push(other);
                Oracle::And(v)
            }
            o => Oracle::And(vec![o, other]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anduril_sim::{BlockReason, NodeSnapshot, ThreadEndState, ThreadSnapshot};
    use std::time::Duration;

    fn result() -> RunResult {
        RunResult {
            log: vec![anduril_ir::LogEntry {
                time: 1,
                node: "n1".into(),
                thread: "main".into(),
                level: anduril_ir::Level::Warn,
                template: anduril_ir::TemplateId(5),
                stmt: anduril_ir::builder::STMT_RUNTIME,
                body: "sync failed badly".into(),
                exc: None,
                stack: vec![],
            }],
            trace: vec![],
            injected: None,
            injected_all: vec![],
            crashed: false,
            site_occurrences: vec![],
            threads: vec![ThreadSnapshot {
                node: "n1".into(),
                thread: "roller".into(),
                state: ThreadEndState::Blocked(BlockReason::Cond(anduril_ir::CondId(0))),
                stack: vec!["main".into(), "waitForSafePoint".into()],
            }],
            nodes: vec![NodeSnapshot {
                name: "n1".into(),
                alive: true,
                aborted: false,
                globals: vec![("leaked".into(), Value::Int(3))],
            }],
            end_time: 10,
            steps: 100,
            injection_requests: 0,
            armed_requests: 0,
            decision_ns: 0,
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn log_predicates() {
        let r = result();
        assert!(Oracle::LogContains("sync failed".into()).check(&r));
        assert!(!Oracle::LogContains("no such".into()).check(&r));
        assert!(Oracle::LogAbsent("no such".into()).check(&r));
        assert!(Oracle::LogCountAtLeast("sync".into(), 1).check(&r));
        assert!(!Oracle::LogCountAtLeast("sync".into(), 2).check(&r));
    }

    #[test]
    fn thread_predicates() {
        let r = result();
        assert!(Oracle::ThreadBlockedIn {
            thread: "roller".into(),
            func: "waitForSafePoint".into()
        }
        .check(&r));
        assert!(!Oracle::ThreadBlockedIn {
            thread: "roller".into(),
            func: "otherFunc".into()
        }
        .check(&r));
        assert!(!Oracle::ThreadDied("roller".into()).check(&r));
    }

    #[test]
    fn state_predicates() {
        let r = result();
        assert!(Oracle::NodeAlive("n1".into()).check(&r));
        assert!(!Oracle::NodeAborted("n1".into()).check(&r));
        assert!(Oracle::GlobalEquals {
            node: "n1".into(),
            global: "leaked".into(),
            value: Value::Int(3)
        }
        .check(&r));
        assert!(Oracle::GlobalAtLeast {
            node: "n1".into(),
            global: "leaked".into(),
            min: 2
        }
        .check(&r));
        assert!(!Oracle::GlobalAtLeast {
            node: "n1".into(),
            global: "leaked".into(),
            min: 4
        }
        .check(&r));
    }

    #[test]
    fn combinators() {
        let r = result();
        let yes = Oracle::LogContains("sync".into());
        let no = Oracle::LogContains("absent".into());
        assert!(yes.clone().and(Oracle::NodeAlive("n1".into())).check(&r));
        assert!(!yes.clone().and(no.clone()).check(&r));
        assert!(Oracle::Or(vec![no.clone(), yes.clone()]).check(&r));
        assert!(Oracle::Not(Box::new(no)).check(&r));
    }
}
