//! ANDURIL's Explorer: feedback-driven fault-injection search that
//! reproduces a target fault-induced failure.
//!
//! Given a [`Scenario`] (target system + workload), a production failure
//! log, and a failure [`Oracle`], the Explorer:
//!
//! 1. runs the workload fault-free and derives *relevant observables* by a
//!    per-thread sanitized diff against the failure log (§5.1);
//! 2. builds the static causal graph over those observables and prunes the
//!    fault space to causally connected sites (§4.1);
//! 3. iteratively arms a flexible window of high-priority `(site,
//!    occurrence, exception)` candidates, runs the workload, and checks the
//!    oracle (§5.2.5);
//! 4. on failure, re-diffs the round's log and deprioritizes faults whose
//!    expected observables already appeared (Algorithm 2);
//! 5. on success, emits a deterministic [`ReproScript`]. The paper re-runs
//!    it once; here the reproducing round is already that run (a run is a
//!    pure function of seed and plan), so its verdict is the replay's.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for an end-to-end
//! reproduction on a miniature WAL scenario.

#![warn(missing_docs)]

pub mod adaptive;
pub mod batch;
pub mod context;
pub mod explorer;
pub mod feedback;
pub mod oracle;
pub mod scenario;
pub mod strategy;
pub mod trace;

pub use anduril_causal::{Interval, OccurrenceBounds, RootCall};
pub use anduril_logdiff::header as log_header;
pub use batch::{explore_batched, explore_batched_traced, BatchExplorerConfig};
pub use context::{FaultUnit, LoggedThrowable, ObservableInfo, RoundOutcome, SearchContext};
pub use explorer::{explore, explore_traced, reproduce, ExplorerConfig, ReproScript, Reproduction};
pub use feedback::{Aggregate, Combine, FeedbackConfig, FeedbackStrategy};
pub use oracle::Oracle;
pub use scenario::Scenario;
pub use strategy::Strategy;
pub use trace::{
    FileTracer, Json, NoopTracer, PlanProvenance, StrategyNote, TraceEvent, Tracer, VecTracer,
};
