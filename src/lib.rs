//! ANDURIL in Rust: feedback-driven fault injection for reproducing
//! fault-induced failures in distributed systems.
//!
//! This workspace reproduces the SOSP '24 paper *Efficient Reproduction of
//! Fault-Induced Failures in Distributed Systems with Feedback-Driven
//! Fault Injection* end to end: the static causal analysis, the
//! feedback-driven Explorer, five mini target distributed systems, the 22
//! evaluated failures, the ablation variants, and the external
//! comparators. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the regenerated evaluation.
//!
//! This facade crate re-exports the public API of every component crate:
//!
//! - [`ir`] — the program IR targets are written in;
//! - [`sim`] — the deterministic simulator and fault-injection runtime;
//! - [`logdiff`] — log parsing, per-thread Myers diff, timeline alignment;
//! - [`causal`] — the static causal graph (Algorithm 1);
//! - the Explorer types at the crate root (re-exported from
//!   `anduril-core`);
//! - [`baselines`] — ablation variants and external comparators;
//! - [`targets`] — the five mini distributed systems;
//! - [`failures`] — the 22 failure cases.
//!
//! # Examples
//!
//! ```no_run
//! use anduril::{baselines, explore, ExplorerConfig, NoopTracer};
//! use anduril::failures::case_by_id;
//!
//! // The two calls every harness in the workspace makes: a case prepares
//! // (ground truth, failure log, search context), a name picks a strategy
//! // — a `Box<dyn Strategy>`: four calls (`name`, `init`, `plan_injection`,
//! // `feedback`) and `model()`, the priority model if it has one.
//! let case = case_by_id("f17").expect("motivating example");
//! let prepared = case.prepare(1_000, &NoopTracer).expect("ground truth resolvable");
//! let mut strategy = baselines::by_name("full").expect("registered");
//! let repro = explore(
//!     &prepared.ctx,
//!     &case.oracle,
//!     strategy.as_mut(),
//!     &ExplorerConfig::default(),
//!     Some(prepared.gt.site),
//! )
//! .expect("exploration runs");
//! assert!(repro.success);
//! println!("reproduced in {} rounds: {:?}", repro.rounds, repro.script);
//! ```

pub use anduril_core::{
    explore, explore_batched, explore_batched_traced, explore_traced, reproduce,
    BatchExplorerConfig, Combine, ExplorerConfig, FaultUnit, FeedbackConfig, FeedbackStrategy,
    FileTracer, Json, NoopTracer, ObservableInfo, Oracle, PlanProvenance, ReproScript,
    Reproduction, RoundOutcome, Scenario, SearchContext, Strategy, StrategyNote, TraceEvent,
    Tracer, VecTracer,
};

/// The structured search-trace layer (re-export of `anduril-core::trace`).
pub mod trace {
    pub use anduril_core::trace::*;
}

/// The program IR (re-export of `anduril-ir`).
pub mod ir {
    pub use anduril_ir::*;
}

/// The deterministic simulator (re-export of `anduril-sim`).
pub mod sim {
    pub use anduril_sim::*;
}

/// Log processing (re-export of `anduril-logdiff`).
pub mod logdiff {
    pub use anduril_logdiff::*;
}

/// Static causal analysis (re-export of `anduril-causal`).
pub mod causal {
    pub use anduril_causal::*;
}

/// Baseline strategies (re-export of `anduril-baselines`).
pub mod baselines {
    pub use anduril_baselines::*;
}

/// The five mini target systems (re-export of `anduril-targets`).
pub mod targets {
    pub use anduril_targets::*;
}

/// The 22 failure cases (re-export of `anduril-failures`).
pub mod failures {
    pub use anduril_failures::*;
}

/// The scenario generator with planted ground truth (re-export of
/// `anduril-gen`).
pub mod gen {
    pub use anduril_gen::*;
}
