//! Baseline fault-injection strategies: the paper's ablation variants and
//! external comparators.
//!
//! The five ablation variants of §8.3 (exhaustive, fault-site distance,
//! distance with instance limit, fault-site feedback, multiply feedback)
//! are configurations of [`anduril_core::FeedbackStrategy`]; this crate
//! re-exports constructors for them and adds the external tools of §8.4:
//!
//! - [`StacktraceInjector`] — injects only at fault sites extracted from
//!   throwables logged in the failure log, guarded on stack matches;
//! - [`Fate`] — FATE-style breadth-first coverage over failure IDs;
//! - [`CrashTuner`] — crash injection at meta-info access points (plus an
//!   exception-injection adaptation of the same timing heuristic).

#![warn(missing_docs)]

pub mod crashtuner;
pub mod fate;
mod queue;
pub mod stacktrace;

pub use crashtuner::{CrashTuner, Mode};
pub use fate::Fate;
pub use stacktrace::StacktraceInjector;

use anduril_core::{FeedbackConfig, FeedbackStrategy, Strategy};

/// Every strategy evaluated in Table 2, in column order.
///
/// Returns `(column name, strategy)` pairs; the first entry is full
/// ANDURIL.
pub fn table2_strategies() -> Vec<(&'static str, Box<dyn Strategy>)> {
    vec![
        (
            "full-feedback",
            Box::new(FeedbackStrategy::new(FeedbackConfig::full())),
        ),
        (
            "exhaustive",
            Box::new(FeedbackStrategy::new(FeedbackConfig::exhaustive())),
        ),
        (
            "site-distance",
            Box::new(FeedbackStrategy::new(FeedbackConfig::site_distance())),
        ),
        (
            "site-distance-limit3",
            Box::new(FeedbackStrategy::new(
                FeedbackConfig::site_distance_limited(),
            )),
        ),
        (
            "site-feedback",
            Box::new(FeedbackStrategy::new(FeedbackConfig::site_feedback())),
        ),
        (
            "multiply-feedback",
            Box::new(FeedbackStrategy::new(FeedbackConfig::multiply())),
        ),
        ("fate", Box::new(Fate::new())),
        ("crashtuner", Box::new(CrashTuner::crashes())),
        (
            "crashtuner-meta-exc",
            Box::new(CrashTuner::meta_exceptions()),
        ),
    ]
}
