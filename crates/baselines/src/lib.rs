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

/// How a registered strategy is built: a fresh one per call.
pub type Make = fn() -> Box<dyn Strategy>;

/// Every strategy there is a name for, one `(cli, column, constructor)` row
/// each: `cli` is what `anduril reproduce --strategy` takes, `column` the
/// strategy's own [`Strategy::name`], which heads its column in the tables.
/// Table 2's columns come first, in column order (full ANDURIL leading),
/// then the extended ablations of DESIGN.md §6, then full feedback with
/// adaptive observable promotion (DESIGN.md §15).
#[rustfmt::skip] // a table: one row a line
pub static REGISTRY: [(&str, &str, Make); 14] = [
    ("full", "full-feedback", || feedback(FeedbackConfig::full())),
    ("exhaustive", "exhaustive", || feedback(FeedbackConfig::exhaustive())),
    ("site-distance", "site-distance", || feedback(FeedbackConfig::site_distance())),
    ("site-distance-limit3", "site-distance-limit3", || feedback(FeedbackConfig::site_distance_limited())),
    ("site-feedback", "site-feedback", || feedback(FeedbackConfig::site_feedback())),
    ("multiply", "multiply-feedback", || feedback(FeedbackConfig::multiply())),
    ("fate", "fate", || Box::new(Fate::new())),
    ("crashtuner", "crashtuner", || Box::new(CrashTuner::crashes())),
    ("crashtuner-meta-exc", "crashtuner-meta-exc", || Box::new(CrashTuner::meta_exceptions())),
    ("stacktrace", "stacktrace-injector", || Box::new(StacktraceInjector::new())),
    ("sum-aggregate", "sum-aggregate", || feedback(FeedbackConfig::sum_aggregate())),
    ("order-distance", "order-distance", || feedback(FeedbackConfig::order_distance())),
    ("global-diff", "global-diff", || feedback(FeedbackConfig::global_diff())),
    ("full-adaptive", "full-adaptive", || feedback(FeedbackConfig::full_adaptive())),
];

fn feedback(cfg: FeedbackConfig) -> Box<dyn Strategy> {
    Box::new(FeedbackStrategy::new(cfg))
}

/// Every strategy evaluated in Table 2, in column order.
pub fn table2_strategies() -> &'static [(&'static str, &'static str, Make)] {
    &REGISTRY[..10]
}

/// The strategy registered under `name` (its CLI or its column name).
pub fn by_name(name: &str) -> Option<Box<dyn Strategy>> {
    REGISTRY
        .iter()
        .find(|(cli, column, _)| *cli == name || *column == name)
        .map(|(_, _, make)| make())
}
