//! Shared harness for regenerating every table and figure of the paper's
//! evaluation.
//!
//! Each `table*` / `figure6` binary in `src/bin` prints one artifact; the
//! `all` binary runs the full evaluation and writes the outputs under
//! `results/`. Absolute numbers differ from the paper (the substrate is a
//! discrete-event simulator, not a 20-core testbed); the *shape* — who
//! reproduces what, in how many rounds, and where the orderings cross — is
//! the reproduction target.

pub use anduril_core::trace::report::TextTable;
use anduril_core::trace::{TraceEvent, VecTracer};
use anduril_core::{explore, ExplorerConfig, Reproduction, SearchContext, Strategy};
use anduril_failures::{FailureCase, GroundTruth};

/// A failure case prepared for exploration: failure log generated, context
/// (normal run + causal graph) built, ground truth resolved.
pub struct PreparedCase {
    /// The case definition.
    pub case: FailureCase,
    /// The rendered "production" failure log.
    pub failure_log: String,
    /// The prepared search context.
    pub ctx: SearchContext,
    /// The known root cause.
    pub gt: GroundTruth,
}

/// Prepares a case end to end.
///
/// # Panics
///
/// Panics if the case's ground truth cannot be resolved — that is a bug in
/// the failure definition, not an expected runtime condition.
pub fn prepare(case: FailureCase) -> PreparedCase {
    let gt = case
        .ground_truth()
        .unwrap_or_else(|e| panic!("{}: ground truth: {e}", case.id));
    let failure_log = case
        .failure_log()
        .unwrap_or_else(|e| panic!("{}: failure log: {e}", case.id));
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
        .unwrap_or_else(|e| panic!("{}: context: {e}", case.id));
    PreparedCase {
        case,
        failure_log,
        ctx,
        gt,
    }
}

/// [`prepare`] with the context-phase trace captured: returns the
/// prepared case plus the [`TraceEvent`] stream of the preparation, so
/// bench binaries can derive timing tables from trace spans instead of
/// reaching into `ctx.timings`.
///
/// # Panics
///
/// Same contract as [`prepare`].
pub fn prepare_with_trace(case: FailureCase) -> (PreparedCase, Vec<TraceEvent>) {
    let gt = case
        .ground_truth()
        .unwrap_or_else(|e| panic!("{}: ground truth: {e}", case.id));
    let failure_log = case
        .failure_log()
        .unwrap_or_else(|e| panic!("{}: failure log: {e}", case.id));
    let tracer = VecTracer::new();
    let ctx = SearchContext::prepare_traced(case.scenario.clone(), &failure_log, 1_000, &tracer)
        .unwrap_or_else(|e| panic!("{}: context: {e}", case.id));
    (
        PreparedCase {
            case,
            failure_log,
            ctx,
            gt,
        },
        tracer.take(),
    )
}

/// Sums the host-nanosecond spans of the named context phase in a trace
/// (0 when the phase never ran).
pub fn phase_ns(events: &[TraceEvent], name: &str) -> u64 {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ContextPhase { phase, ns, .. } if *phase == name => Some(*ns),
            _ => None,
        })
        .sum()
}

/// Runs one strategy against a prepared case with a round cap.
pub fn run_strategy(
    prepared: &PreparedCase,
    strategy: &mut dyn Strategy,
    max_rounds: usize,
) -> Reproduction {
    let cfg = ExplorerConfig {
        max_rounds,
        ..ExplorerConfig::default()
    };
    explore(
        &prepared.ctx,
        &prepared.case.oracle,
        strategy,
        &cfg,
        Some(prepared.gt.site),
    )
    .expect("exploration runs do not hit simulator errors")
}

/// Formats rounds + time for one table cell; `-` when not reproduced.
pub fn cell(r: &Reproduction) -> String {
    if r.success {
        format!(
            "{} / {}kt / {}ms",
            r.rounds,
            r.sim_time_total / 1_000,
            r.wall.as_millis()
        )
    } else {
        "-".to_string()
    }
}

/// Median of a slice (0 if empty); the slice is sorted in place.
pub fn median(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

/// The footnote under a decision-latency column: what an empty `now()` …
/// `elapsed()` pair reads on this host (median of 1 001). A decision is
/// timed between two such reads, so this much of every latency printed
/// above is the timer, not the decision.
pub fn timer_floor_note() -> String {
    let mut pairs: Vec<u64> = (0..1_001)
        .map(|_| std::time::Instant::now().elapsed().as_nanos() as u64)
        .collect();
    format!(
        "Decision latency is per armed request (one in 64 timed, each run's first \
         included) and includes the timer's own {} ns on this host.",
        median(&mut pairs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3, 1, 2]), 2);
        assert_eq!(median(&mut [4, 1, 3, 2]), 3);
        assert_eq!(median(&mut []), 0);
    }
}
