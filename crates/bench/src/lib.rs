//! Shared harness for regenerating every table and figure of the paper's
//! evaluation.
//!
//! `--bin paper -- <artifact>` prints one artifact (`paper list` names
//! them), `paper all` runs the full evaluation in one process and writes
//! the outputs under `results/`; `scale` and `generator` are bins of
//! their own. Absolute numbers differ from the paper (the
//! substrate is a discrete-event simulator, not a 20-core testbed); the
//! *shape* — who reproduces what, in how many rounds, and where the
//! orderings cross — is the reproduction target.

use std::cell::{Cell, OnceCell};

pub use anduril_core::trace::report::TextTable;
use anduril_core::trace::{TraceEvent, VecTracer};
use anduril_core::{explore, ExplorerConfig, Reproduction, Strategy};
use anduril_failures::{all_cases, FailureCase, PreparedCase};

/// The 22 tickets, each prepared at seed 1000 the first time an artifact
/// asks for it and never again in this process.
pub struct Cases {
    cases: Vec<FailureCase>,
    prepared: Vec<OnceCell<(PreparedCase, Vec<TraceEvent>)>>,
    preparations: Cell<usize>,
}

/// One prepared ticket.
#[derive(Clone, Copy)]
pub struct Ticket<'a> {
    /// The case definition.
    pub case: &'a FailureCase,
    /// Ground truth, failure log and search context.
    pub prepared: &'a PreparedCase,
    /// What the preparation traced: its `ContextPhase` spans.
    pub prep_trace: &'a [TraceEvent],
}

impl Default for Cases {
    /// The bundled tickets, none prepared yet.
    fn default() -> Self {
        let cases = all_cases();
        Cases {
            prepared: cases.iter().map(|_| OnceCell::new()).collect(),
            cases,
            preparations: Cell::new(0),
        }
    }
}

impl Cases {
    /// The case definitions, in paper order.
    pub fn definitions(&self) -> &[FailureCase] {
        &self.cases
    }

    /// Every ticket in paper order, each prepared as the iterator
    /// reaches it.
    pub fn tickets(&self) -> impl Iterator<Item = Ticket<'_>> {
        (0..self.cases.len()).map(|i| self.at(i))
    }

    /// The ticket with paper id `id`, prepared.
    pub fn ticket(&self, id: &str) -> Ticket<'_> {
        let i = self.cases.iter().position(|c| c.id == id);
        self.at(i.unwrap_or_else(|| panic!("no ticket `{id}`")))
    }

    /// # Panics
    ///
    /// Panics if a bundled case does not prepare — that is a bug in the
    /// failure definition, not an expected runtime condition.
    fn at(&self, i: usize) -> Ticket<'_> {
        let case = &self.cases[i];
        let (prepared, prep_trace) = self.prepared[i].get_or_init(|| {
            self.preparations.set(self.preparations.get() + 1);
            let tracer = VecTracer::new();
            let prepared = case
                .prepare(1_000, &tracer)
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
            (prepared, tracer.take())
        });
        Ticket {
            case,
            prepared,
            prep_trace,
        }
    }

    /// How many preparations this process has made.
    pub fn preparations(&self) -> usize {
        self.preparations.get()
    }
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

/// Runs one strategy against a prepared ticket with a round cap.
pub fn run_strategy(
    ticket: Ticket<'_>,
    strategy: &mut dyn Strategy,
    max_rounds: usize,
) -> Reproduction {
    let cfg = ExplorerConfig {
        max_rounds,
        ..ExplorerConfig::default()
    };
    explore(
        &ticket.prepared.ctx,
        &ticket.case.oracle,
        strategy,
        &cfg,
        Some(ticket.prepared.gt.site),
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
