//! The 22 real-world failure scenarios (f1–f22) the paper evaluates on,
//! recreated on the mini target systems.
//!
//! Each [`FailureCase`] carries a [`anduril_core::Scenario`] (system +
//! workload), a failure [`anduril_core::Oracle`], and the known root cause.
//! The "production" failure log is produced by replaying the ground truth
//! — mirroring the paper's setup for tickets that ship without a log file —
//! and [`FailureCase::prepare`] is the one way from a case to a search:
//! ground truth, that log, and the [`anduril_core::SearchContext`] over it.

#![warn(missing_docs)]

pub mod case;
pub mod cassandra_cases;
pub mod hbase_cases;
pub mod hdfs_cases;
pub mod kafka_cases;
pub mod zookeeper_cases;

pub use case::{CaseError, DeeperCause, FailureCase, GroundTruth, NodeArgs, PreparedCase};

/// Sort key giving a total, panic-free order over case ids: the paper's
/// `fN` ids sort numerically first, anything else (e.g. a generated
/// `gen-0042`) sorts lexicographically after them. The registry must
/// never panic on an id shape — synthetic cases share this namespace.
fn id_sort_key(id: &str) -> (u8, u32, String) {
    match id.strip_prefix('f').and_then(|n| n.parse::<u32>().ok()) {
        Some(n) => (0, n, String::new()),
        None => (1, 0, id.to_string()),
    }
}

/// The five target systems' registries, in paper order. Each call builds
/// its system's program once and hands the same `Arc` to every case.
const SYSTEMS: [fn() -> Vec<FailureCase>; 5] = [
    zookeeper_cases::cases,
    hdfs_cases::cases,
    hbase_cases::cases,
    kafka_cases::cases,
    cassandra_cases::cases,
];

/// Every implemented failure case, in paper order.
pub fn all_cases() -> Vec<FailureCase> {
    let mut v: Vec<FailureCase> = SYSTEMS.iter().flat_map(|cases| cases()).collect();
    v.sort_by_key(|c| id_sort_key(c.id));
    v
}

/// Looks up a case by its paper id (`"f17"`) or ticket (`"HB-25905"`),
/// either without regard to case. Builds the systems in paper order up to
/// the one that holds the case.
pub fn case_by_id(id: &str) -> Option<FailureCase> {
    SYSTEMS.iter().find_map(|cases| {
        cases()
            .into_iter()
            .find(|c| c.id.eq_ignore_ascii_case(id) || c.ticket.eq_ignore_ascii_case(id))
    })
}

#[cfg(test)]
mod tests {
    use super::id_sort_key;

    /// Paper ids order numerically (`f2` before `f10`), non-`fN` ids sort
    /// lexicographically after every paper id, and no shape panics — the
    /// old key `id[1..].parse().expect(..)` died on `gen-0042`, `f`, `""`,
    /// and even `fx`.
    #[test]
    fn id_ordering_is_total_and_panic_free() {
        let mut ids = vec!["gen-0042", "f10", "gen-0007", "f2", "fx", "", "f", "f1"];
        ids.sort_by_key(|id| id_sort_key(id));
        assert_eq!(
            ids,
            vec!["f1", "f2", "f10", "", "f", "fx", "gen-0007", "gen-0042"]
        );
    }
}
