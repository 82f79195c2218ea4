//! Per-thread sanitized log comparison (§5.1.1).
//!
//! A standard whole-file diff fails on distributed-system logs: timestamps
//! make every line unique and concurrent threads interleave differently
//! across runs. Following the paper, entries are grouped by thread (we key
//! on `(node, thread)` since thread names repeat across nodes), sanitized
//! (timestamps dropped), and diffed per group with the Myers algorithm.
//! Threads present only in the failure log contribute all their entries as
//! relevant observables.

use std::collections::BTreeMap;

use anduril_ir::Level;

use crate::intern::DiffRecord;
use crate::myers::myers_matches;
use crate::parse::ParsedEntry;

/// Result of comparing a run log against the failure log.
#[derive(Debug, Clone, Default)]
pub struct DiffResult {
    /// Indices (into the failure log) of entries with no match in the run
    /// log — the paper's *relevant observables* source set.
    pub missing: Vec<usize>,
    /// Matched `(run_idx, failure_idx)` anchor pairs across all threads, in
    /// increasing run-index order per thread.
    pub matches: Vec<(usize, usize)>,
}

/// Groups entry indices by `(node, thread)`.
fn group_by_thread(entries: &[ParsedEntry]) -> BTreeMap<(&str, &str), Vec<usize>> {
    let mut groups: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, e) in entries.iter().enumerate() {
        groups.entry((&*e.node, &*e.thread)).or_default().push(i);
    }
    groups
}

/// Compares a (normal or round) run log against the failure log.
///
/// Returns the failure-only entries and the matched anchor pairs. Both logs
/// are taken as parsed records; sanitization (timestamp removal) is implied
/// by comparing [`ParsedEntry::sanitized`] keys, which exclude time.
///
/// This is the string-keyed **reference** formulation of the per-thread
/// diff: the Explorer's rounds go through
/// [`InternedLog::compare`](crate::InternedLog::compare), and the property
/// and search-level tests pin the two to identical output.
pub fn compare(run: &[ParsedEntry], failure: &[ParsedEntry]) -> DiffResult {
    let run_groups = group_by_thread(run);
    let mut result = DiffResult::default();
    for (key, f_indices) in group_by_thread(failure) {
        match run_groups.get(&key) {
            None => {
                // Thread only exists in the failure log: every entry is a
                // relevant observable.
                result.missing.extend(f_indices.iter().copied());
            }
            Some(r_indices) => {
                // Diff on the full sanitized key minus the grouping: (level,
                // body). Matching on body alone would let an INFO line match
                // an ERROR line with the same text, hiding level-only
                // divergences.
                let r_keys: Vec<(Level, &str)> = r_indices
                    .iter()
                    .map(|&i| (run[i].level, &*run[i].body))
                    .collect();
                let f_keys: Vec<(Level, &str)> = f_indices
                    .iter()
                    .map(|&i| (failure[i].level, &*failure[i].body))
                    .collect();
                let matches = myers_matches(&r_keys, &f_keys);
                let matched_f: std::collections::HashSet<usize> =
                    matches.iter().map(|&(_, j)| j).collect();
                for (j, &fi) in f_indices.iter().enumerate() {
                    if !matched_f.contains(&j) {
                        result.missing.push(fi);
                    }
                }
                for (ri, fj) in matches {
                    result.matches.push((r_indices[ri], f_indices[fj]));
                }
            }
        }
    }
    result.missing.sort_unstable();
    result.matches.sort_unstable();
    result
}

/// A *global* (non-per-thread) comparison — the naive baseline §5.1.1
/// argues against. Entries are matched by `(level, body)` over the whole
/// interleaved sequence, so cross-run reordering between threads produces
/// spurious missing entries. Kept for the ablation study; the run side is
/// any [`DiffRecord`], so a round's structured log diffs without a text
/// round trip.
pub fn compare_global<R: DiffRecord>(run: &[R], failure: &[ParsedEntry]) -> DiffResult {
    let r_keys: Vec<(Level, &str)> = run.iter().map(|e| (e.level(), e.body())).collect();
    let f_keys: Vec<(Level, &str)> = failure.iter().map(|e| (e.level, &*e.body)).collect();
    let matches = myers_matches(&r_keys, &f_keys);
    let matched: std::collections::HashSet<usize> = matches.iter().map(|&(_, j)| j).collect();
    DiffResult {
        missing: (0..failure.len())
            .filter(|j| !matched.contains(j))
            .collect(),
        matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anduril_ir::Level;

    fn entry(node: &str, thread: &str, time: u64, body: &str) -> ParsedEntry {
        ParsedEntry {
            time: Some(time),
            node: node.into(),
            thread: thread.into(),
            level: Level::Info,
            body: body.into(),
            exc: None,
            stack: Vec::new(),
        }
    }

    #[test]
    fn timestamps_do_not_defeat_matching() {
        let normal = vec![entry("n", "t", 1, "started"), entry("n", "t", 2, "done")];
        let failure = vec![
            entry("n", "t", 900, "started"),
            entry("n", "t", 950, "sync failed"),
            entry("n", "t", 990, "done"),
        ];
        let d = compare(&normal, &failure);
        assert_eq!(d.missing, vec![1]);
        assert_eq!(d.matches, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn global_diff_is_confused_by_interleaving() {
        // The same content interleaved differently: the per-thread diff
        // sees nothing missing; the global diff reports noise.
        let normal = vec![
            entry("n", "a", 1, "a1"),
            entry("n", "b", 2, "b1"),
            entry("n", "a", 3, "a2"),
            entry("n", "b", 4, "b2"),
        ];
        let failure = vec![
            entry("n", "b", 1, "b1"),
            entry("n", "b", 2, "b2"),
            entry("n", "a", 3, "a1"),
            entry("n", "a", 4, "a2"),
        ];
        assert!(compare(&normal, &failure).missing.is_empty());
        assert!(!compare_global(&normal, &failure).missing.is_empty());
    }

    #[test]
    fn interleaving_across_threads_is_tolerated() {
        // Same per-thread content, different interleaving.
        let normal = vec![
            entry("n", "a", 1, "a1"),
            entry("n", "b", 2, "b1"),
            entry("n", "a", 3, "a2"),
            entry("n", "b", 4, "b2"),
        ];
        let failure = vec![
            entry("n", "b", 1, "b1"),
            entry("n", "b", 2, "b2"),
            entry("n", "a", 3, "a1"),
            entry("n", "a", 4, "a2"),
        ];
        let d = compare(&normal, &failure);
        assert!(d.missing.is_empty(), "a global diff would report noise");
        assert_eq!(d.matches.len(), 4);
    }

    #[test]
    fn failure_only_thread_is_all_relevant() {
        let normal = vec![entry("n", "main", 1, "x")];
        let failure = vec![
            entry("n", "main", 1, "x"),
            entry("n", "AbortHandler", 2, "aborting"),
            entry("n", "AbortHandler", 3, "cleanup"),
        ];
        let d = compare(&normal, &failure);
        assert_eq!(d.missing, vec![1, 2]);
    }

    #[test]
    fn same_thread_name_on_different_nodes_kept_apart() {
        let normal = vec![entry("n1", "main", 1, "only on n1")];
        let failure = vec![entry("n2", "main", 1, "only on n1")];
        let d = compare(&normal, &failure);
        // n2:main has no counterpart group, so its entry is missing even
        // though an identical body exists on another node.
        assert_eq!(d.missing, vec![0]);
    }

    #[test]
    fn same_body_different_level_does_not_match() {
        // Regression: the diff key is (level, body), not body alone — a
        // level-only divergence (e.g. a WARN escalating to ERROR in the
        // failure run) is a relevant observable.
        let mut failure = vec![entry("n", "t", 1, "disk sync slow")];
        failure[0].level = Level::Error;
        let normal = vec![entry("n", "t", 1, "disk sync slow")]; // Info
        let d = compare(&normal, &failure);
        assert_eq!(d.missing, vec![0]);
        assert!(d.matches.is_empty());
        let g = compare_global(&normal, &failure);
        assert_eq!(g.missing, vec![0]);
    }

    #[test]
    fn repeated_bodies_match_pairwise() {
        let normal = vec![entry("n", "t", 1, "retry"), entry("n", "t", 2, "retry")];
        let failure = vec![
            entry("n", "t", 1, "retry"),
            entry("n", "t", 2, "retry"),
            entry("n", "t", 3, "retry"),
        ];
        let d = compare(&normal, &failure);
        assert_eq!(d.missing.len(), 1, "one extra retry in the failure log");
    }
}
