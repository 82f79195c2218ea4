//! Interned sanitized-key diffing — the Explorer's linear-space fast path.
//!
//! Every Explorer round diffs the round's log against the *same* failure
//! log. The string-keyed path re-hashes and re-compares `(level, body)`
//! strings on every Myers equality test; this module interns each distinct
//! sanitized key to a `u32` token **once**, at [`InternedLog::new`] time,
//! so per-thread diffs run over `&[u32]` with word equality. Round logs
//! are tokenized by lookup only — the table is frozen after construction,
//! which is what lets the batch engine share one [`InternedLog`] across
//! worker threads through `&SearchContext` without synchronization.
//!
//! A round-log key absent from the failure log maps to the
//! [`NO_MATCH_TOKEN`] sentinel. That is sound because [`myers_matches`]
//! only ever tests equality *across* the two sequences and the failure
//! side is fully interned (never the sentinel): a sentinel token can
//! match nothing, exactly like the unseen string key it stands for. Two
//! distinct unseen run keys collapsing to one sentinel is unobservable —
//! run entries are never compared with each other.
//!
//! The structured side of the fast path is the [`DiffRecord`] trait: the
//! simulator's [`anduril_ir::LogEntry`] records implement it, so round
//! results feed [`InternedLog::compare`] directly, without the
//! render-to-text → [`crate::parse_log`] round trip. Text entry points
//! remain for the production failure log and the CLI.

use std::collections::{BTreeMap, HashMap};

use anduril_ir::Level;

use crate::compare::DiffResult;
use crate::myers::myers_matches;
use crate::parse::ParsedEntry;

/// Token for a run-log sanitized key that does not occur in the failure
/// log. Never assigned to a failure entry, so it matches nothing.
pub const NO_MATCH_TOKEN: u32 = u32::MAX;

/// Record shape the structured diff path consumes: the sanitized
/// comparison key `(node, thread, level, body)` by accessor, so both the
/// parser's [`ParsedEntry`] (text path) and the simulator's
/// [`anduril_ir::LogEntry`] (structured path) diff through one code path.
pub trait DiffRecord {
    /// Emitting node name.
    fn node(&self) -> &str;
    /// Emitting thread name.
    fn thread(&self) -> &str;
    /// Severity.
    fn level(&self) -> Level;
    /// Sanitized message body.
    fn body(&self) -> &str;
}

impl DiffRecord for ParsedEntry {
    fn node(&self) -> &str {
        &self.node
    }
    fn thread(&self) -> &str {
        &self.thread
    }
    fn level(&self) -> Level {
        self.level
    }
    fn body(&self) -> &str {
        &self.body
    }
}

impl DiffRecord for anduril_ir::LogEntry {
    fn node(&self) -> &str {
        &self.node
    }
    fn thread(&self) -> &str {
        &self.thread
    }
    fn level(&self) -> Level {
        self.level
    }
    fn body(&self) -> &str {
        &self.body
    }
}

/// Interner for sanitized `(level, body)` keys.
///
/// One body string hashes once regardless of level: the per-body slot
/// array is indexed by [`Level`] discriminant, so the four levels of the
/// same body get four distinct tokens from a single map entry.
#[derive(Debug, Clone, Default)]
pub struct InternTable {
    tokens: HashMap<String, [Option<u32>; 4]>,
    next: u32,
}

impl InternTable {
    /// Interns a key, assigning the next token on first sight.
    fn intern(&mut self, level: Level, body: &str) -> u32 {
        if !self.tokens.contains_key(body) {
            self.tokens.insert(body.to_string(), [None; 4]);
        }
        let slot = &mut self.tokens.get_mut(body).expect("just inserted")[level as usize];
        match *slot {
            Some(t) => t,
            None => {
                let t = self.next;
                self.next += 1;
                *slot = Some(t);
                t
            }
        }
    }

    /// Looks a key up without interning; unseen keys get
    /// [`NO_MATCH_TOKEN`].
    pub fn lookup(&self, level: Level, body: &str) -> u32 {
        self.tokens
            .get(body)
            .and_then(|slots| slots[level as usize])
            .unwrap_or(NO_MATCH_TOKEN)
    }

    /// Number of distinct `(level, body)` keys interned.
    pub fn len(&self) -> usize {
        self.next as usize
    }

    /// `true` when no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    /// Interns a `(level, body)` key after the construction-time freeze,
    /// returning its token (the existing token if the key was already
    /// seen).
    ///
    /// This is the append half of the incremental re-preparation story:
    /// observables promoted mid-search need their witness keys tokenized
    /// so presence checks stay O(1) hash probes, but the table shared with
    /// concurrently diffing workers must not move under them. Callers
    /// therefore append to a private copy (or a fresh table) rather than
    /// the one owned by an [`InternedLog`]; appended tokens never occur in
    /// any frozen failure group, so diffs are unaffected either way.
    pub fn append(&mut self, level: Level, body: &str) -> u32 {
        self.intern(level, body)
    }
}

/// A failure log fully interned and grouped by `(node, thread)`, ready to
/// be diffed against round logs in linear space.
///
/// Construction does all the string work once: grouping, interning, and
/// per-group token vectors. [`InternedLog::compare`] then only groups the
/// run side, tokenizes it by lookup, and runs the `u32` Myers diff —
/// producing output identical to [`compare`](crate::compare::compare) on
/// the equivalent parsed records (token equality coincides with `(level, body)` key
/// equality by construction).
#[derive(Debug, Clone)]
pub struct InternedLog {
    table: InternTable,
    /// Sorted `(node, thread)` keys with each group's failure-log entry
    /// indices (log order) and their interned tokens, index-aligned.
    groups: Vec<Group>,
}

/// One `(node, thread)` failure group: the key, the group's entry indices
/// in log order, and their interned tokens, index-aligned.
type Group = ((String, String), Vec<usize>, Vec<u32>);

impl InternedLog {
    /// Interns and groups a parsed failure log.
    pub fn new(failure: &[ParsedEntry]) -> InternedLog {
        let mut table = InternTable::default();
        let mut groups: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, e) in failure.iter().enumerate() {
            groups.entry((e.node(), e.thread())).or_default().push(i);
        }
        let groups = groups
            .into_iter()
            .map(|((n, t), indices)| {
                let tokens = indices
                    .iter()
                    .map(|&i| table.intern(failure[i].level(), failure[i].body()))
                    .collect();
                ((n.to_string(), t.to_string()), indices, tokens)
            })
            .collect();
        InternedLog { table, groups }
    }

    /// The frozen intern table (lookup only).
    pub fn table(&self) -> &InternTable {
        &self.table
    }

    /// Compares a run log — parsed or structured — against the interned
    /// failure log. Same output as [`compare`](crate::compare::compare) on
    /// the equivalent parsed records.
    pub fn compare<R: DiffRecord>(&self, run: &[R]) -> DiffResult {
        let mut run_groups: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, e) in run.iter().enumerate() {
            run_groups
                .entry((e.node(), e.thread()))
                .or_default()
                .push(i);
        }
        let mut result = DiffResult::default();
        for ((node, thread), f_indices, f_tokens) in &self.groups {
            match run_groups.get(&(node.as_str(), thread.as_str())) {
                None => {
                    // Thread only exists in the failure log: every entry is
                    // a relevant observable.
                    result.missing.extend(f_indices.iter().copied());
                }
                Some(r_indices) => {
                    let r_tokens: Vec<u32> = r_indices
                        .iter()
                        .map(|&i| self.table.lookup(run[i].level(), run[i].body()))
                        .collect();
                    let matches = myers_matches(&r_tokens, f_tokens);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare;
    use anduril_ir::{BlockId, LogEntry, StmtRef, TemplateId};

    fn entry(node: &str, thread: &str, time: u64, level: Level, body: &str) -> ParsedEntry {
        ParsedEntry {
            time: Some(time),
            node: node.to_string(),
            thread: thread.to_string(),
            level,
            body: body.to_string(),
            exc: None,
            stack: Vec::new(),
        }
    }

    fn assert_equivalent(run: &[ParsedEntry], failure: &[ParsedEntry]) {
        let interned = InternedLog::new(failure);
        let fast = interned.compare(run);
        let slow = compare(run, failure);
        assert_eq!(fast.missing, slow.missing);
        assert_eq!(fast.matches, slow.matches);
    }

    #[test]
    fn matches_string_path_on_mixed_logs() {
        let failure = vec![
            entry("n1", "main", 1, Level::Info, "started"),
            entry("n1", "main", 2, Level::Error, "sync failed"),
            entry("n1", "wal", 3, Level::Warn, "retry"),
            entry("n1", "wal", 4, Level::Warn, "retry"),
            entry("n2", "main", 5, Level::Info, "started"),
            entry("n2", "Abort", 6, Level::Error, "aborting"),
        ];
        let run = vec![
            entry("n1", "main", 1, Level::Info, "started"),
            entry("n1", "wal", 2, Level::Warn, "retry"),
            entry("n2", "main", 3, Level::Info, "started"),
            entry("n2", "main", 4, Level::Info, "not in failure"),
            entry("n3", "extra", 5, Level::Info, "run-only thread"),
        ];
        assert_equivalent(&run, &failure);
    }

    #[test]
    fn level_distinguishes_tokens_for_same_body() {
        let failure = vec![entry("n", "t", 1, Level::Error, "disk sync slow")];
        let run = vec![entry("n", "t", 1, Level::Info, "disk sync slow")];
        let interned = InternedLog::new(&failure);
        let d = interned.compare(&run);
        assert_eq!(d.missing, vec![0]);
        assert!(d.matches.is_empty());
        // One body, two levels, two distinct tokens — and the run-side
        // token is real (looked up), not the sentinel.
        assert_ne!(
            interned.table().lookup(Level::Info, "disk sync slow"),
            interned.table().lookup(Level::Error, "disk sync slow"),
        );
        assert_equivalent(&run, &failure);
    }

    #[test]
    fn unseen_run_keys_map_to_sentinel_and_never_match() {
        let failure = vec![entry("n", "t", 1, Level::Info, "known")];
        let run = vec![
            entry("n", "t", 1, Level::Info, "unknown A"),
            entry("n", "t", 2, Level::Info, "unknown B"),
            entry("n", "t", 3, Level::Info, "known"),
        ];
        let interned = InternedLog::new(&failure);
        assert_eq!(
            interned.table().lookup(Level::Info, "unknown A"),
            NO_MATCH_TOKEN
        );
        let d = interned.compare(&run);
        assert!(d.missing.is_empty());
        assert_eq!(d.matches, vec![(2, 0)]);
        assert_equivalent(&run, &failure);
    }

    #[test]
    fn structured_entries_diff_like_parsed_entries() {
        let failure = vec![
            entry("n", "main", 1, Level::Info, "started"),
            entry("n", "main", 2, Level::Error, "sync failed"),
        ];
        let structured = vec![LogEntry {
            time: 7,
            node: "n".into(),
            thread: "main".into(),
            level: Level::Info,
            template: TemplateId(0),
            stmt: StmtRef::new(BlockId(0), 0),
            body: "started".into(),
            exc: None,
            stack: Vec::new(),
        }];
        let parsed = vec![entry("n", "main", 7, Level::Info, "started")];
        let interned = InternedLog::new(&failure);
        let via_structured = interned.compare(&structured);
        let via_parsed = interned.compare(&parsed);
        assert_eq!(via_structured.missing, via_parsed.missing);
        assert_eq!(via_structured.matches, via_parsed.matches);
        assert_eq!(via_structured.missing, vec![1]);
    }

    #[test]
    fn append_extends_a_copied_table_without_disturbing_diffs() {
        let failure = vec![
            entry("n", "main", 1, Level::Info, "started"),
            entry("n", "main", 2, Level::Error, "sync failed"),
        ];
        let run = vec![
            entry("n", "main", 1, Level::Info, "started"),
            entry("n", "main", 2, Level::Warn, "wal rotated"),
        ];
        let interned = InternedLog::new(&failure);
        let before = interned.compare(&run);

        // Append to a private copy: existing keys keep their tokens, new
        // keys get fresh ones, and idempotently so.
        let mut table = interned.table().clone();
        let started = table.append(Level::Info, "started");
        assert_eq!(started, interned.table().lookup(Level::Info, "started"));
        let rotated = table.append(Level::Warn, "wal rotated");
        assert_ne!(rotated, NO_MATCH_TOKEN);
        assert_eq!(table.append(Level::Warn, "wal rotated"), rotated);
        assert_eq!(table.lookup(Level::Warn, "wal rotated"), rotated);
        assert_eq!(table.len(), interned.table().len() + 1);

        // The frozen table and its diffs are untouched.
        assert_eq!(
            interned.table().lookup(Level::Warn, "wal rotated"),
            NO_MATCH_TOKEN
        );
        let after = interned.compare(&run);
        assert_eq!(before.missing, after.missing);
        assert_eq!(before.matches, after.matches);
    }

    #[test]
    fn intern_table_len_counts_distinct_keys() {
        let failure = vec![
            entry("n", "a", 1, Level::Info, "x"),
            entry("n", "b", 2, Level::Info, "x"), // same key, other thread
            entry("n", "a", 3, Level::Warn, "x"), // same body, other level
            entry("n", "a", 4, Level::Info, "y"),
        ];
        let interned = InternedLog::new(&failure);
        assert_eq!(interned.table().len(), 3);
        assert!(!interned.table().is_empty());
    }
}
