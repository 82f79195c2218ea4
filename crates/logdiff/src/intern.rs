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
//! [`NO_MATCH_TOKEN`] sentinel. That is sound because
//! [`myers_matches`](crate::myers_matches) only ever tests equality
//! *across* the two sequences and the failure
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
//!
//! Algorithm 2 asks one thing of a round's diff — *which failure entries
//! are still unmatched* — and asks it of the same failure log every
//! round, while an injection perturbs few threads. So beside the full
//! [`InternedLog::compare`] (pairs and all, for the alignment of §5.2.3)
//! there is [`InternedLog::missing_in`]: the same per-group diff, run only
//! on the groups the caller wants and remembered in a [`DiffMemo`] under
//! the group's run-token sequence, so a thread log a search has seen
//! before is not diffed again.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use anduril_ir::Level;

use crate::compare::DiffResult;
use crate::myers::{myers_matches_into, Scratch};
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

/// The hasher behind both maps of this module: a multiply and a rotate
/// per eight bytes of key.
///
/// Log bodies and token sequences are hashed every round, and SipHash's
/// per-key set-up and finish dominate keys this short. Neither map is ever
/// iterated, and both compare a key in full once its bucket is found, so a
/// failure log whose bodies collide costs probes, never a wrong token.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // The length keeps `"a"` and `"a\0"` apart.
            self.mix(u64::from_le_bytes(last) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// The multiply leaves its best bits on top; the table indexes with
    /// the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Interner for sanitized `(level, body)` keys.
///
/// One body string hashes once regardless of level: the per-body slot
/// array is indexed by [`Level`] discriminant, so the four levels of the
/// same body get four distinct tokens from a single map entry.
#[derive(Debug, Clone, Default)]
pub struct InternTable {
    tokens: WordMap<Arc<str>, [Option<u32>; 4]>,
    next: u32,
}

impl InternTable {
    /// Interns a key, assigning the next token on first sight. The table
    /// keeps `body` itself (a reference count, no copy) when the body is
    /// new to it.
    fn intern(&mut self, level: Level, body: &Arc<str>) -> u32 {
        if let Some(Some(t)) = self.tokens.get(&**body).map(|slots| slots[level as usize]) {
            return t;
        }
        let t = self.next;
        self.next += 1;
        self.tokens.entry(body.clone()).or_insert([None; 4])[level as usize] = Some(t);
        t
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
        match self.lookup(level, body) {
            NO_MATCH_TOKEN => self.intern(level, &Arc::from(body)),
            known => known,
        }
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
    /// Entries in the failure log.
    len: usize,
}

/// One `(node, thread)` failure group: the key, the group's entry indices
/// in log order, and their interned tokens, index-aligned.
type Group = ((Arc<str>, Arc<str>), Vec<usize>, Vec<u32>);

/// Slots of [`InternedLog::route`]'s direct-mapped name cache; a run has
/// a few dozen `(node, thread)` pairs at most, and a collision only costs
/// the binary search the cache saves.
const NAME_SLOTS: usize = 32;

/// Buffers of one diff call, reused from group to group — and from round
/// to round when a [`DiffMemo`] owns them.
#[derive(Debug, Default)]
struct Work {
    /// `routed[g]` = the run entries of failure group `g`, in log order.
    routed: Vec<Vec<usize>>,
    /// Tokens of the run entries of the group under diff.
    r_tokens: Vec<u32>,
    scratch: Scratch,
    /// LCS pairs `(i, j)` of the last diff, group-local on both sides.
    matches: Vec<(usize, usize)>,
    /// `matched[j]` = failure entry `j` of the last diffed group has a
    /// pair.
    matched: Vec<bool>,
}

impl Work {
    /// Tokenizes the run entries routed to group `g`, by lookup.
    fn tokenize<R: DiffRecord>(&mut self, table: &InternTable, run: &[R], g: usize) {
        self.r_tokens.clear();
        self.r_tokens.extend(
            self.routed[g]
                .iter()
                .map(|&i| table.lookup(run[i].level(), run[i].body())),
        );
    }

    /// The per-group diff (§5.1.1) both entry points run: Myers over the
    /// tokenized run entries and one group's failure tokens. A thread the
    /// run does not have tokenizes to nothing and matches nothing, so
    /// every one of its failure entries stays a relevant observable.
    fn diff(&mut self, f_tokens: &[u32]) {
        myers_matches_into(
            &self.r_tokens,
            f_tokens,
            &mut self.scratch,
            &mut self.matches,
        );
        self.matched.clear();
        self.matched.resize(f_tokens.len(), false);
        for &(_, j) in &self.matches {
            self.matched[j] = true;
        }
    }

    /// The failure-log indices the last diff left unmatched, of the group
    /// whose entries are `f_indices`.
    fn unmatched<'a>(&'a self, f_indices: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        let entries = f_indices.iter().zip(&self.matched);
        entries.filter(|(_, &m)| !m).map(|(&fi, _)| fi)
    }
}

/// Key tokens plus answer indices past which a [`DiffMemo`] forgets
/// everything and starts over (some 6 MiB; a 300-round search on
/// 300-entry thread logs holds about a hundredth of it).
const MEMO_CAPACITY: usize = 1 << 20;

/// One failure group's remembered diffs: run-token sequence → unmatched
/// failure-log indices.
type Remembered = WordMap<Box<[u32]>, Box<[usize]>>;

/// What one search remembers of its per-round diffs against one
/// [`InternedLog`]: for each failure group, the unmatched failure entries
/// under every run-token sequence diffed so far — a pure function of the
/// two token sequences — plus the buffers every diff reuses.
///
/// A key is the whole token sequence (the map compares it in full, the
/// hash only finds the bucket); neither time nor log position is part of
/// it, which is what lets successive rounds hit. A memo must only ever
/// see one failure log: the search that owns it has one.
#[derive(Debug, Default)]
pub struct DiffMemo {
    work: Work,
    by_group: Vec<Remembered>,
    /// Key tokens plus answer indices held.
    stored: usize,
    /// The last call's answer, indexed by failure-log position.
    missing: Vec<bool>,
    lookups: u64,
    hits: u64,
}

impl DiffMemo {
    /// Group diffs asked of this memo so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// How many of them it answered without running Myers.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

impl InternedLog {
    /// Interns and groups a parsed failure log.
    pub fn new(failure: &[ParsedEntry]) -> InternedLog {
        let mut table = InternTable::default();
        let mut groups: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, e) in failure.iter().enumerate() {
            groups.entry((e.node(), e.thread())).or_default().push(i);
        }
        let groups = groups
            .into_values()
            .map(|indices| {
                let tokens = indices
                    .iter()
                    .map(|&i| table.intern(failure[i].level, &failure[i].body))
                    .collect();
                let first = &failure[indices[0]];
                ((first.node.clone(), first.thread.clone()), indices, tokens)
            })
            .collect();
        InternedLog {
            table,
            groups,
            len: failure.len(),
        }
    }

    /// The frozen intern table (lookup only).
    pub fn table(&self) -> &InternTable {
        &self.table
    }

    /// The interned `(level, body)` token of every failure-log entry, by
    /// position. Equal tokens mean equal level and body, so whatever is a
    /// function of an entry's body need only be computed once per token
    /// ([`InternTable::len`] of them).
    pub fn position_tokens(&self) -> Vec<u32> {
        let mut tokens = vec![NO_MATCH_TOKEN; self.len];
        for (_, f_indices, f_tokens) in &self.groups {
            for (&i, &t) in f_indices.iter().zip(f_tokens) {
                tokens[i] = t;
            }
        }
        tokens
    }

    /// Marks the groups that hold at least one of the failure-log
    /// `positions` — the `wanted` mask of [`InternedLog::missing_in`] for a
    /// caller that will only ask about those positions.
    pub fn groups_holding(&self, positions: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut asked = vec![false; self.len];
        for p in positions {
            asked[p] = true;
        }
        self.groups
            .iter()
            .map(|(_, f_indices, _)| f_indices.iter().any(|&i| asked[i]))
            .collect()
    }

    /// Files every run entry under its failure group (`routed[g]`, log
    /// order), dropping entries of threads the failure log does not have
    /// and of groups `wanted` excludes.
    ///
    /// The simulator interns node and thread names, so most entries are
    /// recognised by the address and length of their two names — equal
    /// ones denote equal strings while `run` is borrowed — and only the
    /// first entry of a thread pays the binary search over group keys.
    fn route<R: DiffRecord>(
        &self,
        run: &[R],
        wanted: Option<&[bool]>,
        routed: &mut Vec<Vec<usize>>,
    ) {
        routed.iter_mut().for_each(Vec::clear);
        routed.resize_with(self.groups.len(), Vec::new);
        type Names = (*const u8, usize, *const u8, usize);
        let mut cache: [Option<(Names, Option<usize>)>; NAME_SLOTS] = [None; NAME_SLOTS];
        for (i, e) in run.iter().enumerate() {
            let (node, thread) = (e.node(), e.thread());
            let names: Names = (node.as_ptr(), node.len(), thread.as_ptr(), thread.len());
            let slot =
                ((names.0 as usize >> 4) ^ (names.2 as usize >> 4).wrapping_mul(31)) % NAME_SLOTS;
            let group = match cache[slot] {
                Some((cached, group)) if cached == names => group,
                _ => {
                    let group = self
                        .groups
                        .binary_search_by(|((n, t), _, _)| (&**n, &**t).cmp(&(node, thread)))
                        .ok();
                    cache[slot] = Some((names, group));
                    group
                }
            };
            if let Some(g) = group {
                if wanted.is_none_or(|w| w[g]) {
                    routed[g].push(i);
                }
            }
        }
    }

    /// Compares a run log — parsed or structured — against the interned
    /// failure log. Same output as [`compare`](crate::compare::compare) on
    /// the equivalent parsed records.
    pub fn compare<R: DiffRecord>(&self, run: &[R]) -> DiffResult {
        let mut work = Work::default();
        self.route(run, None, &mut work.routed);
        let mut result = DiffResult::default();
        for (g, (_, f_indices, f_tokens)) in self.groups.iter().enumerate() {
            work.tokenize(&self.table, run, g);
            work.diff(f_tokens);
            result.missing.extend(work.unmatched(f_indices));
            let r_indices = &work.routed[g];
            result.matches.extend(
                work.matches
                    .iter()
                    .map(|&(ri, fj)| (r_indices[ri], f_indices[fj])),
            );
        }
        result.missing.sort_unstable();
        result.matches.sort_unstable();
        result
    }

    /// The presence half of [`InternedLog::compare`]: which failure
    /// entries of the `wanted` groups (see
    /// [`InternedLog::groups_holding`]) the run leaves unmatched, as a
    /// bitmap over failure-log positions. A position in a group `wanted`
    /// excludes reads `false` — nobody asked.
    ///
    /// For every position of a wanted group the answer equals membership
    /// in `compare(run).missing`: it is the same per-group diff, skipped
    /// when `memo` has seen the group's run-token sequence before.
    pub fn missing_in<'m, R: DiffRecord>(
        &self,
        run: &[R],
        wanted: &[bool],
        memo: &'m mut DiffMemo,
    ) -> &'m [bool] {
        let DiffMemo {
            work,
            by_group,
            stored,
            missing,
            lookups,
            hits,
        } = memo;
        missing.clear();
        missing.resize(self.len, false);
        by_group.resize_with(self.groups.len(), WordMap::default);
        self.route(run, Some(wanted), &mut work.routed);
        for (g, (_, f_indices, f_tokens)) in self.groups.iter().enumerate() {
            if !wanted[g] {
                continue;
            }
            work.tokenize(&self.table, run, g);
            *lookups += 1;
            if let Some(unmatched) = by_group[g].get(work.r_tokens.as_slice()) {
                *hits += 1;
                unmatched.iter().for_each(|&fi| missing[fi] = true);
                continue;
            }
            work.diff(f_tokens);
            let unmatched: Box<[usize]> = work.unmatched(f_indices).collect();
            unmatched.iter().for_each(|&fi| missing[fi] = true);
            let size = work.r_tokens.len() + unmatched.len();
            if *stored + size > MEMO_CAPACITY {
                by_group.iter_mut().for_each(WordMap::clear);
                *stored = 0;
            }
            *stored += size;
            by_group[g].insert(work.r_tokens.as_slice().into(), unmatched);
        }
        missing
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
            node: node.into(),
            thread: thread.into(),
            level,
            body: body.into(),
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

    /// The hasher tells apart what the maps must: keys that differ in
    /// length only, in trailing zero bytes, or in which word a token is in.
    /// (Were it to collide, lookups would still be right — keys are compared
    /// in full — but every probe would walk.)
    #[test]
    fn word_hasher_separates_near_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<WordHasher>::default();
        let bodies = [
            "",
            "a",
            "a\0",
            "a\0\0",
            "aaaaaaaa",
            "aaaaaaaa\0",
            "aaaaaaaaa",
            "b",
        ];
        let mut hashes: Vec<u64> = bodies.iter().map(|b| build.hash_one(*b)).collect();
        let tokens: [&[u32]; 6] = [&[], &[0], &[0, 0], &[1, 0], &[0, 1], &[0, 0, 0]];
        hashes.extend(tokens.iter().map(|t| build.hash_one(*t)));
        let distinct: std::collections::BTreeSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
        // What the table indexes with — the low bits — spreads too.
        let low: std::collections::BTreeSet<u64> = (0..64u32)
            .map(|i| build.hash_one(format!("message {i}").as_str()) & 63)
            .collect();
        assert!(low.len() > 32, "{} of 64 buckets", low.len());
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
        // By position, whatever group an entry was filed under: equal
        // tokens exactly where level and body are equal.
        let tokens = interned.position_tokens();
        for (e, &t) in failure.iter().zip(&tokens) {
            assert_eq!(t, interned.table().lookup(e.level(), e.body()));
        }
        assert_eq!(tokens[0], tokens[1]);
        assert!(tokens[0] != tokens[2] && tokens[0] != tokens[3] && tokens[2] != tokens[3]);
    }

    // ---- Differential presence tests -----------------------------------
    //
    // `missing_in` (mask + memo) against `compare(run).missing`: for every
    // position of a wanted group the two agree, positions of other groups
    // read `false`, and what a memo has seen before changes nothing. CI
    // greps for the `differential_` prefix to prove these ran.

    use crate::test_rng::Rng;
    use std::sync::Arc;

    const LEVELS: [Level; 4] = [Level::Debug, Level::Info, Level::Warn, Level::Error];

    /// A structured run entry whose names may share an allocation with
    /// other entries, as the simulator's do.
    fn structured(node: &Arc<str>, thread: &Arc<str>, level: Level, body: &str) -> LogEntry {
        LogEntry {
            time: 0,
            node: Arc::clone(node),
            thread: Arc::clone(thread),
            level,
            template: TemplateId(0),
            stmt: StmtRef::new(BlockId(0), 0),
            body: body.into(),
            exc: None,
            stack: Vec::new(),
        }
    }

    /// Asserts the presence property of one call and returns the answer.
    fn assert_presence<R: DiffRecord>(
        interned: &InternedLog,
        run: &[R],
        wanted: &[bool],
        memo: &mut DiffMemo,
        tag: &str,
    ) -> Vec<bool> {
        let full = interned.compare(run).missing;
        let got = interned.missing_in(run, wanted, memo).to_vec();
        assert_eq!(got.len(), interned.len, "{tag}");
        for (g, (_, f_indices, _)) in interned.groups.iter().enumerate() {
            for &fi in f_indices {
                let expect = wanted[g] && full.binary_search(&fi).is_ok();
                assert_eq!(got[fi], expect, "{tag}: group {g} position {fi}");
            }
        }
        got
    }

    #[test]
    fn differential_presence_random_runs_share_one_memo() {
        let mut rng = Rng(0xD1FF);
        // Two allocations of every name: the route cache must treat them
        // as the one name they spell.
        let names: Vec<[Arc<str>; 2]> = (0..4)
            .map(|i| [format!("x{i}").into(), format!("x{i}").into()])
            .collect();
        let (mut lookups, mut hits) = (0, 0);
        for case in 0..60 {
            let failure: Vec<ParsedEntry> = (0..rng.below(70))
                .map(|i| {
                    let (node, thread) = (rng.below(3), rng.below(3));
                    let level = LEVELS[rng.below(4)];
                    let body = format!("msg {}", rng.below(10));
                    entry(&names[node][0], &names[thread][0], i as u64, level, &body)
                })
                .collect();
            let interned = InternedLog::new(&failure);
            let asked: Vec<usize> = (0..failure.len()).filter(|_| rng.below(4) == 0).collect();
            let wanted = interned.groups_holding(asked.iter().copied());
            for &p in &asked {
                let g = interned.groups.iter().position(|(_, f, _)| f.contains(&p));
                assert!(
                    wanted[g.expect("every position has a group")],
                    "case {case}"
                );
            }

            let mut memo = DiffMemo::default();
            let mut runs: Vec<Vec<LogEntry>> = Vec::new();
            for round in 0..12 {
                // A third of the rounds replay an earlier run with one
                // thread's entries dropped: most thread logs repeat.
                let run = if !runs.is_empty() && rng.below(3) == 0 {
                    let (node, thread) = (rng.below(4), rng.below(4));
                    let mut run = runs[rng.below(runs.len())].clone();
                    run.retain(|e| {
                        (&*e.node, &*e.thread) != (&*names[node][0], &*names[thread][0])
                    });
                    run
                } else {
                    // Node/thread 3 and bodies 10.. are not in the failure
                    // log: run-only threads and `NO_MATCH_TOKEN` entries.
                    (0..rng.below(70))
                        .map(|_| {
                            let node = &names[rng.below(4)][rng.below(2)];
                            let thread = &names[rng.below(4)][rng.below(2)];
                            let body = format!("msg {}", rng.below(14));
                            structured(node, thread, LEVELS[rng.below(4)], &body)
                        })
                        .collect()
                };
                let tag = format!("case {case} round {round}");
                let shared = assert_presence(&interned, &run, &wanted, &mut memo, &tag);
                let cold =
                    assert_presence(&interned, &run, &wanted, &mut DiffMemo::default(), &tag);
                assert_eq!(shared, cold, "{tag}: a warm memo changes nothing");
                // The route cache keys on name addresses: the structured
                // run must still diff like its text rendering.
                let parsed: Vec<ParsedEntry> = run
                    .iter()
                    .map(|e| entry(&e.node, &e.thread, 0, e.level, &e.body))
                    .collect();
                let reference = compare(&parsed, &failure);
                let fast = interned.compare(&run);
                assert_eq!(fast.missing, reference.missing, "{tag}");
                assert_eq!(fast.matches, reference.matches, "{tag}");
                runs.push(run);
            }
            lookups += memo.lookups();
            hits += memo.hits();
        }
        // The replayed rounds (and the threads a random run leaves out)
        // repeat; the fresh ones do not.
        assert!(hits * 5 > lookups && hits < lookups, "{hits} of {lookups}");
    }

    #[test]
    fn differential_presence_failure_only_thread_and_empty_group() {
        let failure = vec![
            entry("n", "main", 1, Level::Info, "started"),
            entry("n", "main", 2, Level::Error, "sync failed"),
            entry("n", "Abort", 3, Level::Error, "aborting"),
            entry("n", "Abort", 4, Level::Info, "cleanup"),
            entry("n", "idle", 5, Level::Info, "tick"),
        ];
        let interned = InternedLog::new(&failure);
        let all = interned.groups_holding(0..failure.len());
        assert_eq!(all, vec![true; 3]);
        let mut memo = DiffMemo::default();

        // `Abort` and `idle` exist only in the failure log; `extra` only
        // in the run; one entry of `main` is unknown to the table.
        let run = vec![
            entry("n", "main", 1, Level::Info, "started"),
            entry("n", "main", 2, Level::Info, "never seen"),
            entry("n", "extra", 3, Level::Info, "tick"),
        ];
        let missing = assert_presence(&interned, &run, &all, &mut memo, "all groups");
        assert_eq!(missing, vec![false, true, true, true, true]);

        // An empty run: every wanted group is an empty run group.
        let none: Vec<ParsedEntry> = Vec::new();
        let missing = assert_presence(&interned, &none, &all, &mut memo, "empty run");
        assert_eq!(missing, vec![true; 5]);

        // Only `Abort` asked for: the others read `false` whatever the run.
        let abort_only = interned.groups_holding([3]);
        assert_eq!(abort_only.iter().filter(|&&w| w).count(), 1);
        let missing = assert_presence(&interned, &run, &abort_only, &mut memo, "Abort only");
        assert_eq!(missing, vec![false, false, true, true, false]);
    }

    #[test]
    fn differential_presence_repeated_sequence_is_answered_from_the_memo() {
        let failure = vec![
            entry("n", "a", 1, Level::Info, "a1"),
            entry("n", "a", 2, Level::Error, "a failed"),
            entry("n", "b", 3, Level::Info, "b1"),
            entry("n", "b", 4, Level::Info, "b2"),
        ];
        let interned = InternedLog::new(&failure);
        let all = interned.groups_holding(0..failure.len());
        let mut memo = DiffMemo::default();

        let first = vec![
            entry("n", "a", 10, Level::Info, "a1"),
            entry("n", "b", 11, Level::Info, "b2"),
            entry("n", "b", 12, Level::Info, "unknown"),
        ];
        let answer = assert_presence(&interned, &first, &all, &mut memo, "first");
        assert_eq!((memo.lookups(), memo.hits()), (2, 0));

        // Other timestamps, another interleaving, another unknown body
        // (the sentinel again): per thread the token sequences are the
        // same, so nothing is diffed.
        let again = vec![
            entry("n", "b", 900, Level::Info, "b2"),
            entry("n", "a", 901, Level::Info, "a1"),
            entry("n", "b", 902, Level::Info, "also unknown"),
        ];
        assert_eq!(
            assert_presence(&interned, &again, &all, &mut memo, "again"),
            answer
        );
        assert_eq!((memo.lookups(), memo.hits()), (4, 2));

        // One thread changes: one miss, one hit.
        let perturbed = vec![
            entry("n", "a", 1, Level::Error, "a failed"),
            entry("n", "b", 2, Level::Info, "b2"),
            entry("n", "b", 3, Level::Info, "unknown"),
        ];
        let missing = assert_presence(&interned, &perturbed, &all, &mut memo, "perturbed");
        assert_eq!(missing, vec![true, false, true, false]);
        assert_eq!((memo.lookups(), memo.hits()), (6, 3));
    }

    #[test]
    fn differential_presence_memo_starts_over_when_full() {
        // One 2048-entry thread; run `i` lacks entry `i`, so every run is
        // a new key one cheap diff away from the failure log.
        let len = 2048;
        let failure: Vec<ParsedEntry> = (0..len)
            .map(|i| entry("n", "t", i as u64, Level::Info, &format!("m{i}")))
            .collect();
        let interned = InternedLog::new(&failure);
        let all = interned.groups_holding(0..len);
        let mut memo = DiffMemo::default();
        let without = |i: usize| -> Vec<ParsedEntry> {
            let mut run = failure.clone();
            run.remove(i);
            run
        };
        // A 2047-token key and a one-index answer each.
        let fits = MEMO_CAPACITY / len;
        for i in 0..fits {
            let missing = interned.missing_in(&without(i), &all, &mut memo);
            assert_eq!(missing.iter().position(|&m| m), Some(i));
        }
        // Still everything remembered: run 0 is a hit.
        assert_presence(&interned, &without(0), &all, &mut memo, "before");
        assert_eq!(memo.hits(), 1);
        // One key more than fits: the memo forgets, run 0 is diffed anew
        // and answered the same.
        assert_presence(&interned, &without(fits), &all, &mut memo, "overflow");
        assert_eq!(memo.stored, len);
        assert_presence(&interned, &without(0), &all, &mut memo, "after");
        assert_eq!(memo.hits(), 1);
    }
}
