//! Property-style tests for the diff and alignment primitives.
//!
//! Hand-rolled deterministic case generation (seeded SplitMix64) stands in
//! for `proptest`: the build environment is offline, so the suite carries
//! its own tiny generator instead of an external dependency.

use anduril_ir::Level;
use anduril_logdiff::{compare, myers_matches, Alignment, InternedLog, ParsedEntry};

/// Deterministic generator for randomized cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn vec_u8(&mut self, alphabet: u8, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len)
            .map(|_| (self.next() % alphabet as u64) as u8)
            .collect()
    }

    fn string(&mut self, charset: &[u8], min_len: usize, max_len: usize) -> String {
        let len = min_len + self.below(max_len - min_len + 1);
        (0..len)
            .map(|_| charset[self.below(charset.len())] as char)
            .collect()
    }
}

/// Reference LCS length via classic dynamic programming.
fn lcs_len_dp<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in 0..a.len() {
        for j in 0..b.len() {
            dp[i + 1][j + 1] = if a[i] == b[j] {
                dp[i][j] + 1
            } else {
                dp[i][j + 1].max(dp[i + 1][j])
            };
        }
    }
    dp[a.len()][b.len()]
}

/// Myers finds a *longest* common subsequence: same length as the DP
/// reference.
#[test]
fn myers_matches_lcs_length() {
    let mut rng = Rng(11);
    for _ in 0..200 {
        let a = rng.vec_u8(6, 40);
        let b = rng.vec_u8(6, 40);
        let m = myers_matches(&a, &b);
        assert_eq!(m.len(), lcs_len_dp(&a, &b));
    }
}

/// Matched pairs form a strictly increasing common subsequence.
#[test]
fn myers_matches_are_valid() {
    let mut rng = Rng(12);
    for _ in 0..200 {
        let a = rng.vec_u8(4, 50);
        let b = rng.vec_u8(4, 50);
        let m = myers_matches(&a, &b);
        for w in m.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        for &(i, j) in &m {
            assert_eq!(a[i], b[j]);
        }
    }
}

/// Diffing a sequence against itself leaves no entry unmatched.
#[test]
fn self_diff_is_empty() {
    let mut rng = Rng(14);
    for _ in 0..100 {
        let a: Vec<u16> = (0..rng.below(61))
            .map(|_| (rng.next() % 100) as u16)
            .collect();
        assert_eq!(myers_matches(&a, &a).len(), a.len());
    }
}

/// Alignment is monotone non-decreasing regardless of anchor noise.
#[test]
fn alignment_is_monotone() {
    let mut rng = Rng(15);
    for _ in 0..200 {
        let pairs: Vec<(usize, usize)> = (0..rng.below(20))
            .map(|_| (rng.below(100), rng.below(100)))
            .collect();
        let len_a = 1 + rng.below(119);
        let len_b = 1 + rng.below(119);
        let a = Alignment::build(&pairs, len_a, len_b);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=len_a {
            let m = a.map(i as f64);
            assert!(m >= prev - 1e-9, "not monotone at {i}: {m} < {prev}");
            assert!(m.is_finite());
            prev = m;
        }
    }
}

/// Anchors map onto themselves (up to the monotone filtering).
#[test]
fn alignment_identity_for_monotone_anchors() {
    for n in 1usize..30 {
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i * 2, i * 3)).collect();
        let a = Alignment::build(&pairs, n * 2, n * 3);
        for &(x, y) in &pairs {
            assert!((a.map(x as f64) - y as f64).abs() < 1e-9);
        }
    }
}

/// The interned fast path is a drop-in for the string-keyed comparison:
/// identical `missing` and `matches` on randomized multi-node, multi-thread
/// logs with level collisions and run-only keys.
#[test]
fn interned_compare_equals_string_compare() {
    let mut rng = Rng(18);
    let levels = [Level::Debug, Level::Info, Level::Warn, Level::Error];
    let random_log = |rng: &mut Rng, max_len: usize, body_pool: usize| -> Vec<ParsedEntry> {
        let len = rng.below(max_len + 1);
        (0..len)
            .map(|i| ParsedEntry {
                time: Some(i as u64),
                node: format!("n{}", rng.below(3)).into(),
                thread: format!("t{}", rng.below(3)).into(),
                level: levels[rng.below(4)],
                body: format!("msg {}", rng.below(body_pool)).into(),
                exc: None,
                stack: Vec::new(),
            })
            .collect()
    };
    for _ in 0..150 {
        let failure = random_log(&mut rng, 60, 12);
        // A wider run-side body pool guarantees keys unseen by the intern
        // table (exercising the sentinel path).
        let run = random_log(&mut rng, 60, 18);
        let interned = InternedLog::new(&failure);
        let fast = interned.compare(&run);
        let slow = compare(&run, &failure);
        assert_eq!(fast.missing, slow.missing);
        assert_eq!(fast.matches, slow.matches);
    }
}

/// The parser is total: arbitrary text never panics.
#[test]
fn parser_never_panics() {
    let mut rng = Rng(16);
    let charset: Vec<u8> = (0x09..0x7f).collect();
    for _ in 0..200 {
        let text = rng.string(&charset, 0, 400);
        let _ = anduril_logdiff::parse_log(&text);
    }
}

/// Round trip: a well-formed header line always parses into one record
/// with its fields intact.
#[test]
fn header_round_trip() {
    let mut rng = Rng(17);
    for _ in 0..300 {
        let time = rng.next() % 99_999_999;
        let node = {
            let head = rng.string(b"abcdefghijklmnopqrstuvwxyz", 1, 1);
            let tail = rng.string(b"abcdefghijklmnopqrstuvwxyz0123456789", 0, 6);
            format!("{head}{tail}")
        };
        let thread = {
            let head = rng.string(
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
                1,
                1,
            );
            let tail = rng.string(
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-",
                0,
                10,
            );
            format!("{head}{tail}")
        };
        // Printable ASCII without newline; bodies may contain separators.
        let charset: Vec<u8> = (0x20..0x7f).collect();
        let body = rng.string(&charset, 0, 40);
        let line = format!("{time:08} [{node}:{thread}] WARN - {body}\n");
        let parsed = anduril_logdiff::parse_log(&line);
        assert_eq!(parsed.len(), 1, "line {line:?}");
        assert_eq!(parsed[0].time, Some(time));
        assert_eq!(*parsed[0].node, *node);
        assert_eq!(*parsed[0].thread, *thread);
        assert_eq!(*parsed[0].body, *body);
    }
}
