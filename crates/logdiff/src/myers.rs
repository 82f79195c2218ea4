//! Myers O(ND) difference algorithm, linear-space variant, with match
//! recovery.
//!
//! The paper applies "the Myers difference algorithm \[42\] between the
//! sanitized logs with the same thread name" (§5.1.1). We need the *matched
//! pairs* (a longest common subsequence), both to find failure-only
//! messages (relevant observables) and to anchor the timeline alignment of
//! §5.2.3.
//!
//! The Explorer re-diffs the failure log every round, and the rounds that
//! matter most — the ones where the injected fault actually perturbed the
//! run — are exactly the ones with the largest edit distance `D`. The
//! original trace-saving formulation kept `D` clones of the full `V` array,
//! `O((N+M)·D)` space, which degrades quadratically on divergent inputs.
//! This module instead runs the divide-and-conquer *middle snake* variant
//! from §4b of Myers' paper (the Hirschberg refinement): find a snake on an
//! optimal path with two half-depth greedy searches meeting in the middle,
//! then recurse on the two corners. Time stays `O((N+M)·D)`; space drops to
//! `O(N+M)` — two furthest-reaching arrays reused across the recursion.
//!
//! The superseded trace-saving implementation is retained as
//! `myers_matches_quadratic`, compiled for this crate's tests only, where
//! the `differential_` tests pit the two against each other.

/// Reusable furthest-reaching arrays for the middle-snake search.
///
/// One allocation serves the whole recursion, and every later diff run
/// over the same scratch: every subproblem is no wider than the root
/// problem, and a `middle_snake` call writes each slot it reads before
/// reading it, so stale values from sibling calls and earlier diffs are
/// inert.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `vf[k + offset]` = furthest forward `x` on diagonal `k`.
    vf: Vec<isize>,
    /// `vb[k + offset]` = smallest backward `x` on diagonal `k`.
    vb: Vec<isize>,
    offset: isize,
}

impl Scratch {
    /// Makes room for a root problem with `max = n + m`. Diagonals of a
    /// subproblem live in `[-(n+m), n+m]` shifted by the subproblem's
    /// delta, which is itself bounded by `n+m`: double width covers every
    /// index the backward search can touch.
    fn fit(&mut self, max: usize) {
        if self.vf.len() < 4 * max + 5 {
            self.vf.resize(4 * max + 5, 0);
            self.vb.resize(4 * max + 5, 0);
        }
        self.offset = 2 * max as isize + 2;
    }
}

/// Computes the matched index pairs `(i, j)` of a longest common
/// subsequence of `a` and `b`, in increasing order of both components.
///
/// Runs the linear-space divide-and-conquer form of the greedy algorithm:
/// each level finds the *middle snake* of an optimal edit path with a
/// forward and a backward furthest-reaching search (`O(D/2)` steps each),
/// emits its diagonal run, and recurses on the regions before and after
/// it. Time `O((N+M)·D)`, space `O(N+M)` — the two `V` arrays are
/// allocated once and shared down the recursion, so memory stays flat even
/// for fully disjoint inputs where `D = N+M`.
pub fn myers_matches<T: PartialEq>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    myers_matches_into(a, b, &mut Scratch::default(), &mut out);
    out
}

/// [`myers_matches`] over caller-owned buffers: `out` is cleared and
/// filled, `scratch` grows to the widest problem it has seen. The
/// per-round diff runs every group of every round through one pair.
pub(crate) fn myers_matches_into<T: PartialEq>(
    a: &[T],
    b: &[T],
    scratch: &mut Scratch,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    scratch.fit(a.len() + b.len());
    lcs_rec(a, 0, b, 0, scratch, out);
}

/// Recursive layer: strip common prefix/suffix, split on the middle snake.
///
/// `a0`/`b0` are the global offsets of the subslices, so matches are pushed
/// already in global coordinates and in increasing order (prefix, left
/// recursion, middle snake, right recursion, suffix).
fn lcs_rec<T: PartialEq>(
    a: &[T],
    a0: usize,
    b: &[T],
    b0: usize,
    scratch: &mut Scratch,
    out: &mut Vec<(usize, usize)>,
) {
    // Common prefix: emit immediately (keeps subproblems small and the
    // output ordered).
    let mut p = 0;
    while p < a.len() && p < b.len() && a[p] == b[p] {
        out.push((a0 + p, b0 + p));
        p += 1;
    }
    let (a, b, a0, b0) = (&a[p..], &b[p..], a0 + p, b0 + p);
    // Common suffix: emitted after the core is solved.
    let mut sfx = 0;
    while sfx < a.len() && sfx < b.len() && a[a.len() - 1 - sfx] == b[b.len() - 1 - sfx] {
        sfx += 1;
    }
    let core_a = &a[..a.len() - sfx];
    let core_b = &b[..b.len() - sfx];

    if !core_a.is_empty() && !core_b.is_empty() {
        // After stripping, the first and last elements differ, so the core's
        // edit distance is >= 1 (a d = 0 core would have been consumed).
        let (d, x, y, u, v) = middle_snake(core_a, core_b, scratch);
        if d > 1 {
            lcs_rec(&core_a[..x], a0, &core_b[..y], b0, scratch, out);
            for i in 0..(u - x) {
                out.push((a0 + x + i, b0 + y + i));
            }
            lcs_rec(&core_a[u..], a0 + u, &core_b[v..], b0 + v, scratch, out);
        } else {
            // d == 1: one insertion or deletion. The stripped prefix means
            // the edited element is the *first* element of the longer side;
            // everything after it matches pairwise.
            let (n, m) = (core_a.len(), core_b.len());
            if n > m {
                for j in 0..m {
                    out.push((a0 + 1 + j, b0 + j));
                }
            } else {
                for i in 0..n {
                    out.push((a0 + i, b0 + 1 + i));
                }
            }
        }
    }

    for i in 0..sfx {
        out.push((a0 + a.len() - sfx + i, b0 + b.len() - sfx + i));
    }
}

/// Finds the middle snake of an optimal edit path between `a` and `b`
/// (both non-empty): returns `(D, x, y, u, v)` where `D` is the edit
/// distance and the snake runs from `(x, y)` to `(u, v)` along a diagonal.
///
/// Forward and backward furthest-reaching searches advance in lockstep;
/// with `delta = n - m` odd the overlap is detected on a forward step
/// (`D = 2d - 1`), with `delta` even on a backward step (`D = 2d`), per
/// §4b of Myers' paper.
fn middle_snake<T: PartialEq>(
    a: &[T],
    b: &[T],
    scratch: &mut Scratch,
) -> (usize, usize, usize, usize, usize) {
    let n = a.len() as isize;
    let m = b.len() as isize;
    let delta = n - m;
    let odd = delta % 2 != 0;
    let off = scratch.offset;
    // Sentinels that make the d = 0 boundary moves fall out of the general
    // formulas: the forward path starts from x = 0, the backward from x = n.
    scratch.vf[(1 + off) as usize] = 0;
    scratch.vb[(delta + 1 + off) as usize] = n + 1;
    let dmax = (n + m + 1) / 2;
    for d in 0..=dmax {
        // Forward furthest-reaching d-paths.
        let mut k = -d;
        while k <= d {
            let mut x = if k == -d
                || (k != d
                    && scratch.vf[(k - 1 + off) as usize] < scratch.vf[(k + 1 + off) as usize])
            {
                scratch.vf[(k + 1 + off) as usize]
            } else {
                scratch.vf[(k - 1 + off) as usize] + 1
            };
            let mut y = x - k;
            let (x0, y0) = (x, y);
            while x < n && y < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            scratch.vf[(k + off) as usize] = x;
            if odd
                && k >= delta - (d - 1)
                && k <= delta + (d - 1)
                && x >= scratch.vb[(k + off) as usize]
            {
                return (
                    (2 * d - 1) as usize,
                    x0 as usize,
                    y0 as usize,
                    x as usize,
                    y as usize,
                );
            }
            k += 2;
        }
        // Backward furthest-reaching d-paths (minimal x), on diagonals
        // centred at `delta`.
        let mut k = -d;
        while k <= d {
            let kk = k + delta;
            let mut x = if k == -d
                || (k != d
                    && scratch.vb[(kk + 1 + off) as usize] - 1
                        < scratch.vb[(kk - 1 + off) as usize])
            {
                scratch.vb[(kk + 1 + off) as usize] - 1
            } else {
                scratch.vb[(kk - 1 + off) as usize]
            };
            let mut y = x - kk;
            let (u, v) = (x, y);
            while x > 0 && y > 0 && a[(x - 1) as usize] == b[(y - 1) as usize] {
                x -= 1;
                y -= 1;
            }
            scratch.vb[(kk + off) as usize] = x;
            if !odd && kk >= -d && kk <= d && x <= scratch.vf[(kk + off) as usize] {
                return (
                    (2 * d) as usize,
                    x as usize,
                    y as usize,
                    u as usize,
                    v as usize,
                );
            }
            k += 2;
        }
    }
    unreachable!("an edit path always exists within (n+m)/2 half-steps")
}

/// The superseded trace-saving formulation, kept as the differential-test
/// oracle.
///
/// Runs the classic greedy forward algorithm, cloning the full `V` array at
/// every edit step, then backtracks through the saved trace. The trace is
/// `D` clones of a `2(N+M)+1` vector — time *and* space `O((N+M)·D)`,
/// quadratic for divergent inputs (its doc comment once claimed `O(D²)`
/// space, which undercounted the `2(N+M)+1` factor per clone). Do not use
/// it on large disjoint inputs; that blow-up is why [`myers_matches`]
/// replaced it.
#[cfg(test)]
fn myers_matches_quadratic<T: PartialEq>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
    let n = a.len() as isize;
    let m = b.len() as isize;
    if n == 0 || m == 0 {
        return Vec::new();
    }
    let max = (n + m) as usize;
    let offset = max as isize;
    // V[k + offset] = furthest x on diagonal k.
    let mut v = vec![0isize; 2 * max + 1];
    let mut trace: Vec<Vec<isize>> = Vec::new();
    let mut found_d = None;
    'outer: for d in 0..=(max as isize) {
        trace.push(v.clone());
        let mut k = -d;
        while k <= d {
            let mut x = if k == -d
                || (k != d && v[(k - 1 + offset) as usize] < v[(k + 1 + offset) as usize])
            {
                v[(k + 1 + offset) as usize]
            } else {
                v[(k - 1 + offset) as usize] + 1
            };
            let mut y = x - k;
            while x < n && y < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            v[(k + offset) as usize] = x;
            if x >= n && y >= m {
                found_d = Some(d);
                break 'outer;
            }
            k += 2;
        }
    }
    let d_final = found_d.expect("myers always terminates within n+m edits");

    // Backtrack from (n, m) through the saved traces, collecting matches
    // along diagonal runs.
    let mut matches = Vec::new();
    let mut x = n;
    let mut y = m;
    let mut d = d_final;
    while d > 0 {
        let vd = &trace[d as usize];
        let k = x - y;
        let prev_k = if k == -d
            || (k != d && vd[(k - 1 + offset) as usize] < vd[(k + 1 + offset) as usize])
        {
            k + 1
        } else {
            k - 1
        };
        let prev_x = vd[(prev_k + offset) as usize];
        let prev_y = prev_x - prev_k;
        // Diagonal (snake) portion after the edit.
        let snake_start_x = if prev_k == k + 1 { prev_x } else { prev_x + 1 };
        let snake_start_y = snake_start_x - k;
        let mut sx = x;
        let mut sy = y;
        while sx > snake_start_x && sy > snake_start_y {
            sx -= 1;
            sy -= 1;
            matches.push((sx as usize, sy as usize));
        }
        x = prev_x;
        y = prev_y;
        d -= 1;
    }
    // The d = 0 prefix snake.
    let mut sx = x;
    let mut sy = y;
    while sx > 0 && sy > 0 {
        sx -= 1;
        sy -= 1;
        matches.push((sx as usize, sy as usize));
    }
    matches.reverse();
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;

    fn check_common_subsequence<T: PartialEq + std::fmt::Debug>(
        a: &[T],
        b: &[T],
        matches: &[(usize, usize)],
    ) {
        for w in matches.windows(2) {
            assert!(w[0].0 < w[1].0, "i strictly increasing: {matches:?}");
            assert!(w[0].1 < w[1].1, "j strictly increasing: {matches:?}");
        }
        for &(i, j) in matches {
            assert_eq!(a[i], b[j], "matched elements equal");
        }
    }

    /// Indices of `b` no LCS pair matches (for us: messages only in the
    /// failure log).
    fn unmatched_b<T: PartialEq>(a: &[T], b: &[T]) -> Vec<usize> {
        let matches = myers_matches(a, b);
        (0..b.len())
            .filter(|j| matches.iter().all(|&(_, mj)| mj != *j))
            .collect()
    }

    #[test]
    fn identical_sequences_fully_match() {
        let a = vec![1, 2, 3, 4];
        let m = myers_matches(&a, &a);
        assert_eq!(m, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn disjoint_sequences_share_nothing() {
        let a = vec![1, 2, 3];
        let b = vec![4, 5, 6];
        assert!(myers_matches(&a, &b).is_empty());
        assert_eq!(unmatched_b(&a, &b), vec![0, 1, 2]);
    }

    #[test]
    fn classic_example() {
        // ABCABBA vs CBABAC: LCS length 4.
        let a: Vec<char> = "ABCABBA".chars().collect();
        let b: Vec<char> = "CBABAC".chars().collect();
        let m = myers_matches(&a, &b);
        check_common_subsequence(&a, &b, &m);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn insertion_in_middle_detected() {
        let a = vec!["x", "y", "z"];
        let b = vec!["x", "NEW", "y", "z"];
        let m = myers_matches(&a, &b);
        check_common_subsequence(&a, &b, &m);
        assert_eq!(m.len(), 3);
        assert_eq!(unmatched_b(&a, &b), vec![1]);
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<i32> = vec![];
        assert!(myers_matches(&empty, &[1, 2]).is_empty());
        assert!(myers_matches(&[1, 2], &empty).is_empty());
        assert_eq!(unmatched_b(&empty, &[1, 2]), vec![0, 1]);
    }

    #[test]
    fn prefix_suffix_snakes() {
        let a = vec![1, 2, 9, 9, 5, 6];
        let b = vec![1, 2, 3, 4, 5, 6];
        let m = myers_matches(&a, &b);
        check_common_subsequence(&a, &b, &m);
        assert_eq!(m.len(), 4);
        assert_eq!(unmatched_b(&a, &b), vec![2, 3]);
    }

    /// Large fully-disjoint inputs: the quadratic oracle would need
    /// `D = N+M` clones of a `2(N+M)+1` vector (gigabytes at this size);
    /// the linear-space search keeps two flat arrays and finishes fast.
    #[test]
    fn large_disjoint_inputs_complete_in_linear_space() {
        let n = 10_000usize;
        let a: Vec<u32> = (0..n as u32).collect();
        let b: Vec<u32> = (n as u32..2 * n as u32).collect();
        let m = myers_matches(&a, &b);
        assert!(m.is_empty());
        assert_eq!(unmatched_b(&a, &b).len(), n);
    }

    /// Large mostly-similar inputs (the common case for log diffs) stay
    /// exact: a known sprinkling of edits over a long shared backbone.
    #[test]
    fn large_similar_inputs_match_backbone() {
        let n = 20_000usize;
        let a: Vec<u32> = (0..n as u32).collect();
        // Insert a foreign element every 1000 and drop every 1500th.
        let mut b = Vec::with_capacity(n + n / 1000);
        for (i, &v) in a.iter().enumerate() {
            if i % 1000 == 0 {
                b.push(1_000_000 + i as u32);
            }
            if i % 1500 == 0 {
                continue;
            }
            b.push(v);
        }
        let m = myers_matches(&a, &b);
        check_common_subsequence(&a, &b, &m);
        assert_eq!(m.len(), a.len() - a.len().div_ceil(1500));
    }

    // ---- Differential oracle tests -------------------------------------
    //
    // The superseded trace-saving implementation is the oracle. An LCS is
    // not unique, and the two algorithms break ties between equal-length
    // LCSs differently (the old backtrack's choices are an artifact of its
    // saved forward `V` arrays — global state a bidirectional search never
    // has — not a contract), so the differential assertion is the semantic
    // payload, not the byte layout of the pairs: both must find a common
    // subsequence of *identical length* (which pins the per-group
    // missing-entry count the Explorer's feedback consumes), both must be
    // valid, and the shared length must equal the DP reference optimum.
    // Each implementation individually stays deterministic, so within one
    // build every diff of the same inputs agrees exactly. CI greps for the
    // `differential_` prefix to prove these ran.

    fn random_tokens(rng: &mut Rng, alphabet: u32, max_len: usize) -> Vec<u32> {
        let len = rng.below(max_len + 1);
        (0..len).map(|_| rng.next() as u32 % alphabet).collect()
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

    fn assert_differential(a: &[u32], b: &[u32], tag: &str) {
        let new = myers_matches(a, b);
        let old = myers_matches_quadratic(a, b);
        check_common_subsequence(a, b, &new);
        check_common_subsequence(a, b, &old);
        assert_eq!(new.len(), old.len(), "{tag}: a={a:?} b={b:?}");
        assert_eq!(new.len(), lcs_len_dp(a, b), "{tag}: not optimal");
        // Determinism of the new implementation itself: byte-identical on
        // a re-run (the property the threaded explorer relies on).
        assert_eq!(new, myers_matches(a, b), "{tag}: nondeterministic");
    }

    #[test]
    fn differential_random_token_sequences() {
        let mut rng = Rng(42);
        for case in 0..500 {
            let a = random_tokens(&mut rng, 8, 60);
            let b = random_tokens(&mut rng, 8, 60);
            assert_differential(&a, &b, &format!("case {case}"));
        }
    }

    #[test]
    fn differential_log_shaped_sequences() {
        // Log-diff shape: long mostly-shared runs with localized edits.
        let mut rng = Rng(7);
        for case in 0..100 {
            let base = random_tokens(&mut rng, 50, 200);
            let mut a = base.clone();
            let mut b = base;
            for _ in 0..rng.below(8) {
                if !b.is_empty() {
                    let at = rng.below(b.len());
                    b.insert(at, 1_000 + rng.next() as u32 % 100);
                }
            }
            for _ in 0..rng.below(5) {
                if !a.is_empty() {
                    a.remove(rng.below(a.len()));
                }
            }
            assert_differential(&a, &b, &format!("case {case}"));
        }
    }

    #[test]
    fn differential_degenerate_shapes() {
        let shapes: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![], vec![1]),
            (vec![1], vec![1]),
            (vec![1], vec![2]),
            (vec![1, 1, 1, 1], vec![1, 1]),
            (vec![1, 2, 1, 2, 1], vec![2, 1, 2, 1, 2]),
            (vec![1, 2, 3], vec![3, 2, 1]),
            ((0..40).collect(), (20..60).collect()),
            (vec![5; 30], vec![5; 17]),
        ];
        for (a, b) in shapes {
            assert_differential(&a, &b, "degenerate");
        }
    }
}
