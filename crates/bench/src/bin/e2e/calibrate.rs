//! A yardstick for the machine's speed while the benchmark runs.
//!
//! The reference box has two virtual CPUs that share one core: whenever
//! anything else runs, this process runs up to 1.6x slower, for seconds or
//! for minutes (no page faults, no system time, no steal; a busy loop on
//! the other CPU reproduces it exactly). Timings taken in a run are
//! therefore divided by how slow a fixed piece of work — the *kernel*
//! below — ran right next to them. What slows the searches slows the
//! kernel: both are bound by instruction throughput and branches, not by
//! memory latency (a pointer chase over 256 KiB or 64 MiB does not slow
//! down and tracks nothing).
//!
//! The kernel is part of the benchmark and is never changed, or every
//! earlier result loses its meaning.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// What one kernel call takes on the reference box when nothing else
/// runs. Calibrated times are "seconds on a machine where the kernel
/// takes this long".
const NOMINAL_S: f64 = 0.0014;

const KEYS: usize = 1 << 15;
const SLOTS: usize = 1 << 15;

/// Sorting, hashing into an open-addressed table, and formatting into a
/// fixed buffer: branchy integer work over a few hundred KiB, with no
/// allocation after the first call's buffers.
fn kernel(scratch: &mut Scratch) -> u64 {
    let Scratch { keys, table, text } = scratch;
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1D_u64);
    for key in keys.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *key = x;
    }
    keys.sort_unstable();

    table.fill(0);
    let mut probes = 0u64;
    for (i, key) in keys.iter().enumerate().take(SLOTS / 2) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (key, i, "observable").hash(&mut hasher);
        let mut slot = hasher.finish() as usize % SLOTS;
        while table[slot] != 0 {
            slot = (slot + 1) % SLOTS;
            probes += 1;
        }
        table[slot] = key | 1;
    }

    text.clear();
    for (i, key) in keys.iter().enumerate().take(4_096) {
        let _ = writeln!(
            text,
            "00:00:{:02} INFO [worker-{}] n{}: commit {key}",
            i % 60,
            i % 7,
            i % 3
        );
    }
    let matches = text
        .lines()
        .filter(|line| line.contains("commit 7"))
        .count() as u64;
    std::hint::black_box(keys[KEYS / 3] ^ probes ^ matches)
}

struct Scratch {
    keys: Vec<u64>,
    table: Vec<u64>,
    text: String,
}

/// Times kernel calls; one per run, so the buffers are allocated once.
pub struct Yardstick {
    scratch: Scratch,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut yardstick = Yardstick {
            scratch: Scratch {
                keys: vec![0; KEYS],
                table: vec![0; SLOTS],
                text: String::new(),
            },
        };
        // The first call grows `text` to its final size.
        kernel(&mut yardstick.scratch);
        yardstick
    }

    /// Runs the kernel `calls` times and appends, per call, how many times
    /// slower than nominal it ran.
    pub fn sample(&mut self, calls: usize, into: &mut Vec<f64>) {
        for _ in 0..calls {
            let started = Instant::now();
            kernel(&mut self.scratch);
            into.push(started.elapsed().as_secs_f64() / NOMINAL_S);
        }
    }
}

/// How many times slower than nominal the machine ran, judging by the
/// yardstick samples taken around the work in question.
pub fn slowdown(samples: &[f64]) -> f64 {
    crate::stats::median(samples)
}
