//! Log processing for ANDURIL: parsing, per-thread sanitized diffing, and
//! timeline alignment.
//!
//! The paper's Explorer derives everything it knows from logs: relevant
//! observables come from diffing the failure log against a fault-free run
//! (§5.1), feedback comes from re-diffing after every unsuccessful
//! injection (Algorithm 2), and fault-instance timing is mapped between
//! timelines with an LCS-anchored alignment (§5.2.3). This crate provides
//! those three primitives:
//!
//! - [`parse::parse_log`] — text → structured records (the failure log
//!   arrives as text from the uninstrumented production system);
//! - [`intern::InternedLog::compare`] — per-thread Myers diff over
//!   sanitized records, interned to `u32` tokens ([`compare::compare`] is
//!   its string-keyed test reference), and
//!   [`intern::InternedLog::missing_in`], the same diff asked only which
//!   failure entries stay unmatched, once per distinct thread log
//!   ([`intern::DiffMemo`]) — what every round after the first needs;
//! - [`align::Alignment`] — piecewise-linear position mapping anchored on
//!   the diff's matched pairs.

#![warn(missing_docs)]

pub mod align;
pub mod compare;
pub mod intern;
pub mod myers;
pub mod parse;

pub use align::Alignment;
pub use compare::{compare, compare_global, DiffResult};
pub use intern::{DiffMemo, DiffRecord, InternTable, InternedLog, NO_MATCH_TOKEN};
pub use myers::myers_matches;
pub use parse::{header, parse_log, Header, ParsedEntry};

/// Deterministic SplitMix64 for the `differential_` tests (the build is
/// offline; no `rand`, and no wall-clock seeding — every run tests the
/// same cases).
#[cfg(test)]
mod test_rng {
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }
}
