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
//!   its string-keyed test reference);
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
pub use intern::{DiffRecord, InternTable, InternedLog, NO_MATCH_TOKEN};
pub use myers::{myers_matches, unmatched_b};
pub use parse::{parse_log, ParsedEntry};
