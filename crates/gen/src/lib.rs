//! Seeded scenario generator with planted ground truth.
//!
//! The 22 hand-written failure cases pin the explorer to known bugs, but
//! they cannot answer "does the search still find root causes on systems
//! it was never tuned for?". This crate synthesizes random well-formed
//! IR programs (an order of magnitude larger than the hand minis),
//! plants a root-cause fault at a chosen `(site, occurrence)` — or a
//! two-fault cascade — derives the "production" failure log by actually
//! simulating the planted plan, and packages the result as a
//! [`FailureCase`] the existing explorer, baselines, analyze and trace
//! machinery consume unchanged.
//!
//! Ground truth is correct *by construction*: generated externals only
//! misbehave when the injector fires, so the fault-free run is healthy,
//! the planted run satisfies the oracle, and [`verify_sound`] checks the
//! plant additionally survives the search context's reachability pruning.
//! The plant is *found* by construction
//! too — the crossing of the phase gate the grammar built is galloped to
//! and bisected, a cascade starts where the fault-free trace says — so a
//! case costs a logarithm of its occurrence count in simulator runs
//! ([`GeneratedCase::runs`]).
//!
//! [`FailureCase`]: anduril_failures::FailureCase

#![warn(missing_docs)]

pub mod grammar;
pub mod plant;

pub use grammar::{GenProgram, SizeClass};
pub use plant::{
    generate, generate_one, verify_sound, GenConfig, GenError, GeneratedCase, PlantedFault,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed → same case: ids, plants, logs, and stats all agree.
    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::new(42);
        let a = generate_one(&cfg, 3).expect("generate");
        let b = generate_one(&cfg, 3).expect("generate");
        assert_eq!(a.plant, b.plant);
        assert_eq!(a.failure_log, b.failure_log);
        assert_eq!(a.case.failure_seed, b.case.failure_seed);
        assert_eq!(a.stmts, b.stmts);
    }

    /// A single-fault case is sound end to end and resolves its own
    /// ground truth through the stock `FailureCase` machinery.
    #[test]
    fn single_fault_case_is_sound_and_resolvable() {
        let cfg = GenConfig::new(7);
        let gc = generate_one(&cfg, 0).expect("generate");
        assert_eq!(gc.plant.len(), 1);
        verify_sound(&gc).expect("sound");
        let gt = gc.case.ground_truth().expect("ground truth resolves");
        assert_eq!(gt.site, gc.plant[0].site);
        assert_eq!(gt.occurrence, gc.plant[0].occurrence);
        assert_eq!(gt.exc, gc.plant[0].exc);
    }

    /// A multi-fault case needs both injections: the pair satisfies the
    /// oracle, while either fault alone does not.
    #[test]
    fn multi_fault_case_requires_both_injections() {
        let cfg = GenConfig {
            multi_fault: true,
            ..GenConfig::new(11)
        };
        let gc = generate_one(&cfg, 0).expect("generate");
        assert_eq!(gc.plant.len(), 2);
        verify_sound(&gc).expect("sound");
        for f in &gc.plant {
            let solo = gc
                .case
                .scenario
                .run(
                    gc.case.failure_seed,
                    anduril_sim::InjectionPlan::exact(f.site, f.occurrence, f.exc),
                )
                .expect("solo run");
            assert!(
                !gc.case.oracle.check(&solo),
                "a single injection must not reproduce a two-fault cascade"
            );
        }
    }
}
