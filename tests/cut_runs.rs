//! A run cut at simulated time `t` (`SimConfig::max_time = t`) is the whole
//! run up to `t`.
//!
//! The simulator reads `max_time` only as a horizon: an event due after it
//! ends the run. So a cut run executes exactly the slices of the whole run
//! that start at or before `t`, and what it logged, traced, injected and
//! stepped is a prefix of what the whole run did. (A site's trace time is
//! its slice's start plus the latency run up within the slice, so a slice
//! that starts by `t` can trace past it.) The generator's planter
//! relies on this to stop a phase-gate probe once the gate has answered.
//! Checked on the 22 tickets under their ground-truth plans and on `e2e
//! --smoke`'s generated corpus under its plants, each cut at several of
//! its own trace times.

use anduril::failures::all_cases;
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::sim::InjectionPlan;
use anduril::Scenario;

/// Runs `plan` whole and cut at a spread of its trace times, the
/// injection's among them, and checks every cut against the whole run.
fn check_cuts(id: &str, scenario: &Scenario, seed: u64, plan: InjectionPlan) {
    let whole = scenario.run(seed, plan.clone()).expect("whole run");
    let n = whole.trace.len();
    assert!(n > 0, "{id}: no fault site executed");
    let mut cuts: Vec<u64> = [0, n / 4, n / 2, 3 * n / 4, n - 1]
        .iter()
        .map(|&i| whole.trace[i].time)
        .chain(whole.injected.as_ref().map(|i| i.time))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    for t in cuts {
        let mut cut_scenario = scenario.clone();
        cut_scenario.config.max_time = t;
        let cut = cut_scenario.run(seed, plan.clone()).expect("cut run");
        let tag = format!("{id} cut at {t} of {}", whole.end_time);
        assert!(
            whole.log.starts_with(&cut.log),
            "{tag}: the cut run's log is not a prefix of the whole run's"
        );
        assert!(
            whole.trace.starts_with(&cut.trace),
            "{tag}: the cut run's trace is not a prefix of the whole run's"
        );
        // A slice that starts by `t` may run past it, so an injection after
        // `t` may or may not be in the cut run; one at or before `t` is.
        match &whole.injected {
            Some(i) if i.time <= t => assert_eq!(cut.injected, whole.injected, "{tag}"),
            _ => assert!(
                cut.injected.is_none() || cut.injected == whole.injected,
                "{tag}: the cut run injected what the whole run did not"
            ),
        }
        assert!(
            cut.steps <= whole.steps,
            "{tag}: the cut run took more steps"
        );
    }
}

#[test]
fn a_cut_run_is_a_prefix_of_the_whole_run() {
    for case in all_cases() {
        let gt = case.ground_truth().expect("ground truth");
        let plan = InjectionPlan::exact(gt.site, gt.occurrence, gt.exc);
        check_cuts(case.id, &case.scenario, gt.seed, plan);
    }
    for (size, count) in [
        (SizeClass::Small, 6),
        (SizeClass::Medium, 3),
        (SizeClass::Large, 1),
    ] {
        let cfg = GenConfig {
            seed: 0xA11D,
            size,
            multi_fault: false,
        };
        for index in 0..count {
            let gc = generate_one(&cfg, index).expect("generated case");
            let id = format!("{size} {}", gc.case.id);
            check_cuts(&id, &gc.case.scenario, gc.case.failure_seed, gc.plan());
        }
    }
}
