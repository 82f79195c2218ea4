//! The explorer's diff is a pure representation change, twice over. On
//! every round log of every search here — the 22 tickets and `e2e
//! --smoke`'s generated corpus:
//!
//! - rendering the log to text, re-parsing it and diffing `(level, body)`
//!   string keys (`logdiff::compare`, the reference formulation) finds the
//!   same missing entries and the same matches as `InternedLog::compare`
//!   over the structured entries;
//! - the observables the search sees present — diffed only on the thread
//!   logs that hold one, through the one `DiffMemo` the search keeps —
//!   are the ones a cold `RoundOutcome::new` reports and the ones that
//!   full `compare` leaves an unmissing position.

use anduril::failures::all_cases;
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::logdiff::{compare, parse_log, DiffMemo};
use anduril::{
    explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Oracle, RoundOutcome, Scenario,
    SearchContext, Strategy,
};

/// What walking one search saw: rounds taken and the memo's counters.
struct Walk {
    rounds: usize,
    lookups: u64,
    hits: u64,
}

/// Walks a search round by round (the explorer's loop, by hand, so each
/// round's `RunResult` is in reach) and checks every diff on every round
/// log.
fn check_every_round(id: &str, scenario: &Scenario, failure_log: &str, oracle: &Oracle) -> Walk {
    let ctx = SearchContext::prepare(scenario.clone(), failure_log, 1_000).expect("context");
    let cfg = ExplorerConfig::default();
    let mut memo = DiffMemo::default();

    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    s.init(&ctx);
    for round in 0..cfg.max_rounds {
        let plan = s.plan_injection(&ctx, round).expect("space not exhausted");
        s.drain_notes();
        let result = ctx
            .run_round(cfg.base_seed + 1 + round as u64, plan)
            .expect("round");

        let text = compare(&parse_log(&result.log_text()), &ctx.failure);
        let interned = ctx.failure_interned.compare(&result.log);
        assert_eq!(text.missing, interned.missing, "{id}: missing @{round}");
        assert_eq!(text.matches, interned.matches, "{id}: matches @{round}");

        let from_compare: Vec<usize> = (0..ctx.observables.len())
            .filter(|&k| {
                let positions = &ctx.observables[k].positions;
                positions
                    .iter()
                    .any(|p| interned.missing.binary_search(p).is_err())
            })
            .collect();
        let memoised = ctx.present_observables_memo(&result.log, &mut memo);
        assert_eq!(memoised, from_compare, "{id}: present @{round}");

        let satisfied = oracle.check(&result) && result.injected.is_some();
        let cold = RoundOutcome::new(&ctx, result);
        assert_eq!(cold.present, Some(memoised), "{id}: cold present @{round}");

        if satisfied {
            // The hand-walked loop is the search `explore` runs.
            let mut s = FeedbackStrategy::new(FeedbackConfig::full());
            let r = explore(&ctx, oracle, &mut s, &cfg, None).expect("explore");
            assert!(r.success, "{id}: reproduced");
            assert_eq!(r.rounds, round + 1, "{id}: rounds");
            return Walk {
                rounds: r.rounds,
                lookups: memo.lookups(),
                hits: memo.hits(),
            };
        }
        s.feedback(&ctx, &cold);
        s.drain_notes();
    }
    panic!("{id}: not reproduced");
}

/// All 22 tickets, short searches and long. f17 (the motivating example,
/// with a retry pass) also pins what the memo is for: an injection
/// perturbs few threads, so most of a search's group diffs repeat an
/// earlier round's token sequence. A memo key that took in anything a
/// round changes — time, log position, the round itself — would drop that
/// share to zero.
#[test]
fn fast_path_matches_text_baseline() {
    let mut rounds = 0;
    for case in all_cases() {
        let failure_log = case.failure_log().expect("failure log");
        let walk = check_every_round(case.id, &case.scenario, &failure_log, &case.oracle);
        rounds += walk.rounds;
        if case.id == "f17" {
            assert!(walk.rounds > 10, "f17 is the long search: {}", walk.rounds);
            assert!(
                walk.hits * 2 >= walk.lookups,
                "f17: memo hit share below 0.5: {} of {}",
                walk.hits,
                walk.lookups
            );
        }
    }
    assert_eq!(
        rounds, 88,
        "the searches the `*/prepared/full` rows of `search_digests` pin"
    );
}

/// `e2e --smoke`'s corpus: 6 small, 3 medium and 1 large generated
/// program.
#[test]
fn fast_path_matches_text_baseline_on_generated_programs() {
    let mut rounds = 0;
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
            let name = format!("{size}-{index:02}");
            let case = &gc.case;
            rounds +=
                check_every_round(&name, &case.scenario, &gc.failure_log, &case.oracle).rounds;
        }
    }
    assert!(rounds >= 10, "one round a case at least: {rounds}");
}
