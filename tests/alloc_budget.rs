//! What a reproduction allocates, counted and pinned.
//!
//! One operation of the `e2e` benchmark is `SearchContext::prepare` plus
//! `explore` under full feedback. This binary installs a counting global
//! allocator — it is the only one in the workspace, and it counts only on
//! the thread and inside the section a test switches it on for — and pins
//! the number of allocator calls (`alloc`, `alloc_zeroed`, `realloc`) that
//! one campaign makes: the 22 tickets, `e2e --smoke`'s ten generated
//! programs and `gen-corpus`'s forty-two, at base seed 1000 — and that the
//! case registry makes to build the 22 cases. The count is a function of
//! the program, the toolchain and what ran before it on the thread — no
//! clock, no machine: a thread's runs share one world's storage, so a run
//! allocates less after a larger one than on a thread of its own. Each
//! bound is an upper bound with about a tenth of headroom. There are two of
//! each: a debug build replays every reproducing round to assert it is its
//! own exact replay (`explorer.rs`), one more run an operation than a
//! release build makes, and LLVM may elide an allocation in release.
//!
//! The printed table (`--nocapture`) splits a campaign by layer:
//! `ContextPhase` events delimit the phases of `prepare`; the tracer that
//! receives them stops the counter while it files one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

use anduril::failures::{all_cases, case_by_id};
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::{
    explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Oracle, Scenario, SearchContext,
    TraceEvent, Tracer,
};

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ON.get() {
        CALLS.set(CALLS.get() + 1);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// `const`-initialised thread-locals without destructors, so touching them
// never allocates and never runs after thread teardown has freed them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `section` with the counter on and returns the calls it made.
fn counted<T>(section: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.get();
    ON.set(true);
    let out = section();
    ON.set(false);
    (out, CALLS.get() - before)
}

/// Files the allocator calls between consecutive `ContextPhase` events
/// under the later event's name. The `graph.*` events re-emit timers of
/// the `graph` phase and delimit nothing.
#[derive(Default)]
struct PhaseCounts {
    last: Cell<u64>,
    rows: RefCell<Vec<(String, u64)>>,
}

// SAFETY: a `PhaseCounts` lives on the one thread that prepares with it;
// `Tracer` asks for `Sync` because the batch engine shares its tracer,
// which nothing here does.
unsafe impl Sync for PhaseCounts {}

impl Tracer for PhaseCounts {
    fn record(&self, ev: TraceEvent) {
        let on = ON.replace(false);
        if let TraceEvent::ContextPhase { phase, .. } = &ev {
            if !phase.starts_with("graph.") {
                let now = CALLS.get();
                self.add(phase, now - self.last.replace(now));
            }
        }
        drop(ev);
        ON.set(on);
    }
}

impl PhaseCounts {
    fn add(&self, name: &str, calls: u64) {
        let mut rows = self.rows.borrow_mut();
        match rows.iter_mut().find(|(n, _)| n == name) {
            Some(row) => row.1 += calls,
            None => rows.push((name.to_string(), calls)),
        }
    }
}

/// One operation as `e2e` runs it; returns its allocator calls.
fn operation(table: &PhaseCounts, scenario: &Scenario, failure_log: &str, oracle: &Oracle) -> u64 {
    let cfg = ExplorerConfig::default();
    table.last.set(CALLS.get());
    let (ctx, prepare) = counted(|| {
        SearchContext::prepare_traced(scenario.clone(), failure_log, cfg.base_seed, table)
            .expect("prepare")
    });
    let (repro, search) = counted(|| {
        let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
        explore(&ctx, oracle, &mut strategy, &cfg, None).expect("explore")
    });
    assert!(repro.success, "{}: reproduced", scenario.name);
    table.add("explore", search);
    table.add("rounds", repro.rounds as u64);
    prepare + search
}

/// The bound of this build's profile out of `[release, debug]`.
fn bound(bounds: [u64; 2]) -> u64 {
    bounds[usize::from(cfg!(debug_assertions))]
}

/// A campaign's bound: `[release, debug]`.
fn report(name: &str, table: &PhaseCounts, total: u64, bounds: [u64; 2]) {
    let bound = bound(bounds);
    println!("{name}: {total} allocator calls a campaign (bound {bound})");
    for (phase, calls) in table.rows.borrow().iter() {
        println!("  {phase:<12} {calls:>8}");
    }
    assert!(
        total <= bound,
        "{name}: {total} allocator calls, bound {bound}"
    );
}

/// Each case's failure log is rendered outside the count, and the ground
/// truth scan behind it runs the case's program, which lowers it once for
/// every later run: `prepare`'s `sim.compile` phase reads that code and is
/// left with the scenario clone (206 calls). While every `prepare` lowered
/// a copy of its own, the campaign made 27 590 calls in release, 3 445 of
/// them compiling, and 30 585 in debug: both fail these bounds. A system's
/// call graph, exception summaries and use-def tables are derived once,
/// by its first `prepare`, and no `prepare` computes occurrence bounds:
/// the campaign made 23 170 calls and 26 231 (24 615 in release while
/// every `prepare` derived its own and computed the bounds). Since a
/// thread's runs share one world's storage instead of each building its
/// own and freeing it, it makes 14 404 and 15 727: `explore` 7 639 calls
/// in release (14 706 before) and the normal runs 1 140 (2 839). Since a
/// round keeps no per-round record, 14 349 and 15 672 (`explore` 7 584);
/// reading the failure log's throwables (`evidence`, 70 calls) makes it
/// 14 419 and 15 742. A plan that keeps its ranked units in place of a
/// deduplicated site list and a provenance makes it 14 400 and 15 723
/// (`explore` 7 565).
#[test]
fn a_tickets22_campaign_stays_inside_its_allocation_budget() {
    let table = PhaseCounts::default();
    let mut total = 0;
    for case in all_cases() {
        let failure_log = case.failure_log().expect("failure log");
        total += operation(&table, &case.scenario, &failure_log, &case.oracle);
    }
    report("tickets22", &table, total, [15_850, 17_300]);
}

/// The case registry builds each of the five target programs once a call
/// and hands every case of a system that system's `Arc`; `case_by_id`
/// builds the systems up to the one holding the case. While every case
/// built its own program (mini-Kafka twice), `all_cases()` built 25 and
/// made 24 038 allocator calls in either profile, and `case_by_id("f17")`
/// as many: both fail these bounds. Shared, they made 4 697 and 3 382;
/// since building a program no longer lints it, 3 529 and 2 522.
#[test]
fn the_case_registry_stays_inside_its_allocation_budget() {
    let (cases, all) = counted(all_cases);
    assert_eq!(cases.len(), 22);
    let (f17, one) = counted(|| case_by_id("f17"));
    assert!(f17.is_some());
    for (name, calls, bounds) in [
        ("all_cases()", all, [5_200, 5_200]),
        ("case_by_id(\"f17\")", one, [3_750, 3_750]),
    ] {
        let bound = bound(bounds);
        println!("{name}: {calls} allocator calls (bound {bound})");
        assert!(
            calls <= bound,
            "{name}: {calls} allocator calls, bound {bound}"
        );
    }
}

/// One campaign over `e2e`'s generated corpus: `[small, medium, large]`
/// programs from master seed `0xA11D`.
fn corpus_campaign(name: &str, counts: [usize; 3], bounds: [u64; 2]) {
    let table = PhaseCounts::default();
    let mut total = 0;
    let sizes = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];
    for (size, count) in sizes.into_iter().zip(counts) {
        let cfg = GenConfig {
            seed: 0xA11D,
            size,
            multi_fault: false,
        };
        for index in 0..count {
            let gc = generate_one(&cfg, index).expect("generated case");
            let case = &gc.case;
            total += operation(&table, &case.scenario, &gc.failure_log, &case.oracle);
        }
    }
    report(name, &table, total, bounds);
}

/// 17 950 calls in release and 23 174 in debug (`evidence` 30): each
/// program comes back from planting lowered, so `prepare`'s `sim.compile`
/// reads it (84 calls; 19 742 and 24 966 while planting lowered a copy of
/// its own and `prepare` lowered the program again, 1 906 of them
/// compiling; 24 061 and 31 226 while every run built its world and freed
/// it).
#[test]
fn a_smoke_corpus_campaign_stays_inside_its_allocation_budget() {
    corpus_campaign("gen-corpus --smoke", [6, 3, 1], [21_750, 27_500]);
}

/// The whole `gen-corpus` workload: 42 programs, the large ones ten times
/// a ticket. 88 842 calls in release and 113 624 in debug, `sim.compile`
/// 364 and `evidence` 126 (96 825 and 121 607 while `prepare` lowered each program a second
/// time, 8 473 of them compiling; 117 544 and 151 216 while every run
/// built its world and freed it).
#[test]
fn a_gen_corpus_campaign_stays_inside_its_allocation_budget() {
    corpus_campaign("gen-corpus", [24, 12, 6], [106_600, 133_900]);
}
