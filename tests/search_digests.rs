//! Whole searches, pinned: one row per search, holding its rounds, whether
//! it reproduced, how many observables it promoted, and an FNV-1a digest
//! of its stable trace stream (every `stable_json` line after
//! `explore_start`, batch-only events dropped). A search is deterministic,
//! so a row that moves is a search that changed — the failure names each
//! row it moved, and prints the tables in source form. A PR that moves a
//! row on purpose lists it in CHANGES.md with the reason.
//!
//! The key names the case, its input (`prepared` is the case's own failure
//! log, `degraded` the log [`PreparedCase::degraded`] leaves), the
//! strategy's registry name and, for `explore_batched` (batch 8,
//! 2 threads), `batched`. Every search starts at seed 1000 with a cap of
//! 600 rounds; the digest leaves out `explore_start`, the one line that
//! names strategy, seed and cap.
//!
//! `full` is the paper's fixed observable set; `full-adaptive` promotes
//! observables when a retry pass begins. Where the fixed search never
//! stalls the two are the same search, and their rows must say so.
//!
//! [`PreparedCase::degraded`]: anduril::failures::PreparedCase::degraded

use anduril::baselines::by_name;
use anduril::failures::{all_cases, case_by_id};
use anduril::trace::{NoopTracer, StrategyNote, TraceEvent, VecTracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, Oracle,
    SearchContext,
};

const SEED: u64 = 1000;
const CAP: usize = 600;

/// `(key, rounds, reproduced, promotions, digest)`.
type Row = (&'static str, usize, bool, usize, u64);

/// A [`Row`] as a search produces it.
type Searched = (String, usize, bool, usize, u64);

#[rustfmt::skip] // a table: one row a line
const PREPARED: [Row; 44] = [
    ("f1/prepared/full", 3, true, 0, 0x59ef9164a249ec4c),
    ("f1/prepared/full-adaptive", 3, true, 0, 0x59ef9164a249ec4c),
    ("f2/prepared/full", 13, true, 0, 0x6716db79ae96fa4b),
    ("f2/prepared/full-adaptive", 13, true, 0, 0x6716db79ae96fa4b),
    ("f3/prepared/full", 1, true, 0, 0xb48a1b5f3dc3c5f5),
    ("f3/prepared/full-adaptive", 1, true, 0, 0xb48a1b5f3dc3c5f5),
    ("f4/prepared/full", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f4/prepared/full-adaptive", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f5/prepared/full", 6, true, 0, 0xd1cc98f922246ea1),
    ("f5/prepared/full-adaptive", 6, true, 0, 0xd1cc98f922246ea1),
    ("f6/prepared/full", 14, true, 0, 0x59ffb831dc912d68),
    ("f6/prepared/full-adaptive", 14, true, 0, 0x59ffb831dc912d68),
    ("f7/prepared/full", 7, true, 0, 0x6c4fb4a902d51644),
    ("f7/prepared/full-adaptive", 7, true, 0, 0x6c4fb4a902d51644),
    ("f8/prepared/full", 1, true, 0, 0x5d16ef7c8e5c375e),
    ("f8/prepared/full-adaptive", 1, true, 0, 0x5d16ef7c8e5c375e),
    ("f9/prepared/full", 1, true, 0, 0xc183675d8c48c14e),
    ("f9/prepared/full-adaptive", 1, true, 0, 0xc183675d8c48c14e),
    ("f10/prepared/full", 1, true, 0, 0x31fbbbbc5c9d2033),
    ("f10/prepared/full-adaptive", 1, true, 0, 0x31fbbbbc5c9d2033),
    ("f11/prepared/full", 6, true, 0, 0x87a29d03fe97bd92),
    ("f11/prepared/full-adaptive", 6, true, 0, 0x87a29d03fe97bd92),
    ("f12/prepared/full", 1, true, 0, 0x79f75b78679d4290),
    ("f12/prepared/full-adaptive", 1, true, 0, 0x79f75b78679d4290),
    ("f13/prepared/full", 1, true, 0, 0xc87127f9a092ffe6),
    ("f13/prepared/full-adaptive", 1, true, 0, 0xc87127f9a092ffe6),
    ("f14/prepared/full", 1, true, 0, 0x1afe7742d62aa059),
    ("f14/prepared/full-adaptive", 1, true, 0, 0x1afe7742d62aa059),
    ("f15/prepared/full", 1, true, 0, 0x37db0fcfd972bf07),
    ("f15/prepared/full-adaptive", 1, true, 0, 0x37db0fcfd972bf07),
    ("f16/prepared/full", 1, true, 0, 0x13b7d24468a6378e),
    ("f16/prepared/full-adaptive", 1, true, 0, 0x13b7d24468a6378e),
    ("f17/prepared/full", 12, true, 0, 0x723e4b9e2c870c5f),
    ("f17/prepared/full-adaptive", 12, true, 0, 0x723e4b9e2c870c5f),
    ("f18/prepared/full", 3, true, 0, 0x65925b7626340786),
    ("f18/prepared/full-adaptive", 3, true, 0, 0x65925b7626340786),
    ("f19/prepared/full", 2, true, 0, 0x03ad507b5bf29312),
    ("f19/prepared/full-adaptive", 2, true, 0, 0x03ad507b5bf29312),
    ("f20/prepared/full", 9, true, 0, 0x4b462a7e2ee28574),
    ("f20/prepared/full-adaptive", 9, true, 0, 0x4b462a7e2ee28574),
    ("f21/prepared/full", 2, true, 0, 0x74f86fe42b739c16),
    ("f21/prepared/full-adaptive", 2, true, 0, 0x74f86fe42b739c16),
    ("f22/prepared/full", 1, true, 0, 0xee900f1eda72338d),
    ("f22/prepared/full-adaptive", 1, true, 0, 0xee900f1eda72338d),
];

#[rustfmt::skip]
const DEGRADED: [Row; 44] = [
    ("f1/degraded/full", 4, true, 0, 0x67b25ddc5b19561b),
    ("f1/degraded/full-adaptive", 4, true, 0, 0x67b25ddc5b19561b),
    ("f2/degraded/full", 40, true, 0, 0x4fbdd630938730fc),
    ("f2/degraded/full-adaptive", 40, true, 0, 0x4fbdd630938730fc),
    ("f3/degraded/full", 24, true, 0, 0xcd06e7e3a929e181),
    ("f3/degraded/full-adaptive", 24, true, 0, 0xcd06e7e3a929e181),
    ("f4/degraded/full", 3, true, 0, 0x29af3870a7043dff),
    ("f4/degraded/full-adaptive", 3, true, 0, 0x29af3870a7043dff),
    ("f5/degraded/full", 600, false, 0, 0xd36cd472ad7f58ef),
    ("f5/degraded/full-adaptive", 82, true, 5, 0x501283343d8260e8),
    ("f6/degraded/full", 14, true, 0, 0xe3791114f9a10b3c),
    ("f6/degraded/full-adaptive", 14, true, 0, 0xe3791114f9a10b3c),
    ("f7/degraded/full", 7, true, 0, 0x4fe5022d2f762f7a),
    ("f7/degraded/full-adaptive", 7, true, 0, 0x4fe5022d2f762f7a),
    ("f8/degraded/full", 1, true, 0, 0x0927cefc07be38f2),
    ("f8/degraded/full-adaptive", 1, true, 0, 0x0927cefc07be38f2),
    ("f9/degraded/full", 1, true, 0, 0x5785dd9054af07c8),
    ("f9/degraded/full-adaptive", 1, true, 0, 0x5785dd9054af07c8),
    ("f10/degraded/full", 1, true, 0, 0x6535a4dd18937f88),
    ("f10/degraded/full-adaptive", 1, true, 0, 0x6535a4dd18937f88),
    ("f11/degraded/full", 600, false, 0, 0xc62bda61df163e98),
    ("f11/degraded/full-adaptive", 42, true, 7, 0x5c0d4fce08ca3fc3),
    ("f12/degraded/full", 1, true, 0, 0xe7955b348f6307f7),
    ("f12/degraded/full-adaptive", 1, true, 0, 0xe7955b348f6307f7),
    ("f13/degraded/full", 1, true, 0, 0x9d3d37c3670c5ac1),
    ("f13/degraded/full-adaptive", 1, true, 0, 0x9d3d37c3670c5ac1),
    ("f14/degraded/full", 1, true, 0, 0x30da4c2b27ab3e1f),
    ("f14/degraded/full-adaptive", 1, true, 0, 0x30da4c2b27ab3e1f),
    ("f15/degraded/full", 1, true, 0, 0xb0beebb13e1728b5),
    ("f15/degraded/full-adaptive", 1, true, 0, 0xb0beebb13e1728b5),
    ("f16/degraded/full", 1, true, 0, 0x05f870c71ef621f4),
    ("f16/degraded/full-adaptive", 1, true, 0, 0x05f870c71ef621f4),
    ("f17/degraded/full", 12, true, 0, 0xbf9718917a33f32d),
    ("f17/degraded/full-adaptive", 12, true, 0, 0xbf9718917a33f32d),
    ("f18/degraded/full", 600, false, 0, 0xce8c81ded832dc79),
    ("f18/degraded/full-adaptive", 12, true, 4, 0xdf5139ff42aa4927),
    ("f19/degraded/full", 2, true, 0, 0xec1c8b94a81bf0e2),
    ("f19/degraded/full-adaptive", 2, true, 0, 0xec1c8b94a81bf0e2),
    ("f20/degraded/full", 9, true, 0, 0x304cfb9740ac536c),
    ("f20/degraded/full-adaptive", 9, true, 0, 0x304cfb9740ac536c),
    ("f21/degraded/full", 2, true, 0, 0xc6d2d9cc1cdc6c3c),
    ("f21/degraded/full-adaptive", 2, true, 0, 0xc6d2d9cc1cdc6c3c),
    ("f22/degraded/full", 600, false, 0, 0xcdf771079df97ed0),
    ("f22/degraded/full-adaptive", 49, true, 4, 0x70cda793a702a38c),
];

#[rustfmt::skip]
const BATCHED: [Row; 4] = [
    ("f5/degraded/full-adaptive/batched", 82, true, 5, 0x501283343d8260e8),
    ("f11/degraded/full-adaptive/batched", 42, true, 7, 0x5c0d4fce08ca3fc3),
    ("f18/degraded/full-adaptive/batched", 12, true, 4, 0xdf5139ff42aa4927),
    ("f22/degraded/full-adaptive/batched", 49, true, 4, 0x70cda793a702a38c),
];

/// The stall cases: degraded inputs the fixed search never reproduces.
const STALLS: [&str; 4] = ["f5", "f11", "f18", "f22"];

fn fnv1a(lines: &[String]) -> u64 {
    lines.iter().fold(0xcbf2_9ce4_8422_2325, |h, line| {
        line.bytes().chain([b'\n']).fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// One searched row, and whether the search ever began a retry pass.
fn search(
    key: String,
    ctx: &SearchContext,
    oracle: &Oracle,
    name: &str,
    batch: Option<&BatchExplorerConfig>,
) -> (Searched, bool) {
    let cfg = ExplorerConfig {
        max_rounds: CAP,
        base_seed: SEED,
    };
    let mut s = by_name(name).expect("registered");
    let tracer = VecTracer::new();
    let r = match batch {
        None => explore_traced(ctx, oracle, s.as_mut(), &cfg, None, &tracer),
        Some(batch) => explore_batched_traced(ctx, oracle, s.as_mut(), &cfg, batch, None, &tracer),
    }
    .expect("explore");
    let events = tracer.take();
    assert!(
        matches!(events.first(), Some(TraceEvent::ExploreStart { .. })),
        "{key}: the stream opens with explore_start"
    );
    let lines: Vec<String> = events[1..]
        .iter()
        .filter(|e| !e.is_batch_only())
        .map(TraceEvent::stable_json)
        .collect();
    let promotions = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"promoted\""))
        .count();
    let stalled = events.iter().any(|e| {
        matches!(
            e,
            TraceEvent::Note {
                note: StrategyNote::RetryPass { .. },
                ..
            }
        )
    });
    let row = (key, r.rounds, r.success, promotions, fnv1a(&lines));
    (row, stalled)
}

/// `full` then `full-adaptive` on each case's context; where `full` never
/// stalls, `full-adaptive` must be the same search.
fn fixed_and_adaptive(input: &str, context: fn(&str) -> (SearchContext, Oracle)) -> Vec<Searched> {
    let mut rows = Vec::new();
    for case in all_cases() {
        let (ctx, oracle) = context(case.id);
        let key = |name: &str| format!("{}/{input}/{name}", case.id);
        let (fixed, stalled) = search(key("full"), &ctx, &oracle, "full", None);
        let (adaptive, _) = search(key("full-adaptive"), &ctx, &oracle, "full-adaptive", None);
        if !stalled {
            assert_eq!(
                (fixed.1, fixed.2, fixed.3, fixed.4),
                (adaptive.1, adaptive.2, adaptive.3, adaptive.4),
                "{}: nothing stalls, so adaptation must leave the search alone",
                case.id
            );
        }
        rows.extend([fixed, adaptive]);
    }
    rows
}

fn prepared(id: &str) -> (SearchContext, Oracle) {
    let case = case_by_id(id).expect("case");
    let prepared = case.prepare(SEED, &NoopTracer).expect("prepare");
    (prepared.ctx, case.oracle)
}

fn degraded(id: &str) -> (SearchContext, Oracle) {
    let case = case_by_id(id).expect("case");
    let prepared = case.prepare(SEED, &NoopTracer).expect("prepare");
    (prepared.degraded().expect("degraded"), case.oracle)
}

/// Compares a table with its pinned rows, naming every row that moved and
/// printing the table in source form, so a deliberate move is one paste.
fn check(table: &str, actual: &[Searched], golden: &[Row]) {
    let pinned: Vec<Searched> = golden
        .iter()
        .map(|&(key, rounds, ok, promos, digest)| (key.to_string(), rounds, ok, promos, digest))
        .collect();
    if actual == pinned {
        return;
    }
    println!("const {table}: [Row; {}] = [", actual.len());
    for (key, rounds, ok, promos, digest) in actual {
        println!("    ({key:?}, {rounds}, {ok}, {promos}, {digest:#018x}),");
    }
    println!("];");
    let moved: Vec<&str> = actual
        .iter()
        .filter(|row| !pinned.contains(row))
        .map(|row| row.0.as_str())
        .collect();
    panic!("{table}: {} rows moved: {moved:?}", moved.len());
}

#[test]
fn searches_on_prepared_contexts_are_pinned() {
    check(
        "PREPARED",
        &fixed_and_adaptive("prepared", prepared),
        &PREPARED,
    );
}

#[test]
fn searches_on_degraded_contexts_are_pinned() {
    check(
        "DEGRADED",
        &fixed_and_adaptive("degraded", degraded),
        &DEGRADED,
    );
}

#[test]
fn batched_adaptive_searches_on_the_stall_cases_are_pinned() {
    let batch = BatchExplorerConfig {
        batch_size: 8,
        threads: 2,
    };
    let rows: Vec<_> = STALLS
        .iter()
        .map(|id| {
            let (ctx, oracle) = degraded(id);
            let key = format!("{id}/degraded/full-adaptive/batched");
            search(key, &ctx, &oracle, "full-adaptive", Some(&batch)).0
        })
        .collect();
    check("BATCHED", &rows, &BATCHED);
}
