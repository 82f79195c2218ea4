//! Whole searches, pinned: one row per search, holding its rounds, whether
//! it reproduced, how many observables it promoted, and an FNV-1a digest
//! of its stable trace stream (every `stable_json` line after
//! `explore_start`, batch-only events dropped). A search is deterministic,
//! so a row that moves is a search that changed — a planner, diff, graph
//! or simulator change moved it. The failure names each row it moved, and
//! prints the tables in source form. A PR that moves a row on purpose
//! lists it in CHANGES.md with the reason.
//!
//! This is the one place a search result is written down. The
//! `*/prepared/full` rows are the paper's Table 2 metric, rounds to
//! reproduce each ticket under full feedback, pinned exactly; their sum
//! is `e2e`'s `first_campaign` `rounds_total` on `tickets22`. The tests
//! after the pinning ones state what the paper claims of these rows —
//! adaptation's bars, the baselines' aggregates — and read the tables
//! only: the pinning tests prove the tables equal the searches.
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
//! Every other registry strategy has a row per prepared context too: the
//! ablations, the external baselines (whose decisions carry `provenance:
//! null`), and the searches that give up at the cap. Together the rows pin
//! the `stable_json` bytes of every event shape a search emits.
//!
//! [`PreparedCase::degraded`]: anduril::failures::PreparedCase::degraded

use anduril::baselines::{by_name, REGISTRY};
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
    ("f11/degraded/full-adaptive", 42, true, 7, 0xdcc320fae29ca001),
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
const REGISTRY_ROWS: [Row; 264] = [
    ("f1/prepared/exhaustive", 5, true, 0, 0x1ea1e16758120351),
    ("f1/prepared/site-distance", 15, true, 0, 0x818044ad1051ad69),
    ("f1/prepared/site-distance-limit3", 600, false, 0, 0xadde5639c92dd2d9),
    ("f1/prepared/site-feedback", 600, false, 0, 0x5e094f89da8cd0ee),
    ("f1/prepared/multiply", 3, true, 0, 0x59ef9164a249ec4c),
    ("f1/prepared/fate", 20, true, 0, 0x1ab932a63799fd15),
    ("f1/prepared/crashtuner", 6, false, 0, 0xe8a90a4c779f67b0),
    ("f1/prepared/crashtuner-meta-exc", 86, false, 0, 0x4777528492d2ab9a),
    ("f1/prepared/stacktrace", 4, true, 0, 0x71211e7fb880371f),
    ("f1/prepared/sum-aggregate", 3, true, 0, 0xd48d30710bf46c2a),
    ("f1/prepared/order-distance", 15, true, 0, 0x305475d28ea0788e),
    ("f1/prepared/global-diff", 3, true, 0, 0x66f5e1ed14a6cb9a),
    ("f2/prepared/exhaustive", 15, true, 0, 0x9a65a9be39da16e1),
    ("f2/prepared/site-distance", 31, true, 0, 0x95ac93252976a080),
    ("f2/prepared/site-distance-limit3", 600, false, 0, 0xfc8f1ca4adb55429),
    ("f2/prepared/site-feedback", 600, false, 0, 0xb7956c77e2c37191),
    ("f2/prepared/multiply", 13, true, 0, 0x43912ab053894c7d),
    ("f2/prepared/fate", 35, true, 0, 0xb5aa6deb0337654c),
    ("f2/prepared/crashtuner", 6, false, 0, 0x4af357a77d9c72b9),
    ("f2/prepared/crashtuner-meta-exc", 30, true, 0, 0x6af092bfb8aea31f),
    ("f2/prepared/stacktrace", 6, true, 0, 0x4f7be202d5ba9096),
    ("f2/prepared/sum-aggregate", 13, true, 0, 0xf1442d0c5df7d176),
    ("f2/prepared/order-distance", 31, true, 0, 0xb4dca19d74138cd1),
    ("f2/prepared/global-diff", 13, true, 0, 0x99309e57a56cd1fe),
    ("f3/prepared/exhaustive", 3, true, 0, 0x5884eb8eceb707c2),
    ("f3/prepared/site-distance", 5, true, 0, 0x9202920dca8011f8),
    ("f3/prepared/site-distance-limit3", 5, true, 0, 0x4115a01cf8b62cb8),
    ("f3/prepared/site-feedback", 5, true, 0, 0xa4475e4e77b9b1e9),
    ("f3/prepared/multiply", 1, true, 0, 0xb48a1b5f3dc3c5f5),
    ("f3/prepared/fate", 6, true, 0, 0x380f67c80af2e54d),
    ("f3/prepared/crashtuner", 6, false, 0, 0xfdba984469b42941),
    ("f3/prepared/crashtuner-meta-exc", 10, true, 0, 0xd6857e99727dc9c1),
    ("f3/prepared/stacktrace", 1, true, 0, 0x41a0e1fe2bc5ea76),
    ("f3/prepared/sum-aggregate", 1, true, 0, 0x985d74f3e8dd02a7),
    ("f3/prepared/order-distance", 5, true, 0, 0xd3b0e666eaa1fb91),
    ("f3/prepared/global-diff", 1, true, 0, 0xb48a1b5f3dc3c5f5),
    ("f4/prepared/exhaustive", 1, true, 0, 0x689c5d0e00237c85),
    ("f4/prepared/site-distance", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f4/prepared/site-distance-limit3", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f4/prepared/site-feedback", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f4/prepared/multiply", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f4/prepared/fate", 1, true, 0, 0x6b9fa71e76ab1588),
    ("f4/prepared/crashtuner", 6, false, 0, 0x2058903e47b7862b),
    ("f4/prepared/crashtuner-meta-exc", 1, true, 0, 0x6b9fa71e76ab1588),
    ("f4/prepared/stacktrace", 1, true, 0, 0xee59406bf4b49010),
    ("f4/prepared/sum-aggregate", 1, true, 0, 0x17b4a4bbf26f625a),
    ("f4/prepared/order-distance", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f4/prepared/global-diff", 1, true, 0, 0xcc05ef1ced82de1e),
    ("f5/prepared/exhaustive", 3, true, 0, 0x9d75576ed403ef73),
    ("f5/prepared/site-distance", 16, true, 0, 0x876ad6ba44fed6f6),
    ("f5/prepared/site-distance-limit3", 12, true, 0, 0xc1d899bbdce6461f),
    ("f5/prepared/site-feedback", 12, true, 0, 0x4a266e67c78d990d),
    ("f5/prepared/multiply", 6, true, 0, 0x20341b1c734db0b7),
    ("f5/prepared/fate", 11, true, 0, 0x8456162779e16a85),
    ("f5/prepared/crashtuner", 6, false, 0, 0xff7aaef7397eed1b),
    ("f5/prepared/crashtuner-meta-exc", 5, true, 0, 0x2b1ca00da253cdf8),
    ("f5/prepared/stacktrace", 1, true, 0, 0xcc2f7efab0ed1a21),
    ("f5/prepared/sum-aggregate", 6, true, 0, 0xd1cc98f922246ea1),
    ("f5/prepared/order-distance", 16, true, 0, 0xd8dc67f8a31ffbac),
    ("f5/prepared/global-diff", 4, true, 0, 0x6139c0796ba2fa62),
    ("f6/prepared/exhaustive", 8, true, 0, 0xfe594c5af2a9354f),
    ("f6/prepared/site-distance", 15, true, 0, 0xd183828cc68e6bf9),
    ("f6/prepared/site-distance-limit3", 14, true, 0, 0x249e0688e5ddf24e),
    ("f6/prepared/site-feedback", 14, true, 0, 0x8a254fdef9adab18),
    ("f6/prepared/multiply", 14, true, 0, 0x59ffb831dc912d68),
    ("f6/prepared/fate", 12, true, 0, 0xbad5b21e8b3b4d64),
    ("f6/prepared/crashtuner", 6, false, 0, 0xa2b69a128bf9df81),
    ("f6/prepared/crashtuner-meta-exc", 600, false, 0, 0x38641e09f90cf2f6),
    ("f6/prepared/stacktrace", 1, true, 0, 0xb90b77a8d79d6202),
    ("f6/prepared/sum-aggregate", 14, true, 0, 0x3e9d931fbfbb34ca),
    ("f6/prepared/order-distance", 15, true, 0, 0xd7a99cd080457f1c),
    ("f6/prepared/global-diff", 14, true, 0, 0xbd1f9750d3ab829d),
    ("f7/prepared/exhaustive", 3, true, 0, 0x1567ef4e21102948),
    ("f7/prepared/site-distance", 13, true, 0, 0x55b629d714f6eaec),
    ("f7/prepared/site-distance-limit3", 13, true, 0, 0x07a29a6becd703d4),
    ("f7/prepared/site-feedback", 13, true, 0, 0x56dbec0ec5254829),
    ("f7/prepared/multiply", 7, true, 0, 0xde7dec82f1b531bb),
    ("f7/prepared/fate", 13, true, 0, 0xc49d47ff74f9e5ac),
    ("f7/prepared/crashtuner", 6, false, 0, 0xe6284f3be892835f),
    ("f7/prepared/crashtuner-meta-exc", 3, true, 0, 0x93d351d441f3c58f),
    ("f7/prepared/stacktrace", 1, true, 0, 0xdf2b406b0d8a3218),
    ("f7/prepared/sum-aggregate", 7, true, 0, 0x770874c01af035ec),
    ("f7/prepared/order-distance", 13, true, 0, 0xa130a7e01dcaee99),
    ("f7/prepared/global-diff", 7, true, 0, 0x00a54dc4f911f628),
    ("f8/prepared/exhaustive", 23, true, 0, 0x8bd3a1255a479dea),
    ("f8/prepared/site-distance", 1, true, 0, 0x2e4682019f67b239),
    ("f8/prepared/site-distance-limit3", 1, true, 0, 0x2e4682019f67b239),
    ("f8/prepared/site-feedback", 1, true, 0, 0x2e4682019f67b239),
    ("f8/prepared/multiply", 1, true, 0, 0x5d16ef7c8e5c375e),
    ("f8/prepared/fate", 1, true, 0, 0x7eac9e1bb9043508),
    ("f8/prepared/crashtuner", 6, false, 0, 0xe7ad80c75a30aea2),
    ("f8/prepared/crashtuner-meta-exc", 600, false, 0, 0x7b57c963267dcf89),
    ("f8/prepared/stacktrace", 3, true, 0, 0xf51747fb8bf10bc8),
    ("f8/prepared/sum-aggregate", 1, true, 0, 0x414ad70a333268d1),
    ("f8/prepared/order-distance", 1, true, 0, 0x2e4682019f67b239),
    ("f8/prepared/global-diff", 1, true, 0, 0x5d16ef7c8e5c375e),
    ("f9/prepared/exhaustive", 5, true, 0, 0x48faea6d94ab8611),
    ("f9/prepared/site-distance", 1, true, 0, 0x4a9e234d9b4d9873),
    ("f9/prepared/site-distance-limit3", 1, true, 0, 0x4a9e234d9b4d9873),
    ("f9/prepared/site-feedback", 1, true, 0, 0x4a9e234d9b4d9873),
    ("f9/prepared/multiply", 1, true, 0, 0xc183675d8c48c14e),
    ("f9/prepared/fate", 7, true, 0, 0x44216909f8669061),
    ("f9/prepared/crashtuner", 6, false, 0, 0xe396a524d7f9b263),
    ("f9/prepared/crashtuner-meta-exc", 600, false, 0, 0x2c1e9278bca156db),
    ("f9/prepared/stacktrace", 3, true, 0, 0xed4876080c7a3191),
    ("f9/prepared/sum-aggregate", 1, true, 0, 0x82baf6d48e204ddf),
    ("f9/prepared/order-distance", 1, true, 0, 0x4a9e234d9b4d9873),
    ("f9/prepared/global-diff", 1, true, 0, 0xc183675d8c48c14e),
    ("f10/prepared/exhaustive", 30, true, 0, 0xcf268b2c2b53d6d5),
    ("f10/prepared/site-distance", 1, true, 0, 0x3a763c1f9d109988),
    ("f10/prepared/site-distance-limit3", 1, true, 0, 0x3a763c1f9d109988),
    ("f10/prepared/site-feedback", 1, true, 0, 0x3a763c1f9d109988),
    ("f10/prepared/multiply", 1, true, 0, 0x31fbbbbc5c9d2033),
    ("f10/prepared/fate", 3, true, 0, 0xaad3c2bca0d848a7),
    ("f10/prepared/crashtuner", 6, false, 0, 0x3d79733b53934172),
    ("f10/prepared/crashtuner-meta-exc", 600, false, 0, 0xc120f0bcac4eeb99),
    ("f10/prepared/stacktrace", 1, true, 0, 0xf91a2e02c9e0cb16),
    ("f10/prepared/sum-aggregate", 1, true, 0, 0x93da5876f41bf0de),
    ("f10/prepared/order-distance", 1, true, 0, 0x3a763c1f9d109988),
    ("f10/prepared/global-diff", 1, true, 0, 0x31fbbbbc5c9d2033),
    ("f11/prepared/exhaustive", 27, true, 0, 0x1d82e6b8fd635897),
    ("f11/prepared/site-distance", 6, true, 0, 0x0b2882b4ac01d70a),
    ("f11/prepared/site-distance-limit3", 6, true, 0, 0x0b2882b4ac01d70a),
    ("f11/prepared/site-feedback", 6, true, 0, 0xf74dfa66ac5487f4),
    ("f11/prepared/multiply", 6, true, 0, 0x87a29d03fe97bd92),
    ("f11/prepared/fate", 20, true, 0, 0x78a20e325ff371b8),
    ("f11/prepared/crashtuner", 6, false, 0, 0xf4de19678a8e927a),
    ("f11/prepared/crashtuner-meta-exc", 600, false, 0, 0x0cea4770d7f810e3),
    ("f11/prepared/stacktrace", 2, true, 0, 0xf54f8d89a16bf45b),
    ("f11/prepared/sum-aggregate", 6, true, 0, 0x87a29d03fe97bd92),
    ("f11/prepared/order-distance", 6, true, 0, 0xf74dfa66ac5487f4),
    ("f11/prepared/global-diff", 6, true, 0, 0x87a29d03fe97bd92),
    ("f12/prepared/exhaustive", 40, true, 0, 0xb73ac4b67f8b3689),
    ("f12/prepared/site-distance", 1, true, 0, 0x2278236feb9a9c08),
    ("f12/prepared/site-distance-limit3", 1, true, 0, 0x2278236feb9a9c08),
    ("f12/prepared/site-feedback", 1, true, 0, 0x2278236feb9a9c08),
    ("f12/prepared/multiply", 1, true, 0, 0x79f75b78679d4290),
    ("f12/prepared/fate", 1, true, 0, 0x0feb9cc6628c838b),
    ("f12/prepared/crashtuner", 15, false, 0, 0x0aa81f0cd15524fd),
    ("f12/prepared/crashtuner-meta-exc", 1, true, 0, 0x0feb9cc6628c838b),
    ("f12/prepared/stacktrace", 1, true, 0, 0x61f8c2e8be641e8c),
    ("f12/prepared/sum-aggregate", 1, true, 0, 0x11a3248862970044),
    ("f12/prepared/order-distance", 1, true, 0, 0x2278236feb9a9c08),
    ("f12/prepared/global-diff", 1, true, 0, 0x79f75b78679d4290),
    ("f13/prepared/exhaustive", 4, true, 0, 0xe5e7eedec2427af0),
    ("f13/prepared/site-distance", 4, true, 0, 0x00464ccc38d91b3f),
    ("f13/prepared/site-distance-limit3", 600, false, 0, 0x9265a6b37fbfdfbd),
    ("f13/prepared/site-feedback", 600, false, 0, 0x2a685a5e1f7ce76d),
    ("f13/prepared/multiply", 1, true, 0, 0xc87127f9a092ffe6),
    ("f13/prepared/fate", 18, true, 0, 0xed019cba2914bef6),
    ("f13/prepared/crashtuner", 15, false, 0, 0x8a7d15a35855cd7a),
    ("f13/prepared/crashtuner-meta-exc", 600, false, 0, 0x19233cbe8e3c478f),
    ("f13/prepared/stacktrace", 0, false, 0, 0x6e706f876c66ffc1),
    ("f13/prepared/sum-aggregate", 1, true, 0, 0x0c98943c23795163),
    ("f13/prepared/order-distance", 4, true, 0, 0xe5501bb13ed45e08),
    ("f13/prepared/global-diff", 1, true, 0, 0xc87127f9a092ffe6),
    ("f14/prepared/exhaustive", 2, true, 0, 0xe78cb5ca93ecf293),
    ("f14/prepared/site-distance", 2, true, 0, 0x680a472943fb8fb9),
    ("f14/prepared/site-distance-limit3", 2, true, 0, 0x680a472943fb8fb9),
    ("f14/prepared/site-feedback", 2, true, 0, 0xe25851909ceef7a6),
    ("f14/prepared/multiply", 1, true, 0, 0x1afe7742d62aa059),
    ("f14/prepared/fate", 1, true, 0, 0xad2ba4d291fd8407),
    ("f14/prepared/crashtuner", 15, false, 0, 0x5ac37964b6fd681d),
    ("f14/prepared/crashtuner-meta-exc", 1, true, 0, 0xad2ba4d291fd8407),
    ("f14/prepared/stacktrace", 0, false, 0, 0x6e706f876c66ffc1),
    ("f14/prepared/sum-aggregate", 1, true, 0, 0x505a103a54c471d5),
    ("f14/prepared/order-distance", 2, true, 0, 0xe25851909ceef7a6),
    ("f14/prepared/global-diff", 1, true, 0, 0x1afe7742d62aa059),
    ("f15/prepared/exhaustive", 1, true, 0, 0x70d2fda9d182bfb9),
    ("f15/prepared/site-distance", 1, true, 0, 0x06be24ba95ecf74b),
    ("f15/prepared/site-distance-limit3", 1, true, 0, 0x06be24ba95ecf74b),
    ("f15/prepared/site-feedback", 1, true, 0, 0x06be24ba95ecf74b),
    ("f15/prepared/multiply", 1, true, 0, 0x37db0fcfd972bf07),
    ("f15/prepared/fate", 1, true, 0, 0x8d933b042ad67ad3),
    ("f15/prepared/crashtuner", 15, false, 0, 0x6dbac5cafb951bbe),
    ("f15/prepared/crashtuner-meta-exc", 600, false, 0, 0x5fb1eb7ac43eba87),
    ("f15/prepared/stacktrace", 1, true, 0, 0xf82456e459a3d533),
    ("f15/prepared/sum-aggregate", 1, true, 0, 0x02916cad16dbc6b1),
    ("f15/prepared/order-distance", 1, true, 0, 0x06be24ba95ecf74b),
    ("f15/prepared/global-diff", 1, true, 0, 0x37db0fcfd972bf07),
    ("f16/prepared/exhaustive", 1, true, 0, 0x99a683d2bd013f3d),
    ("f16/prepared/site-distance", 2, true, 0, 0xb2cfdc14c1831f28),
    ("f16/prepared/site-distance-limit3", 2, true, 0, 0xb2cfdc14c1831f28),
    ("f16/prepared/site-feedback", 2, true, 0, 0x71dc62dff887f322),
    ("f16/prepared/multiply", 1, true, 0, 0x13b7d24468a6378e),
    ("f16/prepared/fate", 6, true, 0, 0x421daf7e493a1486),
    ("f16/prepared/crashtuner", 15, false, 0, 0xdca7ce1d9c91c166),
    ("f16/prepared/crashtuner-meta-exc", 4, true, 0, 0x22863988d94bbf1d),
    ("f16/prepared/stacktrace", 1, true, 0, 0xd5d1922675683b3a),
    ("f16/prepared/sum-aggregate", 1, true, 0, 0xae8251a68ba65fe5),
    ("f16/prepared/order-distance", 2, true, 0, 0x71dc62dff887f322),
    ("f16/prepared/global-diff", 1, true, 0, 0x13b7d24468a6378e),
    ("f17/prepared/exhaustive", 63, true, 0, 0x9a73659078415902),
    ("f17/prepared/site-distance", 26, true, 0, 0xb81f1ad1e1f46627),
    ("f17/prepared/site-distance-limit3", 600, false, 0, 0x9cdeae91632a896e),
    ("f17/prepared/site-feedback", 600, false, 0, 0x5a1271fa4a79eb88),
    ("f17/prepared/multiply", 12, true, 0, 0xb9d6da0e0e3b09da),
    ("f17/prepared/fate", 50, true, 0, 0x7342ac26dca249b4),
    ("f17/prepared/crashtuner", 15, false, 0, 0x8b8a5bad4f4f826c),
    ("f17/prepared/crashtuner-meta-exc", 600, false, 0, 0x49c2a92af2af9f67),
    ("f17/prepared/stacktrace", 7, true, 0, 0xb35ad99a9b768679),
    ("f17/prepared/sum-aggregate", 12, true, 0, 0x0fe13a3d0e0317ab),
    ("f17/prepared/order-distance", 26, true, 0, 0xe3e56d3d20feda21),
    ("f17/prepared/global-diff", 12, true, 0, 0x032ed8925468d771),
    ("f18/prepared/exhaustive", 4, true, 0, 0x692d1048347d0454),
    ("f18/prepared/site-distance", 4, true, 0, 0xbfaa699d864b203a),
    ("f18/prepared/site-distance-limit3", 4, true, 0, 0xbfaa699d864b203a),
    ("f18/prepared/site-feedback", 4, true, 0, 0xa9055bdd29f44d21),
    ("f18/prepared/multiply", 3, true, 0, 0x65925b7626340786),
    ("f18/prepared/fate", 6, true, 0, 0x810a1a519e1dc28b),
    ("f18/prepared/crashtuner", 15, false, 0, 0x9290feb6361ea268),
    ("f18/prepared/crashtuner-meta-exc", 0, false, 0, 0x6e706f876c66ffc1),
    ("f18/prepared/stacktrace", 3, true, 0, 0xb88668ce12471ebf),
    ("f18/prepared/sum-aggregate", 3, true, 0, 0x65925b7626340786),
    ("f18/prepared/order-distance", 4, true, 0, 0xa9055bdd29f44d21),
    ("f18/prepared/global-diff", 3, true, 0, 0x65925b7626340786),
    ("f19/prepared/exhaustive", 1, true, 0, 0x3eef9654b4853d65),
    ("f19/prepared/site-distance", 1, true, 0, 0x3baded61633949b2),
    ("f19/prepared/site-distance-limit3", 1, true, 0, 0x3baded61633949b2),
    ("f19/prepared/site-feedback", 1, true, 0, 0x3baded61633949b2),
    ("f19/prepared/multiply", 2, true, 0, 0x03ad507b5bf29312),
    ("f19/prepared/fate", 1, true, 0, 0xbced59b0b66f2e01),
    ("f19/prepared/crashtuner", 15, false, 0, 0xb1a4ab0e0b6c3af4),
    ("f19/prepared/crashtuner-meta-exc", 0, false, 0, 0x6e706f876c66ffc1),
    ("f19/prepared/stacktrace", 1, true, 0, 0xcf58dca3292cead5),
    ("f19/prepared/sum-aggregate", 2, true, 0, 0x4701384867ea6bd6),
    ("f19/prepared/order-distance", 1, true, 0, 0x3baded61633949b2),
    ("f19/prepared/global-diff", 2, true, 0, 0x03ad507b5bf29312),
    ("f20/prepared/exhaustive", 16, true, 0, 0x43ceddf81e6c1df8),
    ("f20/prepared/site-distance", 16, true, 0, 0x9cdba0cff64c2443),
    ("f20/prepared/site-distance-limit3", 600, false, 0, 0x3227102190820010),
    ("f20/prepared/site-feedback", 600, false, 0, 0x1bbeb8e7f015b0d2),
    ("f20/prepared/multiply", 9, true, 0, 0x4b462a7e2ee28574),
    ("f20/prepared/fate", 36, true, 0, 0xa61861ae623ef033),
    ("f20/prepared/crashtuner", 15, false, 0, 0xae7dab34b69b928e),
    ("f20/prepared/crashtuner-meta-exc", 0, false, 0, 0x6e706f876c66ffc1),
    ("f20/prepared/stacktrace", 12, true, 0, 0x52a5a17bae42d218),
    ("f20/prepared/sum-aggregate", 9, true, 0, 0x829dfc8b617cf97a),
    ("f20/prepared/order-distance", 16, true, 0, 0xdaf5d49523a275ac),
    ("f20/prepared/global-diff", 9, true, 0, 0x53598dcaf67e35bb),
    ("f21/prepared/exhaustive", 2, true, 0, 0x4c7601f396072867),
    ("f21/prepared/site-distance", 2, true, 0, 0x7eac6bc71514e8d8),
    ("f21/prepared/site-distance-limit3", 2, true, 0, 0x7eac6bc71514e8d8),
    ("f21/prepared/site-feedback", 2, true, 0, 0x0aff362ddd3c3108),
    ("f21/prepared/multiply", 2, true, 0, 0x74f86fe42b739c16),
    ("f21/prepared/fate", 4, true, 0, 0x3a1c89634032e40b),
    ("f21/prepared/crashtuner", 3, false, 0, 0x7ad7f419d85d4cb7),
    ("f21/prepared/crashtuner-meta-exc", 4, true, 0, 0x3a1c89634032e40b),
    ("f21/prepared/stacktrace", 2, true, 0, 0x788c0f492073ccd6),
    ("f21/prepared/sum-aggregate", 2, true, 0, 0x56857eefb7c87a51),
    ("f21/prepared/order-distance", 2, true, 0, 0x0aff362ddd3c3108),
    ("f21/prepared/global-diff", 2, true, 0, 0x74f86fe42b739c16),
    ("f22/prepared/exhaustive", 5, true, 0, 0x84858d4f1adfd59a),
    ("f22/prepared/site-distance", 2, true, 0, 0x5b14486b72f171ae),
    ("f22/prepared/site-distance-limit3", 2, true, 0, 0x5b14486b72f171ae),
    ("f22/prepared/site-feedback", 2, true, 0, 0x9cfba6a9ba7e42ea),
    ("f22/prepared/multiply", 1, true, 0, 0xee900f1eda72338d),
    ("f22/prepared/fate", 5, true, 0, 0x5441151a1fca5fea),
    ("f22/prepared/crashtuner", 2, true, 0, 0x89f8ccc06f41863e),
    ("f22/prepared/crashtuner-meta-exc", 5, true, 0, 0x5441151a1fca5fea),
    ("f22/prepared/stacktrace", 1, true, 0, 0x564d7488daaacd02),
    ("f22/prepared/sum-aggregate", 1, true, 0, 0xee900f1eda72338d),
    ("f22/prepared/order-distance", 2, true, 0, 0x9cfba6a9ba7e42ea),
    ("f22/prepared/global-diff", 1, true, 0, 0xee900f1eda72338d),
];

#[rustfmt::skip]
const BATCHED: [Row; 4] = [
    ("f5/degraded/full-adaptive/batched", 82, true, 5, 0x501283343d8260e8),
    ("f11/degraded/full-adaptive/batched", 42, true, 7, 0xdcc320fae29ca001),
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

/// The registry's other twelve strategies, each on every case's prepared
/// context (one preparation per case, shared by its twelve searches).
#[test]
fn every_registry_strategy_on_prepared_contexts_is_pinned() {
    let mut rows = Vec::new();
    for case in all_cases() {
        let (ctx, oracle) = prepared(case.id);
        for (cli, _, _) in &REGISTRY {
            if !matches!(*cli, "full" | "full-adaptive") {
                let key = format!("{}/prepared/{cli}", case.id);
                rows.push(search(key, &ctx, &oracle, cli, None).0);
            }
        }
    }
    check("REGISTRY_ROWS", &rows, &REGISTRY_ROWS);
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
    // Only the trusted model promotes, never the batch engine's copy, so
    // a batched search is the sequential one, promotions and all.
    for (key, rounds, ok, promos, digest) in BATCHED {
        let (_, seq_rounds, seq_ok, seq_promos, seq_digest) = row(key.trim_end_matches("/batched"));
        assert_eq!(
            (rounds, ok, promos, digest),
            (seq_rounds, seq_ok, seq_promos, seq_digest),
            "{key}: the batched search differs from the sequential one"
        );
    }
}

/// The pinned row under `key`, from whichever table holds it.
fn row(key: &str) -> Row {
    PREPARED
        .iter()
        .chain(&DEGRADED)
        .chain(&REGISTRY_ROWS)
        .find(|r| r.0 == key)
        .copied()
        .unwrap_or_else(|| panic!("no row {key}"))
}

#[test]
fn full_feedback_rounds_per_ticket_are_pinned() {
    let full: Vec<Row> = PREPARED
        .into_iter()
        .filter(|r| r.0.ends_with("/full"))
        .collect();
    assert_eq!(full.len(), 22);
    for (key, _, ok, _, _) in &full {
        assert!(ok, "{key}: reproduced");
    }
    assert_eq!(full.iter().map(|r| r.1).sum::<usize>(), 88);
}

/// Adaptation's bars, over every `full` / `full-adaptive` pair on both
/// inputs: it never takes more than 1.05× the fixed search's rounds, never
/// loses a case the fixed search reproduces, and reproduces at least two
/// degraded cases the fixed search leaves at the cap (f5, f11, f18 and
/// f22 today).
#[test]
fn adaptation_never_regresses_and_rescues_stalled_cases() {
    let mut rescued = Vec::new();
    for (key, rounds, ok, _, _) in PREPARED.iter().chain(&DEGRADED) {
        if !key.ends_with("/full") {
            continue;
        }
        let (adaptive, a_rounds, a_ok, _, _) = row(&format!("{key}-adaptive"));
        assert!(
            a_rounds * 100 <= rounds * 105,
            "{adaptive}: {a_rounds} rounds against {rounds}"
        );
        assert!(a_ok || !ok, "{adaptive}: lost a case `full` reproduces");
        if *rounds == CAP && !ok && a_ok {
            rescued.push(adaptive);
        }
    }
    assert!(rescued.len() >= 2, "rescued only {rescued:?}");
}

/// `id`'s search under `strategy` on its prepared context, as a search
/// capped anywhere from 100 to 600 rounds ends: `(rounds, reproduced)`.
/// The cap only bounds the round loop, so a row that ends before round
/// 100 ends there under any such cap, and a search that fails at 600
/// fails at a lower cap too: the facts below hold at any cap from 100 to
/// 600.
fn capped(id: &str, strategy: &str) -> (usize, bool) {
    let (key, rounds, ok, _, _) = row(&format!("{id}/prepared/{strategy}"));
    assert!(
        rounds < 100 || (rounds == CAP && !ok),
        "{key}: {rounds} rounds depend on the cap"
    );
    (rounds, ok)
}

/// Rounds over `ids`, a search that does not reproduce counted at the cap.
fn total(ids: &[&str], strategy: &str) -> usize {
    ids.iter()
        .map(|id| match capped(id, strategy) {
            (rounds, true) => rounds,
            (_, false) => CAP,
        })
        .sum()
}

#[test]
fn feedback_beats_exhaustive_in_aggregate() {
    // As in the paper's Table 2, individual cases can go either way; the
    // aggregate over the timing-sensitive cases must favour feedback
    // (25 rounds against 85).
    let ids = ["f1", "f16", "f17", "f20"];
    for id in ids {
        assert!(capped(id, "full").1, "{id} full");
    }
    let (full, exhaustive) = (total(&ids, "full"), total(&ids, "exhaustive"));
    assert!(
        full <= exhaustive,
        "aggregate: full {full} > exhaustive {exhaustive}"
    );
}

#[test]
fn ablation_variants_all_run_and_mostly_reproduce() {
    // On an easy case every variant reproduces.
    for name in [
        "full",
        "exhaustive",
        "site-distance",
        "site-distance-limit3",
        "site-feedback",
        "multiply",
    ] {
        assert!(capped("f5", name).1, "{name} fails on the easy case f5");
    }
}

#[test]
fn stacktrace_injector_wins_when_root_cause_is_logged() {
    // f18's failure log contains the root-cause throwable with its stack:
    // the stacktrace-injector gets it almost immediately (the paper's
    // KA-12508 round-1 narrative).
    let (rounds, ok) = capped("f18", "stacktrace");
    assert!(ok);
    assert!(rounds <= 3, "took {rounds} rounds");
}

#[test]
fn stacktrace_injector_fails_when_root_cause_is_not_logged() {
    // f13's procedure-store failure is logged *without* the throwable (as
    // real catch blocks often do), so the injector's only stacked targets
    // are noise sites — it cannot reproduce the failure.
    let (rounds, ok) = capped("f13", "stacktrace");
    assert!(!ok, "unexpectedly reproduced in {rounds} rounds");
}

#[test]
fn fate_loses_in_aggregate() {
    // 17 rounds against 94.
    let ids = ["f1", "f13", "f16", "f17"];
    for id in ids {
        assert!(capped(id, "full").1, "{id} full");
    }
    let (full, fate) = (total(&ids, "full"), total(&ids, "fate"));
    assert!(full < fate, "aggregate: full {full} >= fate {fate}");
}

#[test]
fn crashtuner_cannot_reproduce_exception_induced_failures() {
    // The faithful CrashTuner injects crashes only; our oracles demand
    // exception-specific behaviour, so it reproduces none of these —
    // the paper's qualitative point (4 of 22 at best).
    for id in ["f5", "f13", "f18"] {
        assert!(
            !capped(id, "crashtuner").1,
            "{id}: crash injection satisfied the oracle"
        );
    }
}

#[test]
fn crashtuner_meta_exception_adaptation_can_reproduce_meta_adjacent_cases() {
    // The adapted heuristic covers cases whose fault sites live near
    // meta-info state: of these three it reproduces f16, in 4 rounds.
    let any = ["f10", "f16", "f1"]
        .iter()
        .any(|id| capped(id, "crashtuner-meta-exc").1);
    assert!(any, "the meta-exception adaptation reproduces something");
}
