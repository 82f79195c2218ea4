//! What static analysis computes for a program, pinned exactly: the 22
//! tickets and `e2e --smoke`'s generated corpus (6 small, 3 medium, 1
//! large), each prepared at seed 1000.
//!
//! The causal graph, the distance tables, the occurrence bounds and the
//! exception summaries are functions of the program (and, for the graph's
//! sinks, of the failure log's observables), not of how they were computed.
//! A speed-up of `anduril-causal` leaves every row unchanged. Node ids are
//! part of the digest on purpose: adaptive promotion breaks ties on them, so
//! an interning order that moved would move a search.

use std::fmt::Write as _;

use anduril::causal::{analyze, OccurrenceBounds};
use anduril::failures::all_cases;
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::ir::FuncId;
use anduril::{Scenario, SearchContext};

const SEED: u64 = 1000;

/// `(graph nodes, graph edges, units, FNV-1a of the graph, of the sources
/// and distance tables, of the occurrence bounds, of the exception
/// summaries)`.
type Row = (usize, usize, usize, u64, u64, u64, u64);

// One row a program: `rustfmt` would spread each over ten lines.
#[rustfmt::skip]
const GOLDEN: [(&str, Row); 32] = [
    ("f1", (123, 203, 4, 0x0239b67ff133ee37, 0xdcf21eb9d598c2d4, 0xb8340ba12ffe7c84, 0x68d9e0608fc1c75f)),
    ("f2", (121, 208, 7, 0xf079da6856718997, 0xd5772a42c001e3f5, 0x4f587ae21384f0cc, 0x68d9e0608fc1c75f)),
    ("f3", (55, 82, 3, 0xdbc18604ae9f3d17, 0x386999f66f2708e8, 0xc72fb9d4b5152b9c, 0x68d9e0608fc1c75f)),
    ("f4", (154, 257, 9, 0x0693de418b85f65f, 0x892c5cc3a73edaa2, 0x511c3a22905fb80a, 0x68d9e0608fc1c75f)),
    ("f5", (204, 432, 10, 0xc006eeeef3c1a0f6, 0x55d974f62b05c628, 0x30fc3a149d225676, 0x8362d64f09ece9bc)),
    ("f6", (179, 387, 11, 0xf169b911c38b3b72, 0x64bf84d60f9954ad, 0x8c1f9e3d15125fdb, 0x8362d64f09ece9bc)),
    ("f7", (215, 453, 10, 0x0e2a98f4cd103246, 0xfc9d1a66bae2ecf0, 0x5d82413900033e27, 0x8362d64f09ece9bc)),
    ("f8", (198, 420, 9, 0x33f7ad3d10d1385f, 0x4e7fc2455a747543, 0x56059e8cf4f8593b, 0x8362d64f09ece9bc)),
    ("f9", (195, 434, 9, 0x7b2aa39b4d943236, 0x80a16446f43e54ac, 0x0abe45b92a244632, 0x8362d64f09ece9bc)),
    ("f10", (183, 396, 8, 0x2a86277a6a7e480a, 0xb06919308d0a942b, 0x84f12629261025d6, 0x8362d64f09ece9bc)),
    ("f11", (196, 419, 9, 0xe9ba0bd0926164b8, 0x0095cd4a16a8a25d, 0xb5c8e8d120a14f1e, 0x8362d64f09ece9bc)),
    ("f12", (155, 303, 7, 0xbfd568adae5aaf4b, 0x025f839b55f30f2d, 0xef265fd5f2005ddf, 0x32a9206eb3f1a137)),
    ("f13", (122, 276, 2, 0xb410da5886d265f9, 0xab08c8ad7df1ec71, 0x6357aad165df8583, 0x32a9206eb3f1a137)),
    ("f14", (92, 184, 4, 0x9b416fe63fbe90dd, 0xf74cc6bbfb993a32, 0xee8ef50f18c25ebb, 0x32a9206eb3f1a137)),
    ("f15", (126, 316, 2, 0x8060eda02c9d211a, 0x58e3afd31b42136c, 0x6aa19ec17bab1043, 0x32a9206eb3f1a137)),
    ("f16", (121, 277, 4, 0xdd570ce8f222d367, 0x17cd44d6a4cc19f8, 0xdb189013c6c57dc5, 0x32a9206eb3f1a137)),
    ("f17", (144, 266, 6, 0xa4bced1c86e5225a, 0x4274294410bbb5ff, 0x44d28dcb4d45e7b3, 0x32a9206eb3f1a137)),
    ("f18", (41, 69, 2, 0xd4b21e404b566c9d, 0x63772aa45a1eae24, 0x0f8c01097eb1b9f3, 0x5c6e65f11e0357eb)),
    ("f19", (59, 97, 3, 0x666ebdc807721236, 0x182bcbeef48f966d, 0xca6309e34bac3473, 0x5c6e65f11e0357eb)),
    ("f20", (36, 55, 3, 0xe460939d5d461289, 0xb0545fc1fbe8afab, 0xacc17dd52a057e89, 0x5c6e65f11e0357eb)),
    ("f21", (65, 116, 2, 0x2e15def39b73c83e, 0x7a75c703c75888f5, 0xf80dff7a384b16ee, 0xc56193e43e2ef377)),
    ("f22", (80, 133, 5, 0x0749b848f5928252, 0x5f1fd8f1230cd076, 0x1750b39ea798e29a, 0xc56193e43e2ef377)),
    ("small-00", (104, 170, 1, 0x040b0b854368c05e, 0x9ff87c6d333e21bf, 0xaeffc7695d53027b, 0xa813a7e669cb01bf)),
    ("small-01", (84, 132, 1, 0xf9d6cc64d545ce37, 0xcd9e5bd13b4e6d16, 0xe135bf2e1e269bd8, 0xd97f08477626cbce)),
    ("small-02", (82, 130, 1, 0x7089923d2b66dfdb, 0x869e509f6af4029f, 0x4f79ee5c41cc4218, 0x780e2fd61269b2bb)),
    ("small-03", (115, 175, 1, 0x9cc35f2534cb6f2e, 0x94b9968110c9d823, 0x01402def5b78a8d7, 0xa813a7e669cb01bf)),
    ("small-04", (113, 180, 1, 0x37afceb1dee4835c, 0x3d6f77e948b20b20, 0x0250222113313d18, 0xa813a7e669cb01bf)),
    ("small-05", (104, 166, 1, 0x67eb771a56016c55, 0xe9fa11062fe71c61, 0xa8c8d7b209c44456, 0xa813a7e669cb01bf)),
    ("medium-00", (212, 327, 1, 0x52f0a1bf740ca0db, 0xa622f3c49f05f2d5, 0x9d59a517eb4d5308, 0xffe0f0226e29552a)),
    ("medium-01", (208, 312, 1, 0xa49f1877279fe0a2, 0x5c2b86f27a1c2690, 0x427a05a69804c12f, 0x9ab11a47639ca8ad)),
    ("medium-02", (163, 250, 1, 0x027d234c46e9b5cd, 0xe8b5ad561945268f, 0xdcf5b86c57111d8d, 0x5bd1d983584a2f4c)),
    ("large-00", (572, 851, 1, 0x3971acae100566b8, 0xf92a83a6cecf2363, 0xc2063062b9d8e98f, 0x16de5ef6bdef3290)),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(name: &str, scenario: &Scenario, failure_log: &str) -> Row {
    let ctx = SearchContext::prepare(scenario.clone(), failure_log, SEED).expect("context");
    let program = &ctx.scenario.program;

    // (a) Nodes in id order, each with its priors.
    let mut graph = String::new();
    for (id, key) in ctx.graph.nodes.iter().enumerate() {
        writeln!(graph, "{id} {key:?} <- {:?}", ctx.graph.priors(id as u32)).unwrap();
    }
    writeln!(graph, "sinks {:?}", ctx.graph.sinks).unwrap();

    // (b) Sources, then every observable's distance table sorted by site.
    let mut dist = format!("sources {:?}\n", ctx.graph.sources());
    for (k, table) in ctx.distances.iter().enumerate() {
        let mut sorted: Vec<_> = table.iter().map(|(s, d)| (s.0, *d)).collect();
        sorted.sort_unstable();
        writeln!(dist, "{k} t{} {sorted:?}", ctx.observables[k].template.0).unwrap();
        assert_eq!(*table, ctx.graph.distances(k), "{name}: observable {k}");
    }

    // (c) Every site's `[lo, hi]` and every function's invocation interval.
    let occurrence = OccurrenceBounds::compute(program, &scenario.root_calls());
    let mut bounds = String::new();
    for (s, b) in occurrence.sites().iter().enumerate() {
        writeln!(bounds, "s{s} {b}").unwrap();
    }
    for f in 0..program.funcs.len() {
        let inv = occurrence.func_invocations(FuncId(f as u32));
        writeln!(bounds, "f{f} {inv}").unwrap();
    }

    // (d) Every function's escape set and escape points.
    let analysis = analyze(program);
    let mut exc = String::new();
    for f in 0..program.funcs.len() {
        let types: Vec<_> = analysis.escapes[f].iter().map(|t| t.name()).collect();
        writeln!(exc, "f{f} {types:?}").unwrap();
        for p in &analysis.escape_points[f] {
            writeln!(exc, "  {} {} {:?}", p.stmt, p.ty.name(), p.kind).unwrap();
        }
    }

    (
        ctx.graph.node_count(),
        ctx.graph.edge_count(),
        ctx.units.len(),
        fnv1a(&graph),
        fnv1a(&dist),
        fnv1a(&bounds),
        fnv1a(&exc),
    )
}

#[test]
fn static_analysis_at_seed_1000_is_pinned() {
    let mut actual: Vec<(String, Row)> = Vec::new();
    for case in all_cases() {
        let log = case.failure_log().expect("failure log");
        actual.push((case.id.to_string(), row(case.id, &case.scenario, &log)));
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
            let name = format!("{size}-{index:02}");
            let row = row(&name, &gc.case.scenario, &gc.failure_log);
            actual.push((name, row));
        }
    }

    let golden: Vec<(String, Row)> = GOLDEN
        .iter()
        .map(|&(name, row)| (name.to_string(), row))
        .collect();
    if actual != golden {
        // The table in source form, so a deliberate move is one paste.
        for (name, (nodes, edges, units, graph, dist, bounds, exc)) in &actual {
            println!(
                "    ({name:?}, ({nodes}, {edges}, {units}, {graph:#018x}, {dist:#018x}, \
                 {bounds:#018x}, {exc:#018x})),"
            );
        }
    }
    assert_eq!(actual, golden, "a static analysis result moved");
}
