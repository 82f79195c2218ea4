//! What one simulation run produces, pinned exactly: the 22 tickets and the
//! three scaled configurations `e2e`'s `scaled-*` workloads search, each
//! fault-free and under the ground-truth plan, at seed 1000.
//!
//! `differential_engines` compares the VM with the tree-walk oracle, but
//! both run on the same scheduler (`world.rs`): a slip in slice accounting,
//! tick/step parity or event order shifts both engines alike and passes
//! there. It cannot pass here. A simulator speed-up leaves every row
//! unchanged; a PR that moves one changed what a run *is*, and says why.

use anduril::failures::{all_cases, case_by_id, FailureCase};
use anduril::sim::{InjectionPlan, RunResult};

const SEED: u64 = 1000;

/// `(case, steps, end_time, log.len(), trace.len(), injection_requests,
/// FNV-1a of the rendered log)`, fault-free then ground truth.
type Row = (&'static str, u64, u64, usize, usize, u64, u64);

const GOLDEN: [[Row; 2]; 25] = [
    [
        ("f1", 1436, 3235, 60, 98, 98, 0xdd510e4ae19a3a7e),
        ("f1", 964, 7659, 56, 60, 60, 0x4d137cc523a0955b),
    ],
    [
        ("f2", 1385, 3232, 54, 98, 98, 0x165e8c25e60c229a),
        ("f2", 1086, 3234, 44, 87, 87, 0x1808a10d26e43851),
    ],
    [
        ("f3", 789, 3231, 27, 74, 74, 0xa5863377a6491306),
        ("f3", 702, 2528, 33, 61, 61, 0x5b29eff8e3333e03),
    ],
    [
        ("f4", 1174, 3231, 45, 90, 90, 0x6d9ab8d745421559),
        ("f4", 973, 5958, 51, 76, 76, 0xdff7a506052063c1),
    ],
    [
        ("f5", 1457, 2658, 36, 114, 114, 0x490a5defb146560c),
        ("f5", 1457, 2658, 36, 114, 114, 0x39238f7918005db4),
    ],
    [
        ("f6", 1237, 2438, 45, 96, 96, 0x9fa5f95deabdd589),
        ("f6", 1206, 2437, 40, 94, 94, 0x61d3216af3a83164),
    ],
    [
        ("f7", 1637, 2729, 38, 130, 130, 0x3bb12189e943d0d2),
        ("f7", 1634, 2729, 38, 129, 129, 0x0cdbfc420dfb187f),
    ],
    [
        ("f8", 1648, 2708, 42, 129, 129, 0xfd55dd916354b18c),
        ("f8", 1601, 2633, 38, 121, 121, 0xc42c6a6c01379a54),
    ],
    [
        ("f9", 793, 1538, 21, 52, 52, 0x284826d039c4c38f),
        ("f9", 909, 1821, 28, 56, 56, 0x52f7fecd9f1363ff),
    ],
    [
        ("f10", 1209, 2251, 28, 94, 94, 0x10ceebeef2655673),
        ("f10", 823, 7997, 41, 43, 43, 0x9b9664c46224be8a),
    ],
    [
        ("f11", 1042, 2139, 32, 83, 83, 0xf2917e924f8e02fb),
        ("f11", 1029, 2113, 28, 83, 83, 0x431c3f719d3d88a2),
    ],
    [
        ("f12", 2958, 3576, 47, 106, 106, 0xa522f1aeba781776),
        ("f12", 3272, 3992, 106, 105, 105, 0xd24c110957cdb3e5),
    ],
    [
        ("f13", 679, 1710, 21, 53, 53, 0xb03af9940c40f8c0),
        ("f13", 647, 1680, 19, 49, 49, 0x9df82a5af78ef0b2),
    ],
    [
        ("f14", 613, 1532, 13, 51, 51, 0x09ec8faf01ecd357),
        ("f14", 618, 1532, 15, 51, 51, 0xa1bc34b6e28705f1),
    ],
    [
        ("f15", 716, 2140, 19, 51, 51, 0xdc96843a53ef9cf7),
        ("f15", 739, 2148, 22, 52, 52, 0x7d35f3429b945271),
    ],
    [
        ("f16", 1260, 2264, 47, 102, 102, 0x5c8d58f4f1b6e4b5),
        ("f16", 859, 2423, 28, 53, 53, 0xfc69c502a6d8f1d7),
    ],
    [
        ("f17", 4443, 2477, 49, 144, 144, 0x065e2ec50f2f6874),
        ("f17", 3440, 11882, 54, 65, 65, 0x8728bb64b9966b62),
    ],
    [
        ("f18", 467, 931, 12, 26, 26, 0xaec62333ae3f1818),
        ("f18", 467, 931, 12, 26, 26, 0xf9375a6e824a8a70),
    ],
    [
        ("f19", 394, 1829, 14, 25, 25, 0x992716aeaa38b64a),
        ("f19", 1420, 17921, 19, 23, 23, 0x83eb2b47475a079a),
    ],
    [
        ("f20", 582, 1203, 20, 37, 37, 0x5cdb2ccde6b61837),
        ("f20", 582, 1203, 20, 37, 37, 0x49c3369020b6ad8c),
    ],
    [
        ("f21", 1011, 1690, 27, 77, 77, 0x009bcb1b4f7a1cc4),
        ("f21", 881, 1614, 24, 57, 57, 0x4bea1084fc1c5bad),
    ],
    [
        ("f22", 673, 1378, 19, 52, 52, 0xfe5e239831221bde),
        ("f22", 653, 1384, 17, 50, 50, 0xea57dc493eb971ec),
    ],
    [
        ("f17@300", 19165, 13293, 187, 505, 505, 0x29d8693d5424eac2),
        ("f17@300", 14367, 89890, 252, 65, 65, 0xddce29e4f33aac23),
    ],
    [
        ("f1@150", 8705, 10494, 371, 374, 374, 0x30adc38acbf116e0),
        ("f1@150", 3287, 89770, 285, 60, 60, 0x8aeed8cac02482cd),
    ],
    [
        ("f16@60", 2116, 3169, 94, 198, 198, 0x7528f64cbc7a6f00),
        ("f16@60", 859, 2423, 28, 53, 53, 0xfc69c502a6d8f1d7),
    ],
];

/// `e2e`'s `scaled_case`: the client makes more requests (f17's region
/// server gets the matching arguments) within a horizon of 90 000.
fn scaled(id: &str, args: &[(&str, &[i64])]) -> FailureCase {
    case_by_id(id)
        .expect("case")
        .with_workload(args, Some(90_000))
        .expect("workload nodes")
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(name: &'static str, r: &RunResult) -> Row {
    (
        name,
        r.steps,
        r.end_time,
        r.log.len(),
        r.trace.len(),
        r.injection_requests,
        fnv1a(&r.log_text()),
    )
}

#[test]
fn runs_at_seed_1000_are_pinned() {
    let mut cases: Vec<(&'static str, FailureCase)> =
        all_cases().into_iter().map(|c| (c.id, c)).collect();
    let f17: &[(&str, &[i64])] = &[("client", &[300]), ("rs1", &[40, 0, 1_500])];
    cases.push(("f17@300", scaled("f17", f17)));
    cases.push(("f1@150", scaled("f1", &[("client", &[150])])));
    cases.push(("f16@60", scaled("f16", &[("client", &[60])])));

    let actual: Vec<[Row; 2]> = cases
        .iter()
        .map(|(name, case)| {
            let gt = case.ground_truth().expect("ground truth");
            let run = |plan| case.scenario.run(SEED, plan).expect("run");
            [
                row(name, &run(InjectionPlan::none())),
                row(
                    name,
                    &run(InjectionPlan::exact(gt.site, gt.occurrence, gt.exc)),
                ),
            ]
        })
        .collect();

    if actual != GOLDEN {
        // The table in source form, so a deliberate move is one paste.
        for [clean, faulty] in &actual {
            println!("    [");
            for (name, steps, end, log, trace, requests, digest) in [clean, faulty] {
                println!(
                    "        ({name:?}, {steps}, {end}, {log}, {trace}, {requests}, {digest:#018x}),"
                );
            }
            println!("    ],");
        }
    }
    assert_eq!(actual, GOLDEN, "a simulation run moved");
}
