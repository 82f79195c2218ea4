//! Table 4: per-system Explorer performance — median injection requests
//! per run, how many of them met an armed candidate, decision latency per
//! armed request (the only ones that decide anything, and the only ones
//! timed), round initialization time, and workload time.

use anduril_bench::{median, prepare, run_strategy, timer_floor_note, TextTable};
use anduril_core::{FeedbackConfig, FeedbackStrategy};
use anduril_failures::all_cases;
use std::collections::BTreeMap;

/// Per-system accumulators: injection requests, armed requests, decision
/// latencies, round init times, workload times.
type SystemStats = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>);

fn main() {
    let mut rows: BTreeMap<&'static str, SystemStats> = BTreeMap::new();
    for case in all_cases() {
        let p = prepare(case);
        let mut s = FeedbackStrategy::new(FeedbackConfig::full());
        let r = run_strategy(&p, &mut s, 400);
        let rounds = r.per_round.len().max(1) as u64;
        let entry = rows.entry(p.case.system).or_default();
        entry.0.push(r.injection_requests / rounds);
        entry.1.push(r.armed_requests / rounds);
        entry
            .2
            .push(r.decision_ns.checked_div(r.armed_requests).unwrap_or(0));
        let mut inits: Vec<u64> = r.per_round.iter().map(|x| x.init_ns).collect();
        entry.3.push(median(&mut inits));
        let mut works: Vec<u64> = r.per_round.iter().map(|x| x.workload_ns).collect();
        entry.4.push(median(&mut works));
    }
    let mut t = TextTable::new(&[
        "System",
        "Inject. req./run",
        "Armed req./run",
        "Decision latency/armed req.",
        "Round init",
        "Workload",
    ]);
    for (system, (mut reqs, mut armed, mut lats, mut inits, mut works)) in rows {
        t.row(vec![
            system.to_string(),
            median(&mut reqs).to_string(),
            median(&mut armed).to_string(),
            format!("{} ns", median(&mut lats)),
            format!("{:.2} ms", median(&mut inits) as f64 / 1e6),
            format!("{:.2} ms", median(&mut works) as f64 / 1e6),
        ]);
    }
    println!("Table 4: Explorer performance (medians over each system's failures)\n");
    println!("{}", t.render());
    println!("{}", timer_floor_note());
}
