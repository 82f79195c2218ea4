//! Table 8: per-failure Explorer runtime details. Decision latency is per
//! armed request: a request that meets no armed candidate decides nothing
//! and is not timed.

use anduril_bench::{median, prepare, run_strategy, timer_floor_note, TextTable};
use anduril_core::{FeedbackConfig, FeedbackStrategy};
use anduril_failures::all_cases;

fn main() {
    let mut t = TextTable::new(&[
        "Failure",
        "Inject. req.",
        "Armed req.",
        "Decision latency/armed req.",
        "Round init",
        "Workload",
    ]);
    for case in all_cases() {
        let p = prepare(case);
        let mut s = FeedbackStrategy::new(FeedbackConfig::full());
        let r = run_strategy(&p, &mut s, 400);
        let mut inits: Vec<u64> = r.per_round.iter().map(|x| x.init_ns).collect();
        let mut works: Vec<u64> = r.per_round.iter().map(|x| x.workload_ns).collect();
        t.row(vec![
            format!("{} ({})", p.case.ticket, p.case.id),
            r.injection_requests.to_string(),
            r.armed_requests.to_string(),
            format!(
                "{} ns",
                r.decision_ns.checked_div(r.armed_requests).unwrap_or(0)
            ),
            format!("{:.2} ms", median(&mut inits) as f64 / 1e6),
            format!("{:.2} ms", median(&mut works) as f64 / 1e6),
        ]);
    }
    println!("Table 8: per-failure Explorer runtime details (full feedback)\n");
    println!("{}", t.render());
    println!("{}", timer_floor_note());
}
