//! `e2e`: the end-to-end benchmark of failure reproduction.
//!
//! One operation is what a user does: hand the tool a failure log and get
//! a reproduction script back (`SearchContext::prepare`, then `explore`).
//! A run reproduces a workload's failures under many search seeds, checks
//! every script, and reports what the user would see — time, rounds,
//! simulated time, memory — or, with `--trace 1`, where each layer's time
//! went. See `README.md` beside this file.

mod calibrate;
mod check;
mod json;
mod measure;
mod metrics;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use anduril_core::Json;

use json::J;
use workloads::{Spec, NOMINAL_SECONDS, SMOKE_REPETITIONS, SPECS};

/// A run is flagged `noisy` when its even and its odd repetitions, each
/// reduced to a `campaign_wall_s` of its own, differ by more than this
/// share: re-run it rather than trust it.
const NOISY_ABOVE: f64 = 0.10;

/// Yardstick kernel calls on each side of a timed set-up.
const SETUP_YARDSTICK_CALLS: usize = 8;

const USAGE: &str = "usage:
  e2e --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE] [--spans FILE]
  e2e --all [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
  e2e --check A.json B.json
workloads: tickets22 scaled-seq scaled-batch gen-corpus (--traced is --trace 1)";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<String>,
    spans: Option<String>,
    check: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1_000,
        seconds: NOMINAL_SECONDS,
        traced: false,
        smoke: false,
        out: None,
        spans: None,
        check: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--check" => args.check = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Search seeds stay below 2^40 (see `campaign_seed`), so the first one
    // must too.
    if args.seed >= 1 << 40 {
        return Err("--seed must be below 2^40".into());
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).ok_or_else(|| format!("{path}: not JSON"))
}

fn metric(value: f64, unit: &str) -> J {
    J::obj(vec![("value", J::Num(value)), ("unit", J::str(unit))])
}

/// Builds a workload's inputs and times it, as often as it is asked to.
struct Setup<'a> {
    spec: &'a Spec,
    smoke: bool,
    yardstick: calibrate::Yardstick,
    /// Seconds per build: as measured, and divided by the machine's
    /// slowdown at the time.
    measured_s: Vec<f64>,
    calibrated_s: Vec<f64>,
}

impl Setup<'_> {
    fn build(&mut self) -> Result<(Vec<workloads::Op>, workloads::SetupStats), String> {
        let mut kernel_s = Vec::new();
        self.yardstick.sample(SETUP_YARDSTICK_CALLS, &mut kernel_s);
        let started = Instant::now();
        let built = workloads::build_ops(self.spec, self.smoke);
        let elapsed = started.elapsed().as_secs_f64();
        self.yardstick.sample(SETUP_YARDSTICK_CALLS, &mut kernel_s);
        self.measured_s.push(elapsed);
        self.calibrated_s
            .push(elapsed / calibrate::slowdown(&kernel_s));
        built
    }
}

/// What either kind of run hands to the report.
struct Measured {
    fields: Vec<(&'static str, J)>,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn quartile_fields(values: &[f64]) -> Vec<(&'static str, J)> {
    let quartiles = stats::quartiles(values);
    vec![
        ("samples", J::Int(values.len() as u64)),
        ("median", J::Num(stats::median(values))),
        ("q1", quartiles.map_or(J::Null, |q| J::Num(q.0))),
        ("q3", quartiles.map_or(J::Null, |q| J::Num(q.1))),
    ]
}

/// The end-to-end run, tracing off.
fn end_to_end(
    spec: &Spec,
    args: &Args,
    ops: &[workloads::Op],
    setup: &mut Setup,
) -> Result<Measured, String> {
    let campaigns = spec.campaigns_for(args.seconds, args.smoke);
    let repetitions = if args.smoke {
        SMOKE_REPETITIONS
    } else {
        spec.repetitions
    };
    // Set-up is timed again after every second repetition, so that its
    // samples see the same stretch of machine time as the campaigns.
    let mut rebuild_failed = None;
    let e = measure::run(ops, spec, args.seed, campaigns, repetitions, |rep| {
        if rep % 2 == 1 {
            rebuild_failed = setup.build().err();
        }
    });
    if let Some(why) = rebuild_failed {
        return Err(why);
    }

    let n = campaigns as f64;
    let rounds: Vec<f64> = e.campaign_rounds.iter().map(|&r| r as f64).collect();
    let ticks: Vec<f64> = e.campaign_ticks.iter().map(|&t| t as f64).collect();
    let wall = e.calibrated_wall_s(|_| true);
    let noise = {
        let even = stats::median(&e.calibrated_wall_s(|rep| rep % 2 == 0));
        let odd = stats::median(&e.calibrated_wall_s(|rep| rep % 2 == 1));
        (even - odd).abs() / even.min(odd)
    };
    let noisy = noise > NOISY_ABOVE;
    let high = stats::high_percentile(&wall);
    let slowdown: Vec<f64> = e.yardstick.iter().flatten().flatten().copied().collect();
    let rep_wall_s: Vec<f64> = e.campaign_wall_s.iter().map(|w| w.iter().sum()).collect();

    let mut campaign_wall = quartile_fields(&wall);
    campaign_wall.extend([
        (
            "high",
            high.map_or(J::Null, |(p, v)| {
                J::obj(vec![("percentile", J::Num(p)), ("wall_s", J::Num(v))])
            }),
        ),
        ("each_s", J::nums(&wall)),
        (
            "as_measured_median_of_fastest_s",
            J::Num(stats::median(&e.fastest_wall_s())),
        ),
    ]);
    let fields = vec![
        ("campaigns", J::Int(campaigns as u64)),
        ("repetitions", J::Int(repetitions as u64)),
        ("digest", J::str(format!("{:016x}", e.digest))),
        ("setup_s", J::nums(&setup.calibrated_s)),
        ("setup_as_measured_s", J::nums(&setup.measured_s)),
        ("repetition_wall_as_measured_s", J::nums(&rep_wall_s)),
        ("machine_slowdown", J::obj(quartile_fields(&slowdown))),
        ("noise_share", J::Num(noise)),
        ("noisy", J::Bool(noisy)),
        ("campaign_wall", J::obj(campaign_wall)),
        (
            "first_campaign",
            J::obj(vec![
                ("rounds_total", J::Int(e.campaign_rounds[0])),
                ("sim_ticks_total", J::Int(e.campaign_ticks[0])),
            ]),
        ),
        (
            "campaign_rounds",
            J::obj(vec![
                ("mean", J::Num(rounds.iter().sum::<f64>() / n)),
                ("each", J::nums(&rounds)),
            ]),
        ),
        (
            "per_operation",
            J::Arr(
                e.per_op
                    .iter()
                    .map(|o| {
                        J::obj(vec![
                            ("operation", J::str(o.name.clone())),
                            ("rounds_mean", J::Num(o.rounds as f64 / n)),
                            ("rounds_max", J::Int(o.rounds_max)),
                            ("wall_as_measured_mean_s", J::Num(o.wall_s / n)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    let quartiles = stats::quartiles(&wall);
    println!(
        "campaign_wall_s over {} campaigns: q1 {:.6} median {:.6} q3 {:.6}, {}",
        wall.len(),
        quartiles.map_or(f64::NAN, |q| q.0),
        stats::median(&wall),
        quartiles.map_or(f64::NAN, |q| q.1),
        match high {
            Some((p, v)) => format!("p{p} {v:.6}"),
            None => "too few for a percentile with 10 samples beyond it".into(),
        }
    );
    println!(
        "machine ran at {:.2}x its nominal time per unit of work (median); \
         as measured, the median campaign took {:.6} s at best",
        stats::median(&slowdown),
        stats::median(&e.fastest_wall_s()),
    );
    println!(
        "even and odd repetitions give a campaign_wall_s differing by {:.1}%{}",
        100.0 * noise,
        if noisy { " -- NOISY, re-run" } else { "" }
    );

    let peak_rss = measure::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(Measured {
        fields,
        values: BTreeMap::from([
            ("setup_s", stats::median(&setup.calibrated_s)),
            ("campaign_wall_s", stats::median(&wall)),
            ("rounds_total", stats::median(&rounds)),
            ("sim_ticks_total", stats::median(&ticks)),
            ("peak_rss_mb", peak_rss),
        ]),
        attempted: e.attempted,
        failed: e.failed,
        failures: e.failures,
    })
}

/// The traced run: per-layer numbers from the bench's replay of every
/// operation.
fn per_layer(
    spec: &Spec,
    args: &Args,
    ops: &[workloads::Op],
    setup: &workloads::SetupStats,
) -> Result<Measured, String> {
    // A traced operation costs about four untraced ones, and the untraced
    // run makes `repetitions` passes over its campaigns.
    let campaigns = match spec.campaigns_for(args.seconds, args.smoke) {
        campaigns if args.smoke => campaigns,
        campaigns => (campaigns * spec.repetitions / 4).max(1),
    };
    let t = traced::run(ops, spec, args.seed, campaigns);
    if let Some(path) = &args.spans {
        write_spans(path, &t.recorder.spans)?;
    }
    Ok(Measured {
        fields: vec![
            ("campaigns", J::Int(campaigns as u64)),
            ("spans", J::Int(t.recorder.spans.len() as u64)),
        ],
        values: traced::layer_values(&t, setup, spec.batched),
        attempted: t.attempted,
        failed: t.failed,
        failures: t.failures,
    })
}

/// Runs one workload in this process and prints its result; the last line
/// of standard output is the one-object summary the benchmark's driver
/// reads.
fn run_workload(spec: &Spec, args: &Args) -> Result<bool, String> {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = if spec.batched {
        measure::batch_threads()
    } else {
        1
    };
    let mut setup = Setup {
        spec,
        smoke: args.smoke,
        yardstick: calibrate::Yardstick::new(),
        measured_s: Vec::new(),
        calibrated_s: Vec::new(),
    };
    let (ops, setup_stats) = setup.build()?;

    let (measured, defs) = if args.traced {
        let measured = per_layer(spec, args, &ops, &setup_stats)?;
        (measured, &metrics::PER_LAYER[..])
    } else {
        let measured = end_to_end(spec, args, &ops, &mut setup)?;
        (measured, &metrics::END_TO_END[..])
    };

    let correct = measured.failed == 0;
    let mut reported = Vec::with_capacity(defs.len());
    for def in defs {
        let value = *measured
            .values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        println!("{:<32} {:>18.6} {}", def.name, value, def.unit);
        reported.push((def.name, metric(value, def.unit)));
    }
    for failure in &measured.failures {
        println!("FAILED {failure}");
    }
    let summary = vec![
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(measured.attempted)),
        ("failed", J::Int(measured.failed)),
        ("metrics", J::obj(reported)),
    ];
    if let Some(path) = &args.out {
        let mut fields: Vec<(&str, J)> = vec![
            ("schema", J::str("anduril-e2e/1")),
            ("workload", J::str(spec.name)),
            ("why", J::str(spec.why)),
            ("traced", J::Bool(args.traced)),
            ("seed", J::Int(args.seed)),
            ("seconds", J::Int(args.seconds)),
            ("smoke", J::Bool(args.smoke)),
            ("max_rounds", J::Int(spec.max_rounds as u64)),
            ("operations", J::Int(ops.len() as u64)),
            ("nproc", J::Int(nproc as u64)),
            ("threads", J::Int(threads as u64)),
            ("batch_size", J::Int(workloads::BATCH_SIZE as u64)),
            ("loadavg_at_start", J::str(loadavg.trim())),
        ];
        fields.extend(measured.fields);
        fields.push((
            "failures",
            J::Arr(measured.failures.into_iter().map(J::Str).collect()),
        ));
        fields.extend(summary.clone());
        let mut text = J::obj(fields).render();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", J::obj(summary).render());
    Ok(correct)
}

fn write_spans(path: &str, spans: &[traced::Span]) -> Result<(), String> {
    let mut text = String::new();
    for span in spans {
        let parent = match span.parent {
            u32::MAX => J::Null,
            p => J::Int(u64::from(p)),
        };
        text.push_str(
            &J::obj(vec![
                ("name", J::str(span.name)),
                ("op", J::Int(u64::from(span.op))),
                ("parent", parent),
                ("start_ns", J::Int(span.start_ns)),
                ("end_ns", J::Int(span.end_ns)),
            ])
            .render(),
        );
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Runs every workload, each in a process of its own so that peak memory
/// is per workload, and collects their results into one file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for spec in &SPECS {
        println!("== {} ==", spec.name);
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let part = args.out.as_ref().map(|out| format!("{out}.{}", spec.name));
        if let Some(part) = &part {
            child.args(["--out", part]);
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        if let Some(part) = &part {
            if let Ok(text) = std::fs::read_to_string(part) {
                results.push(text.trim_end().to_string());
            }
            // The part only exists to be folded into `--out`.
            let _ = std::fs::remove_file(part);
        }
    }
    if let Some(out) = &args.out {
        let text = format!(
            "{{\"schema\": \"anduril-e2e-set/1\", \"results\": [\n{}\n]}}\n",
            results.join(",\n")
        );
        std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.check {
            let violations = check::compare(&read_json(a)?, &read_json(b)?)?;
            println!("{violations} violation(s)");
            return Ok(violations == 0);
        }
        if args.all {
            return run_all(&args);
        }
        let name = args.workload.as_deref().ok_or(USAGE)?;
        let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        run_workload(spec, &args)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
