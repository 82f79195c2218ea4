//! `e2e --check A.json B.json`: is B worse than A, by the benchmark's own
//! bounds?

use anduril_core::Json;

use crate::metrics::{self, Better, Compare, SETUP_FLOOR_S};

/// One workload's result as far as the comparison reads it.
struct Run<'a> {
    json: &'a Json,
    workload: &'a str,
    traced: bool,
}

fn runs(doc: &Json) -> Vec<Run<'_>> {
    let list = match doc.get("results").and_then(Json::as_arr) {
        Some(list) => list.iter().collect(),
        None => vec![doc],
    };
    list.into_iter()
        .filter_map(|json| {
            Some(Run {
                json,
                workload: json.get("workload")?.as_str()?,
                traced: json.get("traced")?.as_bool()?,
            })
        })
        .collect()
}

/// The arguments two results must share for their counts to be comparable.
const ARGUMENTS: [&str; 4] = ["seed", "seconds", "smoke", "campaigns"];
/// Fields outside `metrics` that must match exactly.
const EXACT_FIELDS: [&str; 3] = ["attempted", "failed", "digest"];

fn noise(result: &Json) -> f64 {
    result
        .get("noise_share")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares two parsed documents, printing one row per workload × metric.
/// Returns the number of violations, or why the two cannot be compared.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let (a, b) = (runs(a), runs(b));
    let mut violations = 0;
    let mut compared = 0;
    println!(
        "{:<13} {:<30} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for ra in &a {
        let Some(rb) = b
            .iter()
            .find(|rb| rb.workload == ra.workload && rb.traced == ra.traced)
        else {
            continue;
        };
        compared += 1;
        for key in ARGUMENTS {
            if ra.json.get(key) != rb.json.get(key) {
                return Err(format!(
                    "{}: the two runs differ in `{key}`, so their results are not comparable",
                    ra.workload
                ));
            }
        }
        let row = |name: &str, va: String, vb: String, change: String, verdict: &str| {
            println!(
                "{:<13} {:<30} {:>16} {:>16} {:>8}  {verdict}",
                ra.workload, name, va, vb, change
            );
        };
        for key in EXACT_FIELDS {
            let (va, vb) = (ra.json.get(key), rb.json.get(key));
            let same = va == vb;
            violations += usize::from(!same);
            let show = |v: Option<&Json>| match v {
                Some(Json::Num(n)) => format!("{n}"),
                Some(Json::Str(s)) => s.clone(),
                _ => "-".into(),
            };
            let verdict = if same { "equal" } else { "VIOLATION: differs" };
            row(key, show(va), show(vb), String::new(), verdict);
        }
        let unresolved_by_noise = noise(ra.json).max(noise(rb.json));
        let defs = if ra.traced {
            &metrics::PER_LAYER[..]
        } else {
            &metrics::END_TO_END[..]
        };
        for def in defs {
            let (Some(va), Some(vb)) = (metric(ra.json, def.name), metric(rb.json, def.name))
            else {
                violations += 1;
                row(
                    def.name,
                    "-".into(),
                    "-".into(),
                    String::new(),
                    "VIOLATION: missing",
                );
                continue;
            };
            // Positive when B is worse.
            let worse = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let change = if va == vb {
                "0".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (vb - va) / va)
            };
            let verdict = match def.compare {
                Compare::Exact if va == vb => "equal".to_string(),
                Compare::Exact => {
                    violations += 1;
                    "VIOLATION: differs".to_string()
                }
                Compare::Shown => "shown".to_string(),
                Compare::Within(_) if def.name == "setup_s" && va.max(vb) < SETUP_FLOOR_S => {
                    format!("below the {SETUP_FLOOR_S} s floor")
                }
                Compare::Within(bound) if worse <= bound => "within bound".to_string(),
                Compare::Within(bound) if unresolved_by_noise > bound => {
                    format!(
                        "unresolved: a run's repetitions differ by {:.0}%",
                        100.0 * unresolved_by_noise
                    )
                }
                Compare::Within(bound) => {
                    violations += 1;
                    format!("VIOLATION: worse by more than {:.0}%", 100.0 * bound)
                }
            };
            row(
                def.name,
                format!("{va:.6}"),
                format!("{vb:.6}"),
                change,
                &verdict,
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::compare;
    use crate::json::J;
    use anduril_core::Json;

    fn result(wall: f64, rounds: f64, noise: f64) -> Json {
        let metric =
            |v: f64, unit: &str| J::obj(vec![("value", J::Num(v)), ("unit", J::str(unit))]);
        let doc = J::obj(vec![
            ("workload", J::str("tickets22")),
            ("traced", J::Bool(false)),
            ("seed", J::Int(1000)),
            ("seconds", J::Int(15)),
            ("smoke", J::Bool(false)),
            ("campaigns", J::Int(230)),
            ("attempted", J::Int(10120)),
            ("failed", J::Int(0)),
            ("digest", J::str("00ff")),
            ("noise_share", J::Num(noise)),
            (
                "metrics",
                J::obj(vec![
                    ("setup_s", metric(0.01, "s")),
                    ("campaign_wall_s", metric(wall, "s")),
                    ("rounds_total", metric(rounds, "rounds")),
                    ("sim_ticks_total", metric(5e5, "ticks")),
                    ("peak_rss_mb", metric(12.0, "MiB")),
                ]),
            ),
        ]);
        Json::parse(&doc.render()).expect("parses")
    }

    #[test]
    fn judges_by_the_benchmarks_bounds() {
        let base = result(0.030, 93.5, 0.01);
        // Same run twice, and a faster one: no violation.
        assert_eq!(compare(&base, &base), Ok(0));
        assert_eq!(compare(&base, &result(0.020, 93.5, 0.01)), Ok(0));
        // 9 % slower is inside the bound, 12 % is not.
        assert_eq!(compare(&base, &result(0.0327, 93.5, 0.01)), Ok(0));
        assert_eq!(compare(&base, &result(0.0336, 93.5, 0.01)), Ok(1));
        // ... unless a run was too noisy to tell.
        assert_eq!(compare(&base, &result(0.0336, 93.5, 0.2)), Ok(0));
        // A count may not move at all, in either direction.
        assert_eq!(compare(&base, &result(0.030, 93.4, 0.01)), Ok(1));
    }

    #[test]
    fn refuses_runs_with_different_arguments() {
        let a = result(0.030, 93.5, 0.01);
        let text = J::obj(vec![
            ("workload", J::str("tickets22")),
            ("traced", J::Bool(false)),
            ("seed", J::Int(7)),
        ])
        .render();
        let b = Json::parse(&text).expect("parses");
        assert!(compare(&a, &b).is_err());
    }
}
