//! Order statistics over small samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the rule the benchmark's driver applies); `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest of p75, p90, p95, p99 and p99.9 that still has ten samples
/// beyond it, with its value; `None` below 40 samples.
pub fn high_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| {
            let beyond = ((n as f64) * (100.0 - p) / 100.0).floor() as usize;
            (p, v[n - 1 - beyond])
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values checked against `statistics.quantiles(v, n=4)` and
    /// `statistics.median`.
    #[test]
    fn quartiles_follow_the_exclusive_method() {
        let v = [7.0, 1.0, 3.0, 9.0, 5.0, 11.0, 2.0, 8.0, 4.0, 10.0];
        assert_eq!(quartiles(&v), Some((2.75, 9.25)));
        assert_eq!(median(&v), 6.0);
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(high_percentile(&v), Some((95.0, 190.0)));
        assert_eq!(high_percentile(&v[..40]), Some((75.0, 30.0)));
        assert_eq!(high_percentile(&v[..39]), None);
    }
}
