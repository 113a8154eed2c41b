//! Order statistics shared by the workloads and the `--repeat` tables.

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of a non-empty ascending
/// sample: the value at rank `⌈q·n⌉`, and how many samples lie beyond it.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// A nearest-rank percentile and the number of samples beyond it;
/// `(0, 0)` for an empty sample.
pub fn percentile_beyond(samples: &[f64], q: f64) -> (f64, usize) {
    let v = sorted(samples);
    if v.is_empty() {
        (0.0, 0)
    } else {
        nearest_rank(&v, q)
    }
}

/// A nearest-rank percentile; 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    percentile_beyond(samples, q).0
}

/// The percentiles a report reads a latency tail at, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// The highest of [`TAILS`] that leaves at least ten samples beyond it, as
/// `(q, value, samples beyond)`; `None` when not even p90 does.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    TAILS.iter().find_map(|&q| {
        let (value, beyond) = nearest_rank(&v, q);
        (beyond >= 10).then_some((q, value, beyond))
    })
}

/// A percentile's label, as in `p99` or `p99.9`.
pub fn label(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an outside check computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a metric's regression bound must exceed.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_count_the_samples_beyond_them() {
        // 1000 samples: p99 is rank 990, leaving the ten a tail needs.
        assert_eq!(percentile_beyond(&ramp(1000), 0.99), (990.0, 10));
        // 999 samples: p99 is rank 990 with only 9 beyond.
        assert_eq!(percentile_beyond(&ramp(999), 0.99), (990.0, 9));
        // 100 samples: p90 is rank 90, 10 beyond.
        assert_eq!(percentile_beyond(&ramp(100), 0.90), (90.0, 10));
        assert_eq!(percentile_beyond(&ramp(99), 0.90), (90.0, 9));
        assert_eq!(percentile_beyond(&[], 0.99), (0.0, 0));
        assert_eq!(
            (label(0.999), label(0.99), label(0.9)),
            ("p99.9".into(), "p99".into(), "p90".into())
        );
    }

    #[test]
    fn the_highest_tail_leaves_ten_samples_beyond_it() {
        // p99.9 of 1000 leaves one sample beyond; p99 leaves ten.
        assert_eq!(highest_tail(&ramp(1000)), Some((0.99, 990.0, 10)));
        assert_eq!(highest_tail(&ramp(10_000)), Some((0.999, 9990.0, 10)));
        assert_eq!(highest_tail(&ramp(999)), Some((0.9, 900.0, 99)));
        // Fewer than ten beyond p90: no tail is reported.
        assert_eq!(highest_tail(&ramp(99)), None);
        assert_eq!(highest_tail(&[]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&ramp(4)), 2.5);
        assert_eq!(percentile(&ramp(10), 0.5), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), 0.0);
    }
}
