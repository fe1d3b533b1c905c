//! The benchmark's one set of summary statistics: nearest-rank percentiles,
//! span self time, and the quartile spread the acceptance rule is written in.

/// Nearest-rank percentile (`p` in 0..=100): the smallest sample with at
/// least `p`% of the samples at or below it. Sorts in place. Panics on empty
/// input or NaN — both are benchmark bugs, not data conditions.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN benchmark sample"));
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median, by the same nearest-rank rule as every other percentile here.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean of a non-empty sample set.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover (children may overlap each other or poke outside the
/// parent; only covered time inside the parent is subtracted).
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("NaN benchmark sample"));
    let n = data.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Python keeps `delta` signed so the clamp extrapolates at the ends.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's acceptance rule compares against each metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, mid, q3] = quartiles(values);
    if mid == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1).abs() / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 90.0), 5.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        // Even length: nearest-rank takes the lower middle, never a mean.
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.0);
        assert_eq!(percentile(&mut even, 75.0), 3.0);
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(110, 130), (150, 160)]), 70);
        // Overlapping children and one poking outside the parent.
        assert_eq!(self_time_ns((100, 200), &[(110, 150), (140, 160), (190, 250)]), 40);
        assert_eq!(self_time_ns((100, 200), &[(0, 300)]), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
