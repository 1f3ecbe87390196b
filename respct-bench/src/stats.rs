//! Order statistics shared by every workload and by `compare`.
//!
//! An absolute number is the **median of its per-window values**; the two
//! arms of a ratio are each read over the undisturbed half of their
//! windows (see [`undisturbed_rate`]); nothing is a best-of. Run-to-run spread is the
//! interquartile distance as a share of the median — computed exactly as
//! the acceptance procedure does with Python's
//! `statistics.quantiles(values, n=4)`.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no windows is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)` default). Needs two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The rate an arm runs at when the host leaves it alone: the mean of the
/// faster half of its per-window rates. Interference from the host's other
/// tenants only ever slows a window, and slows the two arms of a
/// comparison by different amounts (the transient arm is the more
/// memory-bound), so a ratio of medians moves with the host's load while a
/// ratio of these does not — and half the windows go into it, so it is not
/// a best-of.
pub fn undisturbed_rate(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    let faster = &v[v.len() / 2..];
    faster.iter().sum::<f64>() / faster.len() as f64
}

/// [`undisturbed_rate`] for durations: the mean of the shorter half.
pub fn undisturbed_time(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    let shorter = &v[..v.len().div_ceil(2)];
    shorter.iter().sum::<f64>() / shorter.len() as f64
}

/// The `q`-quantile (nearest rank) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The highest percentile, no higher than `want`, that still has at least
/// ten samples beyond it in a population of `n` — a tail read off fewer
/// samples than that is an anecdote, not a percentile.
pub fn capped_percentile(n: usize, want: f64) -> f64 {
    if n <= 10 {
        return 0.0;
    }
    want.min(1.0 - 10.0 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_not_the_best() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_undisturbed_level_is_the_faster_half_not_the_best() {
        // Three windows slowed by a neighbour, three left alone.
        let rates = [100.0, 60.0, 102.0, 70.0, 98.0, 65.0];
        assert_eq!(undisturbed_rate(&rates), 100.0);
        assert!(undisturbed_rate(&rates) < 102.0, "not the best window");
        // The middle window of an odd count belongs to the half.
        assert_eq!(undisturbed_rate(&[1.0, 2.0, 9.0]), 5.5);
        assert_eq!(undisturbed_time(&[9.0, 1.0, 2.0]), 1.5);
        assert_eq!(undisturbed_time(&[4.0, 30.0, 2.0, 50.0]), 3.0);
        assert_eq!(undisturbed_rate(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(capped_percentile(100_000, 0.99), 0.99);
        assert_eq!(capped_percentile(1_000, 0.99), 0.99);
        // 500 samples: only p98 has ten samples beyond it.
        assert!((capped_percentile(500, 0.99) - 0.98).abs() < 1e-12);
        assert!((capped_percentile(20, 0.99) - 0.5).abs() < 1e-12);
        assert_eq!(capped_percentile(10, 0.99), 0.0);
        let sorted: Vec<u64> = (1..=500).collect();
        let q = capped_percentile(sorted.len(), 0.99);
        let v = percentile(&sorted, q);
        assert!(sorted.iter().filter(|&&x| x > v).count() >= 10);
    }
}
