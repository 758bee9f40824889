//! Order statistics used for every reported number.
//!
//! Two definitions, both exact (no bucket interpolation):
//!
//! * [`percentile`] is nearest-rank: the smallest sample with at least
//!   `p` percent of the samples at or below it. It is what
//!   `virt_op_p50_us` / `virt_op_p95_us` report, so the value is always
//!   one of the measured latencies.
//! * [`quartiles`] follows Python's `statistics.quantiles(v, n=4)`
//!   (the default "exclusive" method), because that is the function the
//!   benchmark contract uses to judge run-to-run spread.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
/// `p` is in percent (0 < p <= 100).
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let rank = (sorted.len() as u64 * p as u64).div_ceil(100).max(1);
    sorted[rank as usize - 1]
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` computes them.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}
