//! Order statistics: nearest-rank percentiles, the "ten samples beyond"
//! rule for tails, and the quartile spread `compare` judges runs by.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of unsorted `values`: the middle sample, or the mean of the two
/// middle samples of an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no samples");
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

/// The value of a quantity on a quiet host, from samples taken on a shared
/// one: the nearest-rank 10th percentile of a time or cost (the best
/// sample of fewer than ten), the 90th of a rate.  Co-tenants only ever
/// slow a sample down, for seconds at a time, so the median of a run moves
/// by tens of percent between runs while the best decile moves by a few.
pub fn quiet(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(&sorted(values), if higher_is_better { 90.0 } else { 10.0 })
}

/// Whether `n` samples support percentile `p`: at least ten samples must
/// lie beyond it, so the reported value is not one of the few extremes.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n >= rank + 10
}

/// First quartile, median and third quartile by the exclusive method —
/// the cut points Python's `statistics.quantiles(values, n=4)` returns,
/// which is what the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let cut = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    [cut(1), cut(2), cut(3)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 8.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_takes_the_good_decile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&v, false), 2.0);
        assert_eq!(quiet(&v, true), 18.0);
        assert_eq!(quiet(&[5.0, 3.0, 4.0], false), 3.0);
        assert_eq!(quiet(&[5.0, 3.0, 4.0], true), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 40 passes leave exactly ten beyond p75; 39 do not.
        assert!(supports(40, 75.0));
        assert!(!supports(39, 75.0));
        // p99 needs 1000 samples, p50 needs 20.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
    }
}
