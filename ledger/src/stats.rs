//! Medians, quartiles and per-round ratios: the only arithmetic the ledger
//! applies to raw samples.

/// Quartiles by the exclusive method, the default of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here equals
/// the one the driver computes from the same values. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median (mean of the two middle values for an even count). `NaN` for an
/// empty slice, so a metric nobody sampled cannot pass for a measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Value at percentile `p` (0–100) by linear interpolation between the
/// two closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it; `None` below twenty samples (p50 needs ten above it).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        // The margin absorbs 100 - 99.9 not being a tenth in binary.
        .find(|p| samples as f64 * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
}

/// Median of the per-round ratios `num[i] / den[i]`; a round in which
/// either arm has no sample (`NaN`) is left out. Taking the ratio
/// inside a round cancels the drift between rounds (another tenant on the
/// host, a frequency step) that a ratio of two medians keeps.
pub fn per_round_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .filter(|(n, d)| n.is_finite() && d.is_finite() && **d > 0.0)
        .map(|(n, d)| n / d)
        .collect();
    median(&ratios)
}

/// What the report keeps of one timed quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with ten samples
    /// beyond it.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let med = median(values);
    let [q1, _, q3] = quartiles(values).unwrap_or([med; 3]);
    Summary {
        samples: values.len(),
        median: med,
        q1,
        q3,
        tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 50], n=4) == [10.0, 20.0, 50.0]
        assert_eq!(quartiles(&[50.0, 10.0, 20.0]), Some([10.0, 20.0, 50.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn per_round_ratio_cancels_drift_between_rounds() {
        // Every round is 2x, but the rounds themselves drift 1x..3x: the
        // ratio of medians would still be 2, the point is that one slow
        // round on one side only cannot move the median of three.
        let den = [1.0, 2.0, 3.0];
        let num = [2.0, 4.0, 60.0];
        assert_eq!(per_round_ratio(&num, &den), 2.0);
        assert!(per_round_ratio(&[], &[]).is_nan());
    }

    #[test]
    fn summary_keeps_median_quartiles_and_tail() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.samples, 40);
        assert_eq!(s.median, 20.5);
        assert_eq!((s.q1, s.q3), (10.25, 30.75));
        assert_eq!(s.tail.map(|t| t.0), Some(75.0));
    }
}
