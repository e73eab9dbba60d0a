//! Order statistics the ledger reports: nearest-rank percentiles over
//! pooled latency samples and medians over per-round rates.

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending-sorted
/// slice: the smallest sample with at least `q` of the samples at or
/// below it. `None` when there are no samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` ascending (total order, NaN last) in place.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty. This is what turns six per-round rates
/// into the one reported rate.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort_samples(&mut v);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(max - min) / median` of `values`, in percent; `0` for fewer than
/// two values.
pub fn spread_pct(values: &[f64]) -> f64 {
    let (Some(med), true) = (median(values), values.len() >= 2) else {
        return 0.0;
    };
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if med == 0.0 {
        0.0
    } else {
        100.0 * (max - min) / med
    }
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.50), Some(50.0));
        assert_eq!(percentile_sorted(&s, 0.95), Some(95.0));
        assert_eq!(percentile_sorted(&s, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&s, 1.0), Some(100.0));
        // One and two samples are pinned, not interpolated.
        assert_eq!(percentile_sorted(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile_sorted(&[1.0, 9.0], 0.5), Some(1.0));
        assert_eq!(percentile_sorted(&[1.0, 9.0], 0.95), Some(9.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        // Even count (the six measured rounds): mean of the middle two,
        // so one disturbed round cannot move the reported rate.
        assert_eq!(median(&[100.0, 101.0, 99.0, 102.0, 98.0, 10.0]), Some(99.5));
    }

    #[test]
    fn spread_and_mean() {
        assert_eq!(spread_pct(&[10.0]), 0.0);
        assert_eq!(spread_pct(&[9.0, 10.0, 11.0]), 20.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
