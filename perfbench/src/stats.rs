//! Order statistics used by every workload.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks (the `statistics.quantiles(method="inclusive")`
/// convention). Sorts `values` in place; `None` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
}

/// The median of `values` (sorts in place); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile of a latency histogram over whole rounds, where
/// `hist[k]` deliveries happened during round `k` after publication —
/// i.e. somewhere in `(k − 1, k]`. Deliveries are spread uniformly inside
/// their round, so the result moves smoothly with the distribution
/// instead of jumping between integers. `None` when the histogram is
/// empty.
pub fn grouped_quantile(hist: &[u64], q: f64) -> Option<f64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (k, &count) in hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if (below + count) as f64 >= target {
            let inside = (target - below as f64) / count as f64;
            return Some(k as f64 - 1.0 + inside);
        }
        below += count;
    }
    Some(hist.len() as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(median(&mut v), Some(2.5));
        assert!((quantile(&mut v, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_nothing_is_none() {
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&mut [7.0]), Some(7.0));
    }

    #[test]
    fn grouped_quantile_spreads_inside_the_round() {
        // 10 deliveries in round 2, 10 in round 3.
        let hist = [0, 0, 10, 10];
        assert_eq!(grouped_quantile(&hist, 0.5), Some(2.0));
        assert!((grouped_quantile(&hist, 0.25).unwrap() - 1.5).abs() < 1e-12);
        assert!((grouped_quantile(&hist, 0.99).unwrap() - 2.98).abs() < 1e-12);
        assert_eq!(grouped_quantile(&hist, 1.0), Some(3.0));
    }

    #[test]
    fn grouped_quantile_of_empty_histogram_is_none() {
        assert_eq!(grouped_quantile(&[], 0.5), None);
        assert_eq!(grouped_quantile(&[0, 0], 0.5), None);
    }
}
