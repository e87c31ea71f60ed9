//! Order statistics shared by every workload's report.

/// Returns a copy of `values` in ascending order (IEEE total order, so a
/// stray NaN sorts last instead of panicking).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile of an ascending sample, `p` in `[0, 100]`: the
/// smallest sample value with at least `p` percent of the sample at or
/// below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean, `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Consecutive windows a timed phase is cut into.
pub const WINDOWS: usize = 40;

/// Share of a phase's windows its metrics are taken over: the quietest
/// ones. On a shared host another tenant slows a few seconds of a run at
/// a time; keeping the quieter windows shrugs that off while a change
/// that slows every window still shows in full.
pub const QUIET_SHARE: f64 = 0.1;

/// Cuts `items` into `windows` consecutive slices of near-equal length
/// (fewer when there are fewer items) and returns the [`QUIET_SHARE`] of
/// them (at least one) with the lowest `cost`, in their original order.
/// Empty for no items.
pub fn quiet_windows<T>(items: &[T], windows: usize, cost: impl Fn(&[T]) -> f64) -> Vec<&[T]> {
    let n = windows.min(items.len());
    let slices: Vec<&[T]> = (0..n)
        .map(|w| &items[w * items.len() / n..(w + 1) * items.len() / n])
        .collect();
    let costs: Vec<f64> = slices.iter().map(|w| cost(w)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
    let keep = ((n as f64 * QUIET_SHARE).ceil() as usize).clamp(n.min(1), n);
    let mut kept: Vec<usize> = order[..keep].to_vec();
    kept.sort_unstable();
    kept.into_iter().map(|w| slices[w]).collect()
}

/// The values of the quietest windows of `values`, a window's cost being
/// its median, pooled in their original order.
pub fn quiet_values(values: &[f64], windows: usize) -> Vec<f64> {
    quiet_windows(values, windows, |w| median(w).unwrap_or(f64::INFINITY)).concat()
}

/// `part / whole`, or `0` when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sample, 0.0), Some(1.0));
        assert_eq!(percentile(&sample, 25.0), Some(1.0));
        assert_eq!(percentile(&sample, 26.0), Some(2.0));
        assert_eq!(percentile(&sample, 50.0), Some(2.0));
        assert_eq!(percentile(&sample, 99.0), Some(4.0));
        assert_eq!(percentile(&sample, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_a_hundred_samples_to_leave_the_maximum() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        // 99% of 200 is 198: the 198th smallest value.
        assert_eq!(percentile(&sample, 99.0), Some(198.0));
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&small, 99.0), Some(50.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quiet_windows_keep_the_cheapest_in_order() {
        let items: Vec<f64> = (1..=40).map(f64::from).collect();
        // 20 windows of two; the cheapest by sum come first in time.
        let keep = (20.0 * QUIET_SHARE).ceil() as usize;
        let kept = quiet_windows(&items, 20, |w| w.iter().sum());
        let expected: Vec<&[f64]> = (0..keep).map(|w| &items[2 * w..2 * w + 2]).collect();
        assert_eq!(kept, expected);
        // A disturbed window is dropped; the rest keep their time order.
        let mut noisy = items.clone();
        noisy[1] = 1000.0;
        let kept = quiet_windows(&noisy, 20, |w| w.iter().sum());
        let expected: Vec<&[f64]> = (1..=keep).map(|w| &noisy[2 * w..2 * w + 2]).collect();
        assert_eq!(kept, expected);
        // Fewer items than windows: one window per item, at least one kept.
        assert_eq!(quiet_windows(&items[..1], 5, |w| w[0]).len(), 1);
        assert!(quiet_windows::<f64>(&[], 5, |w| w.len() as f64).is_empty());
        // A window's cost in `quiet_values` is its median.
        assert_eq!(
            quiet_values(&[9.0, 9.0, 1.0, 2.0, 8.0, 8.0, 3.0, 4.0], 4)[0],
            1.0
        );
    }

    #[test]
    fn mean_and_ratio_handle_empty_inputs() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
