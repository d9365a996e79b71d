//! Order statistics and interval arithmetic over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, linearly interpolated
/// between the two closest ranks. `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (`0` for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, as `(percentile, samples beyond it)`. `None` when
/// even the 50th percentile has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    // Per-mille ranks keep the count exact (no `1 - 0.9` rounding).
    [999usize, 990, 950, 900, 750, 500].into_iter().find_map(|per_mille| {
        let beyond = n * (1000 - per_mille) / 1000;
        (beyond >= 10).then_some((per_mille as f64 / 10.0, beyond))
    })
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&xs), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(8), None);
        assert_eq!(tail_percentile(20), Some((50.0, 10)));
        assert_eq!(tail_percentile(100), Some((90.0, 10)));
        assert_eq!(tail_percentile(600), Some((95.0, 30)));
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (21, 22), (30, 30)]), 20);
        assert_eq!(union_len(&[]), 0);
    }
}
