//! Order statistics for the benchmark's reports.
//!
//! Every timing is reported as a median plus the highest percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples beyond it,
//! together with the sample count, so a tail figure never rests on a
//! handful of outliers.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
/// Returns `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), p)])
}

/// Zero-based index of the nearest-rank `p`th percentile of `n > 0`
/// samples.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of unsorted `values`, found by selection:
/// reorders `values` and never allocates. Returns `None` when empty.
#[must_use]
pub fn select_percentile(values: &mut [u32], p: f64) -> Option<u32> {
    if values.is_empty() {
        return None;
    }
    let i = rank_index(values.len(), p);
    Some(*values.select_nth_unstable(i).1)
}

/// The median of `values` (mean of the middle pair for an even count).
/// Sorts `values` in place. Returns `None` when empty.
#[must_use]
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// The highest candidate percentile with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even
/// the median has too few (`n < 20`).
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
}

/// A distribution summary: median, a named percentile, the tail
/// percentile the rule allows, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Highest percentile the tail rule allows at this count.
    pub tail_p: Option<f64>,
    /// Value at `tail_p`.
    pub tail: Option<f64>,
}

impl Summary {
    /// Summarizes `values`, sorting them in place. `None` when empty.
    #[must_use]
    pub fn of(values: &mut [f64]) -> Option<Summary> {
        values.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(values.len());
        Some(Summary {
            count: values.len(),
            p50: percentile(values, 50.0)?,
            p99: percentile(values, 99.0)?,
            tail_p,
            tail: tail_p.and_then(|p| percentile(values, p)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_500_000), Some(99.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn selected_percentiles_match_sorted_ones() {
        let mut values: Vec<u32> = (1..=1_000).map(|i| (i * 7919) % 1_009).collect();
        let mut sorted: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let got = select_percentile(&mut values, p).map(f64::from);
            assert_eq!(got, percentile(&sorted, p), "p{p}");
        }
        assert_eq!(select_percentile(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let mut values: Vec<f64> = (0..1_000).rev().map(f64::from).collect();
        let s = Summary::of(&mut values).unwrap();
        assert_eq!(s.count, 1_000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.tail_p, Some(99.0));
        assert_eq!(s.tail, Some(989.0));
        let s = Summary::of(&mut [1.0; 16]).unwrap();
        assert_eq!((s.count, s.tail_p, s.tail), (16, None, None));
    }
}
