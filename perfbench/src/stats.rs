//! Order statistics under the benchmark's reporting rule: a timing is given
//! as its median plus the highest percentile, at most p99, that still has at
//! least [`TAIL_SAMPLES`] samples beyond it, always with the sample count.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of an ascending slice: the middle value, or the mean of the two
/// middle values for an even count (Python's `statistics.median`).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

fn nearest_rank(n: usize, p: u32) -> usize {
    // Integer arithmetic: ceil(p·n / 100), at least 1.
    ((p as usize * n).div_ceil(100)).max(1)
}

/// The highest whole percentile in 50..=99 whose nearest rank leaves at
/// least [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= TAIL_SAMPLES)
}

/// A timing summarised under the reporting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the reported tail, when the sample has one.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `values` (any order). An empty sample has count 0 and
    /// median 0: the row of a stage the workload never ran.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                median: 0.0,
                tail: None,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            median: median(&sorted),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        }
    }

    /// The tail value, or the median when the sample is too small to have
    /// a tail.
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4}", self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {v:.4}")?;
        }
        write!(f, " (n={})", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 95), 10.0, "ceil(9.5) = rank 10");
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(1000), Some(99), "rank 990 leaves 10");
        assert_eq!(tail_percentile(999), Some(98), "p99 would leave 9");
        assert_eq!(tail_percentile(250), Some(96));
        assert_eq!(tail_percentile(100_000), Some(99));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - nearest_rank(n, p + 1) < TAIL_SAMPLES,
                    "n={n}: p{} fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn summaries_report_count_median_and_tail() {
        let values: Vec<f64> = (0..250).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.count, 250);
        assert_eq!(s.median, 124.5);
        assert_eq!(s.tail, Some((96, 239.0)));
        assert_eq!(s.to_string(), "median 124.5000, p96 239.0000 (n=250)");
        let small = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(small.tail, None);
        assert_eq!(small.tail_or_median(), 2.0);
        assert_eq!(Summary::of(&[]).count, 0);
    }
}
