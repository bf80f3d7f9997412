//! The estimators every number in a result file goes through.

/// A sample set reduced to what a result file records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median — the spread
    /// `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median (0 for an empty set, so an absent arm reads as "not measured").
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The `q` quantile of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

/// Median and quartiles.
pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// The spread a run shows against itself. The samples, in the order
/// they were taken, are cut into consecutive blocks; `stat` of each block
/// is a short run of its own; the result is the inter-quartile distance
/// of those block statistics as a share of their median. This is what
/// `compare` holds against a bound: it estimates how far the run-level
/// statistic moves between runs (conservatively — a block has a fraction
/// of the samples), where the raw sample spread would only say how far
/// single jobs scatter. Below twenty samples there is nothing to cut and
/// the raw sample spread stands in.
pub fn block_spread(samples: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    if samples.len() < 20 {
        return summarize(samples).spread();
    }
    let blocks = (samples.len() / 5).clamp(4, 8);
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| stat(&samples[b * samples.len() / blocks..(b + 1) * samples.len() / blocks]))
        .collect();
    summarize(&per_block).spread()
}

/// How far apart the two ends of a run read: the medians of the first
/// and the last third of `samples` (in the order taken), as a share of
/// the smaller. 0 below fifteen samples: a median of fewer than five
/// says more about single samples than about the box.
pub fn ends_drift(samples: &[f64]) -> f64 {
    let third = samples.len() / 3;
    if third < 5 {
        return 0.0;
    }
    let (first, last) = (
        median(&samples[..third]),
        median(&samples[samples.len() - third..]),
    );
    (first - last).abs() / first.min(last).max(f64::MIN_POSITIVE)
}

/// The percentile-support rule: the highest whole percentile that still
/// has at least ten samples beyond it, or `None` below twenty samples
/// (where even the median has fewer than ten on each side).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100.0 * (1.0 - 10.0 / n as f64)).floor() as u32)
}

/// Median of paired ratios `num[i] / den[i]` — each pair ran back to
/// back on the same input, so slow drift of the box cancels inside a
/// pair instead of landing in the ratio of two medians.
pub fn paired_ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter()
        .zip(den)
        .filter(|(_, d)| **d > 0.0)
        .map(|(n, d)| n / d)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(quantile(&[10.0, 20.0], 0.75), 17.5);
    }

    #[test]
    fn block_spread_sees_drift_but_not_scatter() {
        // Heavy scatter around a steady level: every block median is the
        // same, so the run agrees with itself.
        let steady: Vec<f64> = (0..48)
            .map(|i| if i % 2 == 0 { 1.0 } else { 3.0 })
            .collect();
        assert!(summarize(&steady).spread() > 0.5);
        assert_eq!(block_spread(&steady, median), 0.0);
        // A level that drifts through the run does not.
        let drifting: Vec<f64> = (0..40).map(|i| 1.0 + i as f64 / 40.0).collect();
        assert!(block_spread(&drifting, median) > 0.2);
        // Too few samples to cut: the raw spread.
        assert_eq!(
            block_spread(&[1.0, 2.0, 3.0], median),
            summarize(&[1.0, 2.0, 3.0]).spread()
        );
    }

    #[test]
    fn ends_drift_compares_first_and_last_third() {
        let run = |first: f64, middle: f64, last: f64| -> Vec<f64> {
            [first, middle, last]
                .iter()
                .flat_map(|&level| [level; 5])
                .collect()
        };
        assert_eq!(ends_drift(&run(1.0, 5.0, 1.0)), 0.0);
        assert!((ends_drift(&run(1.0, 1.1, 1.2)) - 0.2).abs() < 1e-12);
        assert!((ends_drift(&run(1.2, 1.1, 1.0)) - 0.2).abs() < 1e-12);
        assert_eq!(ends_drift(&run(1.0, 1.1, 1.2)[..14]), 0.0, "too few");
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn paired_ratio_cancels_common_drift() {
        // Both arms slow down 2x half way through; every pair still
        // reads 2.0, while the ratio of medians would not.
        let num = [2.0, 2.0, 4.0, 4.0, 4.0];
        let den = [1.0, 1.0, 2.0, 2.0, 2.0];
        assert_eq!(median(&paired_ratios(&num, &den)), 2.0);
        assert_eq!(paired_ratios(&[1.0], &[0.0]), Vec::<f64>::new());
    }
}
