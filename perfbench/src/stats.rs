//! Order statistics shared by every workload.

/// Nearest-rank percentile of `samples` for `q` in `(0, 1]`: the
/// smallest sample such that at least `q` of all samples are ≤ it
/// (rank `⌈q·n⌉`, 1-based). Returns 0.0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count); 0.0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Geometric mean of positive samples; 0.0 when empty.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

/// Geometric mean over cells of each cell's median over passes.
/// `passes[p][c]` is cell `c`'s time in pass `p`; only passes with as
/// many cells as the first take part. A slow stretch of the host that
/// hits a few cells of one pass moves each cell's median less than it
/// moves that pass's geometric mean. Returns 0.0 when empty.
pub fn geomean_of_cell_medians(passes: &[Vec<f64>]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    let cells: Vec<f64> = (0..first.len())
        .map(|c| {
            let xs: Vec<f64> = passes
                .iter()
                .filter(|p| p.len() == first.len())
                .map(|p| p[c])
                .collect();
            median(&xs)
        })
        .collect();
    geomean(&cells)
}

/// A latency distribution summarised as a median, a tail percentile and
/// the sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Dist {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            n: samples.len(),
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        // Rank ⌈q·n⌉: with 4 samples p50 is the 2nd, p99 the 4th.
        let four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&four, 0.50), 2.0);
        assert_eq!(percentile(&four, 0.99), 4.0);
        assert_eq!(percentile(&four, 0.25), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        // A 2× gain on one small cell moves the geomean by 2^(1/n), even
        // when a large cell dominates the sum.
        let before = geomean(&[0.005, 1.5]);
        let after = geomean(&[0.0025, 1.5]);
        assert!((before / after - 2f64.sqrt()).abs() < 1e-12);
        // Per cell: medians 2 and 8 (the outlier 100 is ignored).
        let passes = vec![vec![1.0, 8.0], vec![2.0, 100.0], vec![3.0, 7.0]];
        assert!((geomean_of_cell_medians(&passes) - 4.0).abs() < 1e-12);
        assert_eq!(geomean_of_cell_medians(&[]), 0.0);
        let d = Dist::of(&[1.0, 2.0, 3.0]);
        assert_eq!((d.n, d.p50, d.p99), (3, 2.0, 3.0));
    }
}
