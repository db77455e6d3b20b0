//! Order statistics the harness reports: nearest-rank percentiles and the
//! best / median / p90 selection over a run's pass times.

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(q * n)`, so a reported percentile is always a measured sample.
/// `q` in `(0, 1]`; panics on an empty slice (a run always has a pass).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle samples for an even count) — the driver's own definition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summary of a run's whole-pass wall times, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTimes {
    /// Fastest whole pass — what `wall_qps` is computed from.
    pub best: f64,
    /// Nearest-rank median pass.
    pub p50: f64,
    /// Nearest-rank 90th-percentile pass.
    pub p90: f64,
}

impl PassTimes {
    /// Select best / p50 / p90 from the pass wall times of one run.
    pub fn of(passes: &[f64]) -> PassTimes {
        let mut sorted = passes.to_vec();
        sorted.sort_by(f64::total_cmp);
        PassTimes {
            best: sorted[0],
            p50: nearest_rank(&sorted, 0.5),
            p90: nearest_rank(&sorted, 0.9),
        }
    }

    /// Median pass over best pass: 1.0 on a quiet host, larger when the
    /// sandbox changed speed during the run.
    pub fn noise_ratio(&self) -> f64 {
        self.p50 / self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_samples() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.95), 19.0);
        assert_eq!(nearest_rank(&v, 0.5), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 20.0);
        assert_eq!(nearest_rank(&v, 0.01), 1.0);
        // 22 TPC-H latencies: p95 is the 21st (second slowest).
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.95), 21.0);
        assert_eq!(nearest_rank(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn pass_selection() {
        let p = PassTimes::of(&[1.4, 0.95, 1.15, 0.97, 1.41, 0.96, 1.16, 1.39, 0.98, 1.2]);
        assert_eq!(p.best, 0.95);
        assert_eq!(p.p50, 1.15);
        assert_eq!(p.p90, 1.4);
        assert!((p.noise_ratio() - 1.15 / 0.95).abs() < 1e-12);
        let one = PassTimes::of(&[2.0]);
        assert_eq!((one.best, one.p50, one.p90), (2.0, 2.0, 2.0));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
