//! Online statistics used when summarising simulation runs.
//!
//! * [`OnlineStats`] — single-pass mean/variance/min/max (Welford's
//!   algorithm), numerically stable for millions of samples;
//! * [`t_critical_95`] and [`quantile_sorted`] — the Student-t critical
//!   value and sorted-slice quantiles behind the reported intervals.

/// Single-pass mean / variance / extrema accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (Bessel's correction, `m2 / (n - 1)`;
    /// 0 when fewer than two observations).
    ///
    /// Use this — not [`OnlineStats::variance`] — when the observations
    /// are a *sample* from a larger population, e.g. seed replications of
    /// a sweep cell: the population formula divides by `n` and understates
    /// the spread (and hence any error bar) for small `n`.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation (square root of
    /// [`OnlineStats::sample_variance`]).
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean: `sample_stddev / sqrt(n)` (0 when fewer
    /// than two observations).
    pub fn stderr(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.sample_stddev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the 95 % confidence interval of the mean:
    /// `t_{0.975, n-1} * stderr`, using the Student-t critical value for
    /// small samples (0 when fewer than two observations). The interval is
    /// `mean ± ci95_half`.
    pub fn ci95_half(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t_critical_95(self.n - 1) * self.stderr()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Two-sided 97.5 % Student-t critical values for `df` 1..=30; beyond 30
/// degrees of freedom the normal approximation (1.96) is within 3 %.
const T_CRIT_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The two-sided 95 % Student-t critical value for `df` degrees of freedom
/// (tabulated up to 30, normal approximation 1.96 beyond). `df = 0` returns
/// infinity: one observation carries no interval.
pub fn t_critical_95(df: u64) -> f64 {
    match df {
        0 => f64::INFINITY,
        1..=30 => T_CRIT_95[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a **sorted** slice using linear
/// interpolation, or `None` if the slice is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_applies_bessel_correction() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        // Population variance 4.0 over n=8 → m2 = 32; sample divides by 7.
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.sample_stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(s.sample_variance() > s.variance(), "sample > population");
    }

    #[test]
    fn stderr_and_ci_match_hand_computed_small_n() {
        // Three replications: 10, 12, 14. mean 12, sample variance 4,
        // sample stddev 2, stderr 2/sqrt(3), t(df=2) = 4.303.
        let mut s = OnlineStats::new();
        for x in [10.0, 12.0, 14.0] {
            s.push(x);
        }
        let stderr = 2.0 / 3.0f64.sqrt();
        assert!((s.sample_variance() - 4.0).abs() < 1e-12);
        assert!((s.stderr() - stderr).abs() < 1e-12);
        assert!((s.ci95_half() - 4.303 * stderr).abs() < 1e-9);
    }

    #[test]
    fn stderr_degenerate_counts() {
        let mut s = OnlineStats::new();
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.stderr(), 0.0);
        assert_eq!(s.ci95_half(), 0.0);
        s.push(5.0);
        // One observation: no spread estimate, not NaN/inf.
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.stderr(), 0.0);
        assert_eq!(s.ci95_half(), 0.0);
    }

    #[test]
    fn t_critical_values() {
        assert_eq!(t_critical_95(0), f64::INFINITY);
        assert!((t_critical_95(1) - 12.706).abs() < 1e-12);
        assert!((t_critical_95(2) - 4.303).abs() < 1e-12);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-12);
        assert!((t_critical_95(31) - 1.96).abs() < 1e-12);
        assert!((t_critical_95(10_000) - 1.96).abs() < 1e-12);
        // Monotone non-increasing in df.
        for df in 1..40 {
            assert!(t_critical_95(df) >= t_critical_95(df + 1), "df={df}");
        }
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean());
        a.merge(&OnlineStats::new());
        assert_eq!((a.count(), a.mean()), before);

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&xs, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&xs, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[9.0], 0.7), Some(9.0));
    }
}
