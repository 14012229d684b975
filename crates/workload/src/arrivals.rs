//! Job arrival processes.
//!
//! Supercomputer submission streams show a strong daily cycle; the
//! burstiness matters for the paper's results because queue depth drives
//! both the `WQ_threshold` gate and the wait-time feedback. The generator
//! supports a plain Poisson process and a day/night-modulated Poisson
//! process with a piecewise-constant rate.

use rand::rngs::SmallRng;

use crate::dist::{Exp, Sample};

/// An arrival process generating non-decreasing submission times.
pub trait ArrivalProcess {
    /// Generates `n` arrival times (seconds, non-decreasing, starting near
    /// 0).
    fn generate(&self, rng: &mut SmallRng, n: usize) -> Vec<u64>;
}

/// Homogeneous Poisson arrivals.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    /// Jobs per second.
    pub rate: f64,
}

impl ArrivalProcess for Poisson {
    fn generate(&self, rng: &mut SmallRng, n: usize) -> Vec<u64> {
        assert!(self.rate > 0.0, "arrival rate must be positive");
        let exp = Exp { rate: self.rate };
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            t += exp.sample(rng);
            out.push(t as u64);
        }
        out
    }
}

/// Day/night-modulated Poisson arrivals.
///
/// The day consists of a "day" phase of `day_fraction · period` seconds at
/// rate `day_night_ratio ×` the night rate, normalised so the *average*
/// rate equals `avg_rate`. Sampling inverts the piecewise-linear integrated
/// rate exactly, so the process is a genuine non-homogeneous Poisson
/// process.
#[derive(Debug, Clone, Copy)]
pub struct DailyCycle {
    /// Average jobs per second over a full period.
    pub avg_rate: f64,
    /// Cycle length, seconds (86 400 for a day).
    pub period: u64,
    /// Fraction of the period in the high-rate phase, in (0, 1).
    pub day_fraction: f64,
    /// Ratio of day rate to night rate (≥ 1).
    pub day_night_ratio: f64,
}

impl DailyCycle {
    /// The (day, night) rates implied by the parameters.
    pub fn rates(&self) -> (f64, f64) {
        // avg = fd·rd + (1-fd)·rn with rd = ratio·rn
        let fd = self.day_fraction;
        let rn = self.avg_rate / (fd * self.day_night_ratio + (1.0 - fd));
        (self.day_night_ratio * rn, rn)
    }

    /// Advances from absolute time `t` until `target` units of integrated
    /// rate have elapsed; returns the new absolute time.
    fn advance(&self, mut t: f64, mut target: f64) -> f64 {
        let (rd, rn) = self.rates();
        let p = self.period as f64;
        let day_end = self.day_fraction * p;
        loop {
            let phase = t.rem_euclid(p);
            let (rate, boundary) = if phase < day_end {
                (rd, day_end)
            } else {
                (rn, p)
            };
            let span = boundary - phase;
            let capacity = rate * span;
            if target <= capacity {
                return t + target / rate;
            }
            target -= capacity;
            t += span;
        }
    }
}

impl ArrivalProcess for DailyCycle {
    fn generate(&self, rng: &mut SmallRng, n: usize) -> Vec<u64> {
        assert!(self.avg_rate > 0.0, "arrival rate must be positive");
        assert!(
            self.day_fraction > 0.0 && self.day_fraction < 1.0,
            "day fraction must be in (0,1)"
        );
        assert!(
            self.day_night_ratio >= 1.0,
            "day rate must be >= night rate"
        );
        let unit = Exp { rate: 1.0 };
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let target = unit.sample(rng);
            t = self.advance(t, target);
            out.push(t as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_simkernel::rng::stream_rng;

    #[test]
    fn poisson_mean_rate() {
        let p = Poisson { rate: 0.01 }; // one job per 100 s
        let mut rng = stream_rng(1, 0);
        let n = 50_000;
        let times = p.generate(&mut rng, n);
        assert_eq!(times.len(), n);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let span = *times.last().unwrap() as f64;
        let rate = n as f64 / span;
        assert!((rate / 0.01 - 1.0).abs() < 0.05, "rate = {rate}");
    }

    #[test]
    fn daily_cycle_rates() {
        let d = DailyCycle {
            avg_rate: 0.01,
            period: 86_400,
            day_fraction: 0.5,
            day_night_ratio: 3.0,
        };
        let (rd, rn) = d.rates();
        assert!((rd / rn - 3.0).abs() < 1e-12);
        assert!(((0.5 * rd + 0.5 * rn) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn daily_cycle_average_rate_holds() {
        let d = DailyCycle {
            avg_rate: 0.02,
            period: 86_400,
            day_fraction: 0.4,
            day_night_ratio: 4.0,
        };
        let mut rng = stream_rng(2, 0);
        let n = 60_000;
        let times = d.generate(&mut rng, n);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let span = *times.last().unwrap() as f64;
        let rate = n as f64 / span;
        assert!((rate / 0.02 - 1.0).abs() < 0.05, "rate = {rate}");
    }

    #[test]
    fn daily_cycle_is_actually_bursty() {
        // Count arrivals in day vs night phases; the ratio should approach
        // day_night_ratio.
        let d = DailyCycle {
            avg_rate: 0.05,
            period: 86_400,
            day_fraction: 0.5,
            day_night_ratio: 3.0,
        };
        let mut rng = stream_rng(3, 0);
        let times = d.generate(&mut rng, 100_000);
        let day = times.iter().filter(|&&t| t % 86_400 < 43_200).count();
        let night = times.len() - day;
        let ratio = day as f64 / night as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio = {ratio}");
    }

    #[test]
    fn advance_crosses_many_periods() {
        let d = DailyCycle {
            avg_rate: 1e-6, // one job per ~11.6 days
            period: 86_400,
            day_fraction: 0.5,
            day_night_ratio: 2.0,
        };
        let mut rng = stream_rng(4, 0);
        let times = d.generate(&mut rng, 10);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            *times.last().unwrap() > 86_400,
            "must span multiple periods"
        );
    }
}
