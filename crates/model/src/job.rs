//! Rigid parallel jobs.

use bsld_simkernel::Time;

/// Unique job identifier within one workload (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A rigid parallel job as scheduled by the paper's simulator.
///
/// Both `runtime` and `requested` are expressed **at the top CPU frequency**;
/// running at a reduced gear dilates them by the β model's `Coef(f)` factor
/// (see `bsld-power`).
///
/// Invariants enforced by [`Job::new`]:
/// * `cpus >= 1`;
/// * `runtime >= 1` (zero-length jobs are dropped during trace cleaning);
/// * `requested >= runtime` — backfilling relies on the user estimate being
///   an upper bound. Real logs occasionally violate this (jobs that overrun
///   and are killed); trace cleaning clamps them, mirroring how the EASY
///   reservation bookkeeping treats the estimate as binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Dense identifier (also the arrival order index in a workload).
    pub id: JobId,
    /// Submission time.
    pub arrival: Time,
    /// Number of processors the job needs for its whole lifetime (rigid).
    pub cpus: u32,
    /// Actual runtime at the top frequency, in seconds.
    pub runtime: u64,
    /// User-requested runtime (estimate) at the top frequency, in seconds.
    pub requested: u64,
    /// Per-job frequency-sensitivity coefficient of the β time model.
    /// The paper uses a global β = 0.5; the per-job field supports the
    /// paper's stated future work of job-specific β analysis.
    pub beta: f64,
}

impl Job {
    /// Creates a job, clamping the fields to the documented invariants.
    pub fn new(id: u32, arrival: Time, cpus: u32, runtime: u64, requested: u64) -> Self {
        let runtime = runtime.max(1);
        Job {
            id: JobId(id),
            arrival,
            cpus: cpus.max(1),
            runtime,
            requested: requested.max(runtime),
            beta: 0.5,
        }
    }

    /// Sets a per-job β (builder style).
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "β must lie in [0, 1]");
        self.beta = beta;
        self
    }

    /// Work volume in processor-seconds at the top frequency.
    #[inline]
    pub fn area(&self) -> u64 {
        self.cpus as u64 * self.runtime
    }

    /// Whether the user estimate was exact.
    #[inline]
    pub fn estimate_exact(&self) -> bool {
        self.requested == self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_invariants() {
        let j = Job::new(0, Time(10), 0, 0, 0);
        assert_eq!(j.cpus, 1);
        assert_eq!(j.runtime, 1);
        assert_eq!(j.requested, 1);

        let j = Job::new(1, Time(0), 4, 100, 50);
        assert_eq!(j.requested, 100, "requested clamped up to runtime");
    }

    #[test]
    fn area_and_estimate() {
        let j = Job::new(0, Time(0), 8, 3600, 7200);
        assert_eq!(j.area(), 8 * 3600);
        assert!(!j.estimate_exact());

        let exact = Job::new(1, Time(0), 1, 60, 60);
        assert!(exact.estimate_exact());
    }

    #[test]
    fn beta_builder() {
        let j = Job::new(0, Time(0), 1, 10, 10).with_beta(0.25);
        assert_eq!(j.beta, 0.25);
    }

    #[test]
    #[should_panic(expected = "β must lie in [0, 1]")]
    fn beta_out_of_range_panics() {
        let _ = Job::new(0, Time(0), 1, 10, 10).with_beta(1.5);
    }

    #[test]
    fn job_id_display_and_index() {
        assert_eq!(JobId(3).to_string(), "j3");
        assert_eq!(JobId(3).index(), 3);
    }
}
