//! Helpers shared by the integration tests.

use bsld::core::scenario::{PolicySpec, PowerSpec};
use bsld::core::{PowerAwareConfig, RunResult, Simulator};
use bsld::model::Job;

/// The paper's policy at `cfg` on `sim`, without power instrumentation.
pub fn dvfs(sim: &Simulator, jobs: &[Job], cfg: PowerAwareConfig) -> RunResult {
    sim.run(jobs, &PolicySpec::from(cfg), &PowerSpec::off())
        .unwrap()
        .run
}
