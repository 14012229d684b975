//! Parallel job scheduling engine.
//!
//! Implements the scheduling substrate of Etinski et al. 2010:
//!
//! * **EASY backfilling** (Mu'alem & Feitelson): jobs start in FCFS order;
//!   the head of the wait queue holds the only reservation, computed from
//!   the *requested* times of running jobs; any other queued job may start
//!   immediately iff doing so cannot delay that reservation. All queued jobs
//!   are rescheduled whenever a job finishes early.
//! * A [`FrequencyPolicy`] hook through which a DVFS gear is chosen per job
//!   at scheduling time — [`FixedGearPolicy`] pins every job to one gear
//!   (the no-DVFS baseline at the top gear); the paper's BSLD-threshold
//!   policy lives in `bsld-core`.
//! * A [`PowerHook`] through which a power manager (see `bsld-powercap`)
//!   observes every start/completion/gear change and may veto or down-gear
//!   decisions that would exceed a cluster power budget.
//! * An optional **dynamic boost** extension (the paper's stated future
//!   work): running reduced jobs are re-timed to the top gear when the wait
//!   queue grows beyond a limit.
//!
//! The engine is event-driven (arrivals and completions), deterministic,
//! and validates its own schedules in debug builds.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod engine;
pub mod hook;
pub mod policy;
pub mod validate;

pub use engine::{
    simulate, simulate_with_hook, BoostConfig, EngineConfig, PassStats, SchedMode, SimError,
    SimResult, Simulation,
};
pub use hook::{NoopHook, PowerHook};
pub use policy::{DecisionCtx, FixedGearPolicy, FrequencyPolicy};
pub use validate::validate_schedule;
