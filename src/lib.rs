//! # bsld — BSLD-threshold power-aware job scheduling for HPC centers
//!
//! Facade crate of the reproduction of *Etinski, Corbalan, Labarta, Valero:
//! "BSLD Threshold Driven Power Management Policy for HPC Centers"*
//! (IPDPS/IPPS 2010). Re-exports every workspace crate under one roof:
//!
//! * [`simkernel`] — discrete-event kernel (time, events, RNG, statistics);
//! * [`model`] — jobs, outcomes, the BSLD metric;
//! * [`cluster`] — DVFS gears, First Fit processor pool, availability
//!   profiles;
//! * [`power`] — the `ACfV²`+`αV` power model, β time model, energy
//!   accounting;
//! * [`swf`] — Standard Workload Format parsing/cleaning;
//! * [`workload`] — synthetic workloads calibrated to the paper's five
//!   traces;
//! * [`sched`] — the EASY backfilling engine with the frequency-policy and
//!   power hooks;
//! * [`powercap`] — the cluster power ledger, idle sleep states and
//!   power-cap enforcement;
//! * [`metrics`] — run summaries and report writers;
//! * [`obs`] — observability: the deterministic sim-time trace plane
//!   (Chrome-trace export) and the wall-clock profiling plane (counters,
//!   histograms, phase timers);
//! * [`core`] — the paper's BSLD-threshold policy, simulator facade, the
//!   declarative scenario API (`core::scenario`: one serializable spec, one
//!   `run()`, sweepable scenario files), the campaign layer
//!   (`core::campaign`: seed-replicated sweeps with mean ± 95 % CI,
//!   content-hash cell caching and resume) and the experiment harness
//!   reproducing every table and figure;
//! * [`par`] — the parallel sweep executor;
//! * [`serve`] — the `bsld-repro serve` daemon: resident workloads and
//!   cached cell results answering what-if queries over a Unix socket.
//!
//! ## Quickstart
//!
//! See the README's Quickstart: every run goes through
//! [`core::Simulator::run`]. The README's code blocks compile and run as
//! doctests of this crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
// The README's code blocks run as crate-level doctests, so a README that
// quotes a deleted API fails `cargo test`.
#![cfg_attr(doctest, doc = include_str!("../README.md"))]
pub use bsld_cluster as cluster;
pub use bsld_core as core;
pub use bsld_metrics as metrics;
pub use bsld_model as model;
pub use bsld_obs as obs;
pub use bsld_par as par;
pub use bsld_power as power;
pub use bsld_powercap as powercap;
pub use bsld_sched as sched;
pub use bsld_serve as serve;
pub use bsld_simkernel as simkernel;
pub use bsld_swf as swf;
pub use bsld_workload as workload;
