//! Discrete-event simulation kernel for the BSLD reproduction.
//!
//! This crate provides the building blocks shared by every simulator in the
//! workspace:
//!
//! * [`Time`] — an integer simulation clock (seconds), totally ordered and
//!   overflow-checked in debug builds;
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with stable FIFO tie-breaking;
//! * [`rng`] — seed-splitting utilities on top of [`rand::rngs::SmallRng`]
//!   so that every stochastic component of an experiment can be given an
//!   independent, reproducible stream;
//! * [`stats`] — online (Welford) statistics and confidence intervals used
//!   when summarising simulation runs.
//!
//! The kernel is intentionally independent of the scheduling domain: it knows
//! nothing about jobs, processors or power. See `bsld-sched` for the
//! scheduling engine built on top of it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod events;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use time::Time;
