//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one table or figure of Etinski et al.
//! 2010 at a reduced job count (the code path is identical to the full
//! `bsld-repro` run; only `jobs` differs, so criterion measures the real
//! experiment kernels without taking minutes per sample).

#![forbid(unsafe_code)]

use bsld_core::experiments::ExpOptions;
use bsld_core::scenario::{PolicySpec, PowerSpec};
use bsld_core::{PowerAwareConfig, Simulator};
use bsld_metrics::RunMetrics;
use bsld_workload::profiles::TraceProfile;
use bsld_workload::Workload;

/// The standard reduced scale for benches.
pub const BENCH_JOBS: usize = 400;

/// Reduced-scale experiment options (no CSV output).
pub fn bench_opts() -> ExpOptions {
    ExpOptions {
        threads: 1,
        ..ExpOptions::quick(BENCH_JOBS)
    }
}

/// Generates the benchmark workload for a named profile.
pub fn workload(name: &str, jobs: usize) -> Workload {
    let profile = match name {
        "CTC" => TraceProfile::ctc(),
        "SDSC" => TraceProfile::sdsc(),
        "SDSCBlue" => TraceProfile::sdsc_blue(),
        "LLNLThunder" => TraceProfile::llnl_thunder(),
        "LLNLAtlas" => TraceProfile::llnl_atlas(),
        other => panic!("unknown workload {other}"),
    };
    profile.generate(2010, jobs)
}

/// Runs the no-DVFS baseline on a workload.
pub fn run_baseline(w: &Workload) -> RunMetrics {
    Simulator::paper_default(&w.cluster_name, w.cpus)
        .run_baseline(&w.jobs)
        .expect("fits")
        .metrics
}

/// Runs the power-aware policy on a workload.
pub fn run_policy(w: &Workload, cfg: &PowerAwareConfig, enlarged_pct: u32) -> RunMetrics {
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let sim = if enlarged_pct > 0 {
        sim.enlarged(enlarged_pct)
    } else {
        sim
    };
    sim.run(&w.jobs, &PolicySpec::from(*cfg), &PowerSpec::off())
        .expect("fits")
        .run
        .metrics
}
