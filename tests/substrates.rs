//! Integration tests: scheduling substrates beyond the paper's EASY —
//! conservative backfilling and resource selection policies — exercised at
//! workload scale through the facade.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod support;

use bsld::cluster::SelectionPolicy;
use bsld::core::{PowerAwareConfig, Simulator};
use bsld::sched::validate_schedule;
use bsld::workload::profiles::TraceProfile;
use support::dvfs;

#[test]
fn conservative_absorbs_dvfs_feedback_better_than_easy() {
    // The reproduction's headline extra finding: conservative backfilling's
    // duration-aware per-job reservations price the DVFS dilation into
    // every allocation, which dampens the wait-feedback loop that hurts
    // EASY at aggressive settings.
    let w = TraceProfile::sdsc_blue().generate(2010, 1500);
    let cfg = PowerAwareConfig::medium();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let easy = dvfs(&sim, &w.jobs, cfg).metrics;
    let cons = dvfs(&sim.clone().with_conservative(), &w.jobs, cfg).metrics;
    assert!(
        cons.avg_bsld <= easy.avg_bsld,
        "conservative should absorb the feedback: {} vs {}",
        cons.avg_bsld,
        easy.avg_bsld
    );
    // At comparable energy (within a few percent).
    let ratio = cons.energy.computational / easy.energy.computational;
    assert!((0.9..=1.1).contains(&ratio), "energy ratio {ratio}");
}

#[test]
fn conservative_baseline_close_to_easy_on_moderate_load() {
    let w = TraceProfile::ctc().generate(7, 1200);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let easy = sim.run_baseline(&w.jobs).unwrap();
    let cons = sim
        .clone()
        .with_conservative()
        .run_baseline(&w.jobs)
        .unwrap();
    validate_schedule(&cons.outcomes, w.cpus).unwrap();
    // Conservative sacrifices some backfilling; waits may rise, but the
    // schedules live in the same regime (classic EASY-vs-conservative
    // result from the backfilling literature).
    assert!(cons.metrics.avg_wait_secs >= easy.metrics.avg_wait_secs * 0.8);
    assert!(cons.metrics.avg_wait_secs <= easy.metrics.avg_wait_secs * 3.0 + 600.0);
}

#[test]
fn contiguous_selection_costs_throughput() {
    let w = TraceProfile::sdsc().generate(11, 800);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let ff = sim.run_baseline(&w.jobs).unwrap();
    let contig = sim
        .clone()
        .with_selection(SelectionPolicy::ContiguousFirstFit)
        .run_baseline(&w.jobs)
        .unwrap();
    validate_schedule(&contig.outcomes, w.cpus).unwrap();
    assert!(
        contig.metrics.avg_wait_secs >= ff.metrics.avg_wait_secs,
        "fragmentation cannot reduce waits: {} vs {}",
        contig.metrics.avg_wait_secs,
        ff.metrics.avg_wait_secs
    );
    assert!(contig.metrics.makespan_secs >= ff.metrics.makespan_secs);
}

#[test]
fn selection_policy_does_not_change_energy_accounting() {
    // Last Fit is schedule-identical to First Fit, so all metrics match
    // exactly (processor identity is invisible to count-based scheduling
    // and to the homogeneous power model).
    let w = TraceProfile::sdsc_blue().scaled_cpus(64).generate(13, 400);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let ff = dvfs(&sim, &w.jobs, PowerAwareConfig::medium()).metrics;
    let lf = dvfs(
        &sim.clone().with_selection(SelectionPolicy::LastFit),
        &w.jobs,
        PowerAwareConfig::medium(),
    )
    .metrics;
    assert_eq!(ff.avg_bsld.to_bits(), lf.avg_bsld.to_bits());
    assert_eq!(
        ff.energy.computational.to_bits(),
        lf.energy.computational.to_bits()
    );
    assert_eq!(ff.reduced_jobs, lf.reduced_jobs);
}

#[test]
fn conservative_composes_with_boost() {
    let w = TraceProfile::llnl_thunder()
        .scaled_cpus(96)
        .generate(17, 400);
    let cfg = PowerAwareConfig {
        bsld_threshold: 3.0,
        wq_threshold: bsld::core::WqThreshold::NoLimit,
    };
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus).with_conservative();
    let plain = dvfs(&sim, &w.jobs, cfg);
    let boosted = dvfs(&sim.clone().with_boost(2), &w.jobs, cfg);
    validate_schedule(&boosted.outcomes, w.cpus).unwrap();
    assert!(boosted.metrics.avg_wait_secs <= plain.metrics.avg_wait_secs + 1.0);
    assert!(boosted.metrics.energy.computational >= plain.metrics.energy.computational - 1e-9);
}
