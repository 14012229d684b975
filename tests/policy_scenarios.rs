//! Integration tests: the BSLD-threshold policy end to end.
//!
//! Each test pins one claim the paper makes about its algorithm's
//! behaviour, exercised through the full simulator on calibrated (scaled)
//! workloads.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod support;

use bsld::core::{PowerAwareConfig, Simulator, WqThreshold};
use bsld::model::GearId;
use bsld::sched::validate_schedule;
use bsld::workload::profiles::TraceProfile;
use support::dvfs;

fn cfg(bsld: f64, wq: WqThreshold) -> PowerAwareConfig {
    PowerAwareConfig {
        bsld_threshold: bsld,
        wq_threshold: wq,
    }
}

#[test]
fn single_idle_job_runs_at_lowest_gear() {
    // One long job on an empty machine: predicted BSLD at the lowest gear
    // is Coef(0.8 GHz) ≈ 1.94 ≤ 2 → the policy must pick gear 0.
    let w = TraceProfile::sdsc_blue().scaled_cpus(32).generate(1, 1);
    let sim = Simulator::paper_default("t", 32);
    let res = dvfs(&sim, &w.jobs, cfg(2.0, WqThreshold::NoLimit));
    assert_eq!(res.outcomes[0].gear, GearId(0));
    assert_eq!(res.metrics.reduced_jobs, 1);
}

#[test]
fn tight_threshold_reduces_fewer_jobs() {
    let w = TraceProfile::sdsc_blue().scaled_cpus(64).generate(3, 400);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let strict = dvfs(&sim, &w.jobs, cfg(1.2, WqThreshold::NoLimit));
    let loose = dvfs(&sim, &w.jobs, cfg(3.0, WqThreshold::NoLimit));
    assert!(
        strict.metrics.reduced_jobs <= loose.metrics.reduced_jobs,
        "{} > {}",
        strict.metrics.reduced_jobs,
        loose.metrics.reduced_jobs
    );
    assert!(strict.metrics.energy.computational >= loose.metrics.energy.computational);
}

#[test]
fn wq_limit_ordering_on_energy() {
    // For a fixed BSLD threshold, relaxing the WQ limit can only admit more
    // DVFS: energy at WQ=NO ≤ energy at WQ=16 ≤ ... is the paper's
    // observation (it holds in expectation; we assert the endpoints).
    let w = TraceProfile::sdsc_blue().scaled_cpus(64).generate(5, 500);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let e = |wq| {
        dvfs(&sim, &w.jobs, cfg(2.0, wq))
            .metrics
            .energy
            .computational
    };
    let e0 = e(WqThreshold::Limit(0));
    let eno = e(WqThreshold::NoLimit);
    assert!(
        eno <= e0 * 1.02,
        "no-limit {eno} should not exceed WQ0 {e0}"
    );
}

#[test]
fn saturated_machine_gets_no_savings() {
    // The SDSC phenomenon: a machine under heavy backlog has such high
    // predicted BSLDs that the policy cannot reduce jobs. Use the full-size
    // SDSC profile (128 cpus) so the backlog dynamics match the paper's.
    let w = TraceProfile::sdsc().generate(2010, 4000);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let base = sim.run_baseline(&w.jobs).unwrap();
    assert!(
        base.metrics.avg_bsld > 10.0,
        "workload must be saturated, got {}",
        base.metrics.avg_bsld
    );
    let dvfs = dvfs(&sim, &w.jobs, cfg(2.0, WqThreshold::Limit(16)));
    let norm = dvfs
        .metrics
        .energy
        .normalized_computational(&base.metrics.energy);
    assert!(
        norm > 0.9,
        "saturated workloads should save almost nothing, normalized = {norm}"
    );
    let frac = dvfs.metrics.reduced_jobs as f64 / w.jobs.len() as f64;
    assert!(
        frac < 0.5,
        "most jobs must stay at top frequency, reduced {frac}"
    );
}

#[test]
fn reduced_jobs_run_longer_but_schedule_stays_valid() {
    let w = TraceProfile::llnl_thunder()
        .scaled_cpus(128)
        .generate(9, 400);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let res = dvfs(&sim, &w.jobs, cfg(3.0, WqThreshold::NoLimit));
    validate_schedule(&res.outcomes, w.cpus).unwrap();
    let top = GearId(5);
    for o in &res.outcomes {
        let job = &w.jobs[o.id.index()];
        if o.was_reduced(top) {
            assert!(
                o.penalized_runtime() >= job.runtime,
                "{}: dilated runtime shorter than nominal",
                o.id
            );
        } else {
            assert_eq!(o.penalized_runtime(), job.runtime);
        }
    }
}

#[test]
fn policy_never_starts_jobs_early_or_shrinks_work() {
    let w = TraceProfile::ctc().scaled_cpus(64).generate(11, 500);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let base = sim.run_baseline(&w.jobs).unwrap();
    let dvfs = dvfs(&sim, &w.jobs, cfg(2.0, WqThreshold::NoLimit));
    // Aggregate dilation: total busy time under DVFS >= baseline.
    assert!(dvfs.metrics.energy.busy_cpu_secs >= base.metrics.energy.busy_cpu_secs);
    // Per-job arrival sanity under both.
    for o in base.outcomes.iter().chain(&dvfs.outcomes) {
        assert!(o.start >= o.arrival);
    }
}

#[test]
fn energy_saving_band_matches_paper_on_midload_workload() {
    // The paper's headline: 7–18 % average CPU energy reduction. SDSC-Blue
    // (mid load) with the medium config must land in a generous band around
    // that range.
    let w = TraceProfile::sdsc_blue().generate(2010, 1500);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let base = sim.run_baseline(&w.jobs).unwrap();
    let dvfs = dvfs(&sim, &w.jobs, PowerAwareConfig::medium());
    let saving = 1.0
        - dvfs
            .metrics
            .energy
            .normalized_computational(&base.metrics.energy);
    assert!(
        (0.04..=0.35).contains(&saving),
        "mid-load saving out of band: {saving}"
    );
}

#[test]
fn boost_extension_bounds_wait_inflation() {
    // With dynamic boost at a tight queue limit, the DVFS-induced wait
    // inflation must shrink relative to the un-boosted policy.
    let w = TraceProfile::llnl_thunder()
        .scaled_cpus(96)
        .generate(13, 500);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let c = cfg(3.0, WqThreshold::NoLimit);
    let plain = dvfs(&sim, &w.jobs, c);
    let boosted = dvfs(&sim.clone().with_boost(2), &w.jobs, c);
    validate_schedule(&boosted.outcomes, w.cpus).unwrap();
    assert!(
        boosted.metrics.avg_wait_secs <= plain.metrics.avg_wait_secs + 1.0,
        "boost must not increase waits: {} vs {}",
        boosted.metrics.avg_wait_secs,
        plain.metrics.avg_wait_secs
    );
}
