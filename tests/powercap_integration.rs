//! Integration tests: the powercap subsystem end to end through the
//! facade — ledger vs post-hoc energy cross-validation, hard-cap
//! enforcement on calibrated workloads, sleep-state savings, and the
//! power-series writers.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, PowerSpec, SleepSpec};
use bsld::core::{PowerAwareConfig, Simulator, WqThreshold};
use bsld::metrics::series::{resample_power_series, write_power_series};
use bsld::sched::validate_schedule;
use bsld::workload::profiles::TraceProfile;

fn workload() -> bsld::workload::Workload {
    TraceProfile::sdsc_blue().scaled_cpus(64).generate(47, 300)
}

/// A hard cap at `fraction` of peak draw.
fn hard(fraction: f64) -> PowerSpec {
    PowerSpec {
        cap_fraction: Some(fraction),
        ..PowerSpec::off()
    }
}

/// A soft cap at `fraction` of peak draw with a queue-depth escape of 4.
fn soft(fraction: f64) -> PowerSpec {
    PowerSpec {
        soft_wq_escape: Some(4),
        ..hard(fraction)
    }
}

#[test]
fn ledger_cross_validates_against_energy_report() {
    let w = workload();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let observe = PowerSpec {
        observe: true,
        ..PowerSpec::off()
    };
    for policy in [
        PolicySpec::Baseline,
        PolicySpec::from(PowerAwareConfig::medium()),
    ] {
        let r = sim.run(&w.jobs, &policy, &observe).unwrap();
        // With no sleeping, the ledger integral over [0, makespan] is the
        // idle-aware energy scenario computed post hoc from the outcomes.
        let rel = r.power.unwrap().energy / r.run.metrics.energy.with_idle;
        assert!((rel - 1.0).abs() < 1e-9, "ledger/post-hoc = {rel}");
    }
}

#[test]
fn hard_cap_holds_for_dvfs_and_baseline() {
    let w = workload();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    for (fraction, policy) in [
        (0.5, PolicySpec::Baseline),
        (0.7, PolicySpec::from(PowerAwareConfig::medium())),
    ] {
        let cfg = PowerSpec {
            sleep: SleepSpec::Paper,
            ..hard(fraction)
        };
        let r = sim.run(&w.jobs, &policy, &cfg).unwrap();
        assert_eq!(r.run.outcomes.len(), w.jobs.len());
        validate_schedule(&r.run.outcomes, w.cpus).unwrap();
        let power = r.power.unwrap();
        let budget = power.budget.unwrap();
        for &(t, p) in &power.series {
            assert!(p <= budget + 1e-6, "{p} > {budget} at t={t}");
        }
    }
}

#[test]
fn soft_cap_records_violations_instead_of_stalling() {
    let w = workload();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    // A budget at the idle floor is infeasible for a hard cap…
    assert!(sim
        .run(&w.jobs, &PolicySpec::Baseline, &hard(0.15))
        .is_err());
    // …but a soft cap escapes through the queue-depth hatch and finishes.
    let r = sim
        .run(&w.jobs, &PolicySpec::Baseline, &soft(0.15))
        .unwrap();
    assert_eq!(r.run.outcomes.len(), w.jobs.len());
    let power = r.power.unwrap();
    assert!(power.cap.soft_violations > 0);
    let budget = power.budget.unwrap();
    assert!(power.peak > budget, "violations imply an over-budget peak");
}

#[test]
fn conservative_mode_caps_without_stalling() {
    let w = workload();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus).with_conservative();
    // Hard cap with room for down-gearing: must complete and hold.
    let medium = PolicySpec::from(PowerAwareConfig::medium());
    let capped = sim.run(&w.jobs, &medium, &hard(0.5)).unwrap();
    assert_eq!(capped.run.outcomes.len(), w.jobs.len());
    let power = capped.power.unwrap();
    let budget = power.budget.unwrap();
    for &(t, p) in &power.series {
        assert!(p <= budget + 1e-6, "{p} > {budget} at t={t}");
    }
    // A soft cap never stalls, even at an infeasible budget.
    let escaped = sim
        .run(&w.jobs, &PolicySpec::Baseline, &soft(0.15))
        .unwrap();
    assert_eq!(escaped.run.outcomes.len(), w.jobs.len());
    assert!(escaped.power.unwrap().cap.soft_violations > 0);
}

#[test]
fn boost_with_cap_and_sleep_keeps_ledger_within_makespan() {
    // Boost re-times running jobs, leaving stale completion events later
    // than the real makespan; the ledger must never advance past the end
    // of the run on their account.
    let w = workload();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus).with_boost(2);
    let policy = PolicySpec::BsldThreshold {
        th: 3.0,
        wq: WqThreshold::NoLimit,
    };
    let cfg = PowerSpec {
        sleep: SleepSpec::Paper,
        ..hard(0.8)
    };
    let r = sim.run(&w.jobs, &policy, &cfg).unwrap();
    assert_eq!(r.run.outcomes.len(), w.jobs.len());
    let makespan = r.run.metrics.makespan_secs;
    let last = r.power.unwrap().series.last().unwrap().0;
    assert!(
        last <= makespan,
        "series entry at t={last} past makespan {makespan}"
    );
}

#[test]
fn capping_trades_bsld_for_power() {
    let w = workload();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let loose = sim.run(&w.jobs, &PolicySpec::Baseline, &hard(1.0)).unwrap();
    let tight = sim
        .run(&w.jobs, &PolicySpec::Baseline, &hard(0.45))
        .unwrap();
    let peak = |r: &bsld::core::ScenarioResult| r.power.as_ref().unwrap().peak;
    assert!(
        peak(&tight) <= peak(&loose) + 1e-9,
        "a tighter cap cannot raise peak draw"
    );
    assert!(
        tight.run.metrics.avg_bsld >= loose.run.metrics.avg_bsld - 1e-9,
        "power capping cannot improve BSLD: {} vs {}",
        tight.run.metrics.avg_bsld,
        loose.run.metrics.avg_bsld
    );
}

#[test]
fn power_series_is_a_well_formed_step_function() {
    let w = workload();
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let sleep = PowerSpec {
        sleep: SleepSpec::Paper,
        ..PowerSpec::off()
    };
    let r = sim.run(&w.jobs, &PolicySpec::Baseline, &sleep).unwrap();
    let power = r.power.unwrap();
    let series = &power.series;
    assert!(!series.is_empty());
    assert_eq!(series[0].0, 0, "series starts at t=0");
    for w2 in series.windows(2) {
        assert!(w2[0].0 < w2[1].0, "instants strictly increasing");
    }
    for &(_, p) in series {
        assert!(p >= 0.0 && p.is_finite());
    }

    // The CSV writer emits one row per step plus a header.
    let mut buf = Vec::new();
    write_power_series(&mut buf, series).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), series.len() + 1);
    assert!(text.starts_with("time_s,power"));

    // Resampling preserves the integral over the covered span.
    let end = r.run.metrics.makespan_secs;
    let step = (end / 50).max(1);
    let coarse = resample_power_series(series, end, step);
    let coarse_integral: f64 = coarse
        .iter()
        .map(|&(t, p)| {
            let width = step.min(end - t);
            p * width as f64
        })
        .sum();
    // `energy` includes wake impulses, which the power-level series does
    // not carry; add them back for the comparison.
    let exact_integral = power.energy;
    let wake = power.sleep.wake_energy;
    assert!(
        ((coarse_integral + wake) / exact_integral - 1.0).abs() < 1e-9,
        "resampled integral {coarse_integral} + wake {wake} vs exact {exact_integral}"
    );
}

#[test]
fn deferred_head_on_idle_machine_wakes_once_per_sleep_transition() {
    // A 16-cpu machine with a budget below its awake-idle draw: a single
    // 1-cpu job cannot start until the idle processors descend into their
    // first sleep state at t=60 (SleepConfig::paper_default). No job event
    // exists before then, so only the hook-reported power event can wake
    // the scheduler — and it must do so exactly once.
    //
    // Budget calibration (A = p_active(top), p_idle = 0.21 A):
    //   awake-idle draw               16 * 0.21 A ≈ 3.36 A  (> budget)
    //   napping draw + job at top      15 * 0.4 * 0.21 A + A ≈ 2.26 A
    // so 2.5 A (fraction 2.5/16 of peak) vetoes at t=0 and admits at t=60.
    let sim = Simulator::paper_default("wake-test", 16);
    let jobs = vec![bsld::model::Job::new(
        0,
        bsld::simkernel::Time(0),
        1,
        50,
        50,
    )];
    let cfg = PowerSpec {
        sleep: SleepSpec::Paper,
        ..hard(2.5 / 16.0)
    };
    let r = sim.run(&jobs, &PolicySpec::Baseline, &cfg).unwrap();
    let power = r.power.unwrap();

    assert_eq!(r.run.outcomes.len(), 1, "the run must not stall");
    let o = &r.run.outcomes[0];
    assert_eq!(
        o.start,
        bsld::simkernel::Time(60),
        "start at the first sleep transition"
    );
    // Exactly three passes: the vetoed arrival, the single power-retry
    // wake-up (start), and the completion. A duplicated retry event would
    // add a fourth; a swallowed one would stall.
    assert_eq!(r.run.pass_stats.passes, 3, "exactly one wake-up");
    assert_eq!(power.cap.deferrals, 1, "one veto at arrival");
    assert!(power.sleep.sleeps >= 1);
    assert!(power.sleep.wakes >= 1);
}
