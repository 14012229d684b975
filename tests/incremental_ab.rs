//! A/B determinism harness: the incremental scheduling engine vs the full
//! re-scheduling oracle.
//!
//! `EngineConfig::incremental = false` preserves the pre-refactor
//! behaviour — every event rebuilds the availability profile and re-runs
//! the whole pass. These tests replay the paper's grid (Figs. 3–5) and
//! enlarged-system (Figs. 7–9) experiment shapes at reduced scale and
//! assert the incremental engine produces **bit-identical**
//! `SimResult.outcomes`, while doing measurably fewer full profile
//! rebuilds (counters exposed via `SimResult::stats` /
//! `RunResult::pass_stats`). Power-capped runs are compared too: there the
//! power hook must also see the same calls, so the whole `PowerReport`
//! (ledger energy, draw series, cap and sleep counters) must match.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod support;

use bsld::core::scenario::{PolicySpec, PowerSpec, SleepSpec};
use bsld::core::{PowerAwareConfig, ScenarioResult, Simulator, WqThreshold};
use bsld::model::Job;
use bsld::sched::{PassStats, SimError};
use bsld::simkernel::Time;
use bsld::workload::profiles::TraceProfile;
use support::dvfs;

const AB_JOBS: usize = 250;
const AB_SEED: u64 = 2010;

fn grid_profiles() -> Vec<TraceProfile> {
    TraceProfile::paper_five()
}

#[test]
fn grid_outcomes_bit_identical() {
    // The grid sweep: every workload × BSLD threshold × WQ threshold, plus
    // the no-DVFS baseline, incremental vs full re-scan.
    let thresholds = [1.5, 3.0];
    let wqs = [
        WqThreshold::Limit(0),
        WqThreshold::Limit(16),
        WqThreshold::NoLimit,
    ];
    for profile in grid_profiles() {
        let w = profile.generate(AB_SEED, AB_JOBS);
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let oracle = sim.clone().with_full_rescan();

        let a = sim.run_baseline(&w.jobs).unwrap();
        let b = oracle.run_baseline(&w.jobs).unwrap();
        assert_eq!(
            a.outcomes, b.outcomes,
            "{}: baseline diverged",
            w.cluster_name
        );

        for bt in thresholds {
            for wq in wqs {
                let cfg = PowerAwareConfig {
                    bsld_threshold: bt,
                    wq_threshold: wq,
                };
                let a = dvfs(&sim, &w.jobs, cfg);
                let b = dvfs(&oracle, &w.jobs, cfg);
                assert_eq!(
                    a.outcomes,
                    b.outcomes,
                    "{}: diverged at {}",
                    w.cluster_name,
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn enlarged_outcomes_bit_identical() {
    // The enlarged-systems sweep shape: BSLD threshold 2, WQ ∈ {0, NO},
    // machine enlarged by the paper's sizes.
    for profile in [TraceProfile::sdsc_blue(), TraceProfile::ctc()] {
        let w = profile.generate(AB_SEED, AB_JOBS);
        let base = Simulator::paper_default(&w.cluster_name, w.cpus);
        for pct in [10, 50, 125] {
            for wq in [WqThreshold::Limit(0), WqThreshold::NoLimit] {
                let cfg = PowerAwareConfig {
                    bsld_threshold: 2.0,
                    wq_threshold: wq,
                };
                let sim = base.enlarged(pct);
                let a = dvfs(&sim, &w.jobs, cfg);
                let b = dvfs(&sim.clone().with_full_rescan(), &w.jobs, cfg);
                assert_eq!(
                    a.outcomes,
                    b.outcomes,
                    "{} +{}%: diverged at {}",
                    w.cluster_name,
                    pct,
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn conservative_outcomes_bit_identical() {
    let w = TraceProfile::sdsc().generate(AB_SEED, AB_JOBS);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus).with_conservative();
    let a = sim.run_baseline(&w.jobs).unwrap();
    let b = sim
        .clone()
        .with_full_rescan()
        .run_baseline(&w.jobs)
        .unwrap();
    assert_eq!(a.outcomes, b.outcomes);
}

/// A deliberately saturated workload: arrivals outpace service so the
/// queue stays deep — the regime where the incremental engine's skip and
/// in-place updates pay off.
fn saturated_workload(n: u32) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let arrival = (i as u64 / 4) * 15; // bursts of four every 15 s
            let cpus = 1 + i % 8;
            let runtime = 300 + (i as u64 * 41) % 900;
            let requested = runtime + 100 + (i as u64 * 17) % 1200;
            Job::new(i, Time(arrival), cpus, runtime, requested)
        })
        .collect()
}

#[test]
fn saturated_load_halves_profile_rebuilds() {
    // The acceptance gate at test scale (the criterion bench replays it at
    // 10k jobs): outcomes identical, and the incremental engine performs
    // at least 2x fewer full profile rebuilds than the oracle.
    let jobs = saturated_workload(2_000);
    let sim = Simulator::paper_default("saturated", 32);
    let incr = sim.run_baseline(&jobs).unwrap();
    let full = sim.clone().with_full_rescan().run_baseline(&jobs).unwrap();

    assert_eq!(incr.outcomes, full.outcomes, "outcomes must be identical");
    assert_eq!(full.pass_stats.passes_skipped, 0);
    assert!(incr.pass_stats.passes_skipped > 0);
    assert!(
        2 * incr.pass_stats.profile_rebuilds <= full.pass_stats.profile_rebuilds,
        "expected >= 2x fewer rebuilds: incremental {} vs full {}",
        incr.pass_stats.profile_rebuilds,
        full.pass_stats.profile_rebuilds
    );
}

#[test]
fn same_instant_bursts_under_wq_gates_bit_identical() {
    // Bursts of four same-instant arrivals under wait-queue gates: each
    // arrival must be offered to backfilling at the queue depth the full
    // re-scan shows it. Batching a burst into one pass would show the
    // first arrivals a deeper queue and flip their gear (or their start).
    let jobs = saturated_workload(600);
    let sim = Simulator::paper_default("saturated", 32);
    let oracle = sim.clone().with_full_rescan();
    for (bsld_threshold, wq) in [(2.0, 0), (2.0, 4), (1.5, 16)] {
        let cfg = PowerAwareConfig {
            bsld_threshold,
            wq_threshold: WqThreshold::Limit(wq),
        };
        let a = dvfs(&sim, &jobs, cfg);
        let b = dvfs(&oracle, &jobs, cfg);
        assert_eq!(a.outcomes, b.outcomes, "diverged at {}", cfg.label());
        assert!(
            a.pass_stats.passes_skipped > 0,
            "{}: no elision",
            cfg.label()
        );
        assert_eq!(b.pass_stats.passes_skipped, 0);
    }
}

/// The two policies the capped A/B runs under: 2/NO and the WQ-limited
/// 2/WQ4, whose skipped passes also re-check the head's gear.
fn capped_policies() -> [PowerAwareConfig; 2] {
    [WqThreshold::NoLimit, WqThreshold::Limit(4)].map(|wq| PowerAwareConfig {
        bsld_threshold: 2.0,
        wq_threshold: wq,
    })
}

/// Everything a capped run reports, compared bit for bit.
fn assert_same_capped_run(
    a: &Result<ScenarioResult, SimError>,
    b: &Result<ScenarioResult, SimError>,
    what: &str,
) {
    let (a, b) = match (a, b) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            assert_eq!(a.as_ref().err(), b.as_ref().err(), "{what}: run status");
            return;
        }
    };
    assert_eq!(a.run.outcomes, b.run.outcomes, "{what}: outcomes");
    let (pa, pb) = (a.power.as_ref().unwrap(), b.power.as_ref().unwrap());
    assert_eq!(
        pa.energy.to_bits(),
        pb.energy.to_bits(),
        "{what}: ledger energy"
    );
    assert_eq!(pa.peak.to_bits(), pb.peak.to_bits(), "{what}: peak");
    assert_eq!(
        pa.average.to_bits(),
        pb.average.to_bits(),
        "{what}: average"
    );
    assert_eq!(pa.series, pb.series, "{what}: power series");
    assert_eq!(pa.cap, pb.cap, "{what}: CapStats");
    assert_eq!(pa.sleep, pb.sleep, "{what}: SleepStats");
    assert_eq!(pa.rails, pb.rails, "{what}: rail energies");
}

#[test]
fn capped_runs_bit_identical_with_identical_power_reports() {
    // Five profiles x hard caps {0.45, 0.8} x the paper's sleep ladder x
    // {2/NO, 2/WQ4}: the hook-aware incremental engine vs the full
    // re-scan. Elision must not change what the hook is asked, so the
    // ledger, the enforcement counters and the sleep counters agree too.
    let mut elided = 0;
    for profile in grid_profiles() {
        let w = profile.generate(AB_SEED, AB_JOBS);
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let oracle = sim.clone().with_full_rescan();
        for cap in [0.45, 0.8] {
            for policy in capped_policies() {
                let cfg = PowerSpec {
                    cap_fraction: Some(cap),
                    sleep: SleepSpec::Paper,
                    ..PowerSpec::off()
                };
                let spec = PolicySpec::from(policy);
                let a = sim.run(&w.jobs, &spec, &cfg);
                let b = oracle.run(&w.jobs, &spec, &cfg);
                let what = format!("{} cap {cap} {}", w.cluster_name, policy.label());
                assert_same_capped_run(&a, &b, &what);
                if let (Ok(a), Ok(b)) = (&a, &b) {
                    assert_eq!(b.run.pass_stats.passes_skipped, 0, "{what}");
                    elided += a.run.pass_stats.passes_skipped;
                }
            }
        }
    }
    assert!(elided > 0, "capped runs must elide passes");
}

#[test]
fn pass_counters_are_pinned_on_a_small_fixture() {
    // Exact counters: a lost elision or in-place reuse (more passes or
    // more rebuilds) fails here even though outcomes stay identical.
    let jobs = saturated_workload(400);
    let sim = Simulator::paper_default("saturated", 32);
    let wq4 = PowerAwareConfig {
        bsld_threshold: 2.0,
        wq_threshold: WqThreshold::Limit(4),
    };
    let capped = PowerSpec {
        cap_fraction: Some(0.8),
        sleep: SleepSpec::Paper,
        ..PowerSpec::off()
    };
    let medium = PolicySpec::from(PowerAwareConfig::medium());
    let baseline = sim.run_baseline(&jobs).unwrap().pass_stats;
    let wq = dvfs(&sim, &jobs, wq4).pass_stats;
    let cap = sim.run(&jobs, &medium, &capped).unwrap().run.pass_stats;
    let stats = |passes, profile_rebuilds, passes_skipped| PassStats {
        passes,
        profile_rebuilds,
        passes_skipped,
    };
    // One event per arrival, even within a same-instant burst of four;
    // an arrival that cannot start behind a blocked head is skipped.
    assert_eq!(baseline, stats(410, 1, 390), "baseline");
    // The WQ gate is elision-safe too: an arrival that changes the queue
    // depth re-asks the head's gear and takes the full pass only when it
    // changes.
    assert_eq!(wq, stats(411, 1, 389), "2/WQ4");
    // Arrivals and power retries the hook has no pending veto for are
    // skipped.
    assert_eq!(cap, stats(429, 38, 824), "capped 2/NO");
}
