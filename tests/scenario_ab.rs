//! A/B equality harness: a spec-built run vs a hand-wired `Simulator`.
//!
//! The scenario layer must be a pure re-expression: building a workload
//! and simulator from a spec and running through `Scenario::run()` has to
//! reproduce, **bit for bit**, what hand-constructing
//! `TraceProfile::generate` + `Simulator::paper_default` +
//! `Simulator::run` produces. These tests replay the paper's grid
//! (Figs. 3–5) and the power-cap frontier at reduced scale and compare
//! outcomes, metrics and power series.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::experiments::{grid, powercap, ExpOptions};
use bsld::core::scenario::{PolicySpec, PowerSpec, ProfileName, Scenario, SleepSpec};
use bsld::core::{PowerAwareConfig, Simulator, WqThreshold};
use bsld::workload::profiles::TraceProfile;

const AB_JOBS: usize = 40;
const AB_SEED: u64 = 2010;

fn wired_profile(name: &str) -> TraceProfile {
    TraceProfile::paper_five()
        .into_iter()
        .find(|p| p.name == name)
        .expect("paper workload")
}

#[test]
fn scenario_runs_match_legacy_simulator_bit_for_bit() {
    // Cell-level A/B over the grid's parameter shapes, baseline included.
    let policies = [
        PolicySpec::Baseline,
        PolicySpec::BsldThreshold {
            th: 1.5,
            wq: WqThreshold::Limit(16),
        },
        PolicySpec::from(PowerAwareConfig::medium()),
    ];
    for profile in [ProfileName::Ctc, ProfileName::Sdsc, ProfileName::SdscBlue] {
        let w = wired_profile(profile.display_name()).generate(AB_SEED, AB_JOBS);
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        for policy in policies {
            let wired = sim.run(&w.jobs, &policy, &PowerSpec::off()).unwrap().run;
            let mut sc = Scenario::synthetic("ab", profile, AB_JOBS, AB_SEED);
            sc.policy = policy;
            let via_scenario = sc.run().unwrap();
            assert_eq!(
                via_scenario.run.outcomes, wired.outcomes,
                "{profile:?} {policy:?}: schedules diverged"
            );
            assert_eq!(
                via_scenario.run.metrics.avg_bsld.to_bits(),
                wired.metrics.avg_bsld.to_bits()
            );
            assert_eq!(
                via_scenario.run.metrics.energy.computational.to_bits(),
                wired.metrics.energy.computational.to_bits()
            );
        }
    }
}

#[test]
fn grid_experiment_matches_legacy_simulator_path() {
    // The Scenario-driven grid experiment vs an inline loop over a
    // hand-wired workload + Simulator per cell.
    let opts = ExpOptions::quick(AB_JOBS);
    let g = grid::run(&opts);
    assert_eq!(g.cells.len(), 5 * 12);
    for (name, base) in &g.baselines {
        let w = wired_profile(name).generate(opts.seed, opts.jobs);
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let wired_base = sim.run_baseline(&w.jobs).unwrap().metrics;
        assert_eq!(base.avg_bsld.to_bits(), wired_base.avg_bsld.to_bits());
        for &bt in &grid::BSLD_THRESHOLDS {
            for &wq in &grid::WQ_THRESHOLDS {
                let cell = g.cell(name, bt, wq).expect("complete grid");
                let cfg = PowerAwareConfig {
                    bsld_threshold: bt,
                    wq_threshold: wq,
                };
                let wired = sim
                    .run(&w.jobs, &PolicySpec::from(cfg), &PowerSpec::off())
                    .unwrap()
                    .run
                    .metrics;
                assert_eq!(
                    cell.avg_bsld.to_bits(),
                    wired.avg_bsld.to_bits(),
                    "{name} {bt}/{wq:?}"
                );
                assert_eq!(cell.reduced_jobs, wired.reduced_jobs);
                assert_eq!(
                    cell.norm_e_comp.to_bits(),
                    wired
                        .energy
                        .normalized_computational(&wired_base.energy)
                        .to_bits(),
                    "{name} {bt}/{wq:?}: normalised energy"
                );
                assert_eq!(cell.avg_wait.to_bits(), wired.avg_wait_secs.to_bits());
            }
        }
    }
}

#[test]
fn powercap_experiment_matches_legacy_simulator_path() {
    // The Scenario-driven power-cap sweep vs a hand-wired Simulator loop:
    // ledger energy, series and counters must agree to the bit.
    let opts = ExpOptions::quick(AB_JOBS);
    let sweep = powercap::run(&opts);
    for b in &sweep.baselines {
        let w = wired_profile(&b.workload).generate(opts.seed, opts.jobs);
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let observe = PowerSpec {
            observe: true,
            ..PowerSpec::off()
        };
        let wired = sim.run(&w.jobs, &PolicySpec::Baseline, &observe).unwrap();
        assert_eq!(
            b.energy.to_bits(),
            wired.power.unwrap().energy.to_bits(),
            "{}",
            b.workload
        );
        assert_eq!(b.avg_bsld.to_bits(), wired.run.metrics.avg_bsld.to_bits());
    }
    for cell in &sweep.cells {
        let w = wired_profile(&cell.workload).generate(opts.seed, opts.jobs);
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let policy = PolicySpec::BsldThreshold {
            th: cell.bsld_threshold,
            wq: WqThreshold::NoLimit,
        };
        let cfg = PowerSpec {
            cap_fraction: Some(cell.cap_fraction),
            sleep: SleepSpec::Paper,
            ..PowerSpec::off()
        };
        let wired = sim.run(&w.jobs, &policy, &cfg).unwrap();
        let power = wired.power.unwrap();
        let base_energy = sweep
            .baselines
            .iter()
            .find(|b| b.workload == cell.workload)
            .unwrap()
            .energy;
        assert_eq!(
            cell.norm_energy.to_bits(),
            (power.energy / base_energy).to_bits(),
            "{} cap {} th {}",
            cell.workload,
            cell.cap_fraction,
            cell.bsld_threshold
        );
        assert_eq!(
            cell.avg_bsld.to_bits(),
            wired.run.metrics.avg_bsld.to_bits()
        );
        assert_eq!(cell.deferrals, power.cap.deferrals);
        assert_eq!(cell.downgears, power.cap.downgears);
        assert_eq!(cell.wakes, power.sleep.wakes);
    }
}

#[test]
fn power_capped_scenario_matches_legacy_power_series() {
    // Full power-report equality on one capped cell, series included.
    let w = TraceProfile::sdsc_blue()
        .scaled_cpus(64)
        .generate(AB_SEED, 200);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let cfg = PowerSpec {
        cap_fraction: Some(0.7),
        sleep: SleepSpec::Paper,
        ..PowerSpec::off()
    };
    let medium = PolicySpec::from(PowerAwareConfig::medium());
    let wired = sim.run(&w.jobs, &medium, &cfg).unwrap();
    let wired_power = wired.power.unwrap();

    let mut sc = Scenario::synthetic("ab-cap", ProfileName::SdscBlue, 200, AB_SEED);
    sc = sc.map_workload(|wl| {
        if let bsld::core::scenario::WorkloadSpec::Synthetic { scale_cpus, .. } = wl {
            *scale_cpus = Some(64);
        }
    });
    sc.policy = medium;
    sc.power = cfg;
    let via = sc.run().unwrap();
    let power = via.power.expect("capped run reports power");

    assert_eq!(via.run.outcomes, wired.run.outcomes);
    assert_eq!(power.series, wired_power.series);
    assert_eq!(power.energy.to_bits(), wired_power.energy.to_bits());
    assert_eq!(power.peak.to_bits(), wired_power.peak.to_bits());
    assert_eq!(power.cap.deferrals, wired_power.cap.deferrals);
    assert_eq!(power.sleep.sleeps, wired_power.sleep.sleeps);
}
