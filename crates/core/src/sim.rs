//! The simulator facade.
//!
//! Bundles a cluster, the paper's power and time models and the scheduling
//! engine behind one call, [`Simulator::run`]: a [`PolicySpec`] (the
//! no-DVFS baseline, a pinned gear or the paper's BSLD-threshold policy)
//! under a [`PowerSpec`] (off, or a power ledger with idle sleep states and
//! an optional cluster budget, via `bsld-powercap`).

use bsld_cluster::{Cluster, GearSet};
use bsld_metrics::RunMetrics;
use bsld_model::{GearId, Job, JobOutcome};
use bsld_power::{BetaModel, PaperDvfs, RailSet};
use bsld_powercap::{PowerCap, PowerCapPolicy};
use bsld_sched::{
    simulate, simulate_with_hook, BoostConfig, EngineConfig, FixedGearPolicy, FrequencyPolicy,
    PassStats, SimError,
};

use crate::policy::{BsldThresholdPolicy, PowerAwareConfig};
use crate::scenario::{PolicySpec, PowerSpec, ScenarioResult};

/// A simulation result: the paper's metrics plus the raw outcomes.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Summary metrics (BSLD, waits, energy, reduced jobs, ...).
    pub metrics: RunMetrics,
    /// Raw per-job outcomes (completion order).
    pub outcomes: Vec<JobOutcome>,
    /// Engine pass/rebuild/skip counters (incremental-engine diagnostics).
    pub pass_stats: PassStats,
}

/// A configured machine + models, ready to run workloads.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The machine description.
    pub cluster: Cluster,
    /// The machine's power model: one or more subsystem rails (the
    /// default is a single CPU rail carrying the paper's model).
    pub power: RailSet,
    /// The β execution-time model (dilation).
    pub time_model: BetaModel,
    /// Engine options (EASY with backfilling and no trace sink by default).
    pub engine: EngineConfig,
}

impl Simulator {
    /// The paper's setup for a machine of `cpus` processors: Table 2 gear
    /// set, 25 % static share, 2.5 activity ratio, β = 0.5 dilation, EASY
    /// backfilling.
    pub fn paper_default(name: &str, cpus: u32) -> Simulator {
        let gears = GearSet::paper();
        Simulator {
            cluster: Cluster::new(name, cpus, gears.clone()),
            power: RailSet::cpu(Box::new(PaperDvfs::paper(gears.clone()))),
            time_model: BetaModel::new(gears),
            engine: EngineConfig::default(),
        }
    }

    /// A simulator over an explicit cluster (custom gear sets).
    pub fn with_cluster(cluster: Cluster) -> Simulator {
        let gears = cluster.gears.clone();
        Simulator {
            cluster,
            power: RailSet::cpu(Box::new(PaperDvfs::paper(gears.clone()))),
            time_model: BetaModel::new(gears),
            engine: EngineConfig::default(),
        }
    }

    /// The same simulator on a machine enlarged by `percent` % (Section
    /// 5.2's study).
    pub fn enlarged(&self, percent: u32) -> Simulator {
        Simulator {
            cluster: self.cluster.enlarged(percent),
            power: self.power.clone(),
            time_model: self.time_model.clone(),
            engine: self.engine.clone(),
        }
    }

    /// Disables backfilling (FCFS ablation, builder style).
    pub fn without_backfill(mut self) -> Simulator {
        self.engine.backfill = false;
        self
    }

    /// Switches to conservative backfilling (builder style): every queued
    /// job holds a reservation instead of only the head.
    pub fn with_conservative(mut self) -> Simulator {
        self.engine.mode = bsld_sched::SchedMode::Conservative;
        self
    }

    /// Overrides the resource selection policy (builder style). The paper
    /// uses First Fit; contiguous selection models partition-constrained
    /// machines.
    pub fn with_selection(mut self, selection: bsld_cluster::SelectionPolicy) -> Simulator {
        self.engine.selection = selection;
        self
    }

    /// Enables the dynamic-boost extension (builder style).
    pub fn with_boost(mut self, wq_limit: usize) -> Simulator {
        self.engine.boost = Some(BoostConfig { wq_limit });
        self
    }

    /// Disables the incremental scheduling hot path (builder style),
    /// forcing a full profile rebuild on every pass. Outcomes are
    /// bit-identical either way; this is the A/B oracle for verification
    /// and benchmarking.
    pub fn with_full_rescan(mut self) -> Simulator {
        self.engine.incremental = false;
        self
    }

    /// Runs `jobs` under `policy` with the `power` treatment: the one
    /// execution path every run goes through.
    ///
    /// An instrumented `power` ([`PowerSpec::instrumented`]) attaches a
    /// [`PowerCapPolicy`] hook: a [`bsld_powercap::PowerLedger`] tracks
    /// instantaneous draw, an idle manager applies `power.sleep`, and
    /// `power.cap_fraction` (if any) is enforced on every start and boost
    /// decision; the result then carries the power report. Energy is priced
    /// with `self.power`. `power.boost` and `power.model` are not read
    /// here: they shape the machine, and [`crate::Scenario::simulator`]
    /// applies them when it builds `self`.
    ///
    /// Fails with [`SimError::Stalled`] when a hard budget is infeasible
    /// for the workload (some job cannot run even alone, down-geared, on
    /// an otherwise sleeping machine).
    pub fn run(
        &self,
        jobs: &[Job],
        policy: &PolicySpec,
        power: &PowerSpec,
    ) -> Result<ScenarioResult, SimError> {
        let fixed;
        let bsld;
        let policy: &dyn FrequencyPolicy = match *policy {
            PolicySpec::Baseline => {
                fixed = FixedGearPolicy::new(self.time_model.gears().top());
                &fixed
            }
            PolicySpec::FixedGear(idx) => {
                let top = self.time_model.gears().top();
                fixed = FixedGearPolicy::new(GearId(idx.min(top.0)));
                &fixed
            }
            PolicySpec::BsldThreshold { th, wq } => {
                bsld = BsldThresholdPolicy::new(PowerAwareConfig {
                    bsld_threshold: th,
                    wq_threshold: wq,
                });
                &bsld
            }
        };
        let cpus = self.cluster.cpus;
        let (res, report) = if power.instrumented() {
            let budget = |f: f64| f * PowerCapPolicy::peak_draw(&self.power, cpus);
            let cap = match (power.cap_fraction, power.soft_wq_escape) {
                (None, _) => PowerCap::Uncapped,
                (Some(f), None) => PowerCap::Hard { budget: budget(f) },
                (Some(f), Some(wq_escape)) => PowerCap::Soft {
                    budget: budget(f),
                    wq_escape,
                },
            };
            let mut hook = PowerCapPolicy::with_rails(&self.power, cpus, cap, power.sleep.build());
            if let Some(sink) = &self.engine.sink {
                // The engine and its power hook share one sink, so sleep
                // transitions interleave with scheduler events in sim-time
                // order.
                hook = hook.with_sink(sink.clone());
            }
            let res = simulate_with_hook(
                &self.cluster,
                jobs,
                policy,
                &self.time_model,
                &self.engine,
                &mut hook,
            )?;
            let report = hook.into_report(res.makespan.as_secs());
            (res, Some(report))
        } else {
            let res = simulate(&self.cluster, jobs, policy, &self.time_model, &self.engine)?;
            (res, None)
        };
        let metrics = RunMetrics::compute(
            &res.outcomes,
            &self.power,
            cpus,
            self.time_model.gears().len(),
        );
        Ok(ScenarioResult {
            run: RunResult {
                metrics,
                outcomes: res.outcomes,
                pass_stats: res.stats,
            },
            power: report,
        })
    }

    /// EASY backfilling with every job at the top gear — the paper's
    /// no-DVFS baseline, uninstrumented.
    pub fn run_baseline(&self, jobs: &[Job]) -> Result<RunResult, SimError> {
        self.run(jobs, &PolicySpec::Baseline, &PowerSpec::off())
            .map(|r| r.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WqThreshold;
    use crate::scenario::SleepSpec;
    use bsld_sched::validate_schedule;
    use bsld_workload::profiles::TraceProfile;

    fn small_workload() -> bsld_workload::Workload {
        TraceProfile::sdsc_blue().scaled_cpus(64).generate(42, 300)
    }

    #[test]
    fn baseline_runs_and_validates() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let res = sim.run_baseline(&w.jobs).unwrap();
        assert_eq!(res.outcomes.len(), w.jobs.len());
        validate_schedule(&res.outcomes, w.cpus).unwrap();
        assert_eq!(res.metrics.reduced_jobs, 0, "baseline never reduces");
        assert!(res.metrics.avg_bsld >= 1.0);
    }

    #[test]
    fn power_aware_saves_energy_on_light_load() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let base = sim.run_baseline(&w.jobs).unwrap();
        let cfg = PowerAwareConfig {
            bsld_threshold: 3.0,
            wq_threshold: WqThreshold::NoLimit,
        };
        let dvfs = sim
            .run(&w.jobs, &PolicySpec::from(cfg), &PowerSpec::off())
            .unwrap()
            .run;
        validate_schedule(&dvfs.outcomes, w.cpus).unwrap();
        assert!(dvfs.metrics.reduced_jobs > 0, "some jobs must be reduced");
        assert!(
            dvfs.metrics.energy.computational < base.metrics.energy.computational,
            "DVFS must cut computational energy: {} vs {}",
            dvfs.metrics.energy.computational,
            base.metrics.energy.computational
        );
        assert!(
            dvfs.metrics.avg_bsld >= base.metrics.avg_bsld,
            "frequency scaling cannot improve BSLD"
        );
    }

    #[test]
    fn wq_zero_is_more_conservative_than_no_limit() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let run = |wq| {
            let policy = PolicySpec::BsldThreshold { th: 2.0, wq };
            sim.run(&w.jobs, &policy, &PowerSpec::off()).unwrap().run
        };
        let strict = run(WqThreshold::Limit(0));
        let loose = run(WqThreshold::NoLimit);
        assert!(strict.metrics.reduced_jobs <= loose.metrics.reduced_jobs);
    }

    #[test]
    fn enlarged_machine_reduces_waits() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let orig = sim.run_baseline(&w.jobs).unwrap();
        let big = sim.enlarged(50).run_baseline(&w.jobs).unwrap();
        assert!(big.metrics.avg_wait_secs <= orig.metrics.avg_wait_secs);
        assert!(big.metrics.avg_bsld <= orig.metrics.avg_bsld);
    }

    #[test]
    fn fcfs_ablation_waits_longer() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let easy = sim.run_baseline(&w.jobs).unwrap();
        let fcfs = sim
            .clone()
            .without_backfill()
            .run_baseline(&w.jobs)
            .unwrap();
        assert!(
            fcfs.metrics.avg_wait_secs >= easy.metrics.avg_wait_secs,
            "backfilling must not hurt average wait: {} vs {}",
            fcfs.metrics.avg_wait_secs,
            easy.metrics.avg_wait_secs
        );
    }

    #[test]
    fn power_capped_observe_only_matches_baseline_schedule() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let base = sim.run_baseline(&w.jobs).unwrap();
        let observe = PowerSpec {
            observe: true,
            ..PowerSpec::off()
        };
        let capped = sim.run(&w.jobs, &PolicySpec::Baseline, &observe).unwrap();
        let power = capped.power.unwrap();
        // No budget, no sleeping, no DVFS: the schedule must be identical,
        // and the ledger's integral must equal the post-hoc idle-aware
        // energy report.
        assert_eq!(capped.run.outcomes, base.outcomes);
        let rel = power.energy / base.metrics.energy.with_idle;
        assert!((rel - 1.0).abs() < 1e-9, "ledger vs post-hoc energy: {rel}");
        assert!(power.peak > 0.0);
        assert_eq!(power.budget, None);
        assert_eq!(power.cap.deferrals, 0);
    }

    #[test]
    fn hard_cap_is_respected_at_every_step() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let policy = PolicySpec::BsldThreshold {
            th: 2.0,
            wq: WqThreshold::NoLimit,
        };
        let cap = PowerSpec {
            cap_fraction: Some(0.6),
            ..PowerSpec::off()
        };
        let capped = sim.run(&w.jobs, &policy, &cap).unwrap();
        validate_schedule(&capped.run.outcomes, w.cpus).unwrap();
        let power = capped.power.unwrap();
        let budget = power.budget.unwrap();
        for &(t, p) in &power.series {
            assert!(p <= budget + 1e-6, "draw {p} over budget {budget} at t={t}");
        }
        assert!(power.peak <= budget + 1e-6);
    }

    #[test]
    fn sleep_states_cut_idle_energy() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let observe = PowerSpec {
            observe: true,
            ..PowerSpec::off()
        };
        let plain = sim.run(&w.jobs, &PolicySpec::Baseline, &observe).unwrap();
        let sleep = PowerSpec {
            sleep: SleepSpec::Paper,
            ..observe
        };
        let sleeping = sim.run(&w.jobs, &PolicySpec::Baseline, &sleep).unwrap();
        // Same schedule (sleeping never defers anything)...
        assert_eq!(sleeping.run.outcomes, plain.run.outcomes);
        // ...but idle stretches now draw less despite wake penalties.
        let (sleeping, plain) = (sleeping.power.unwrap(), plain.power.unwrap());
        assert!(
            sleeping.energy < plain.energy,
            "sleep must save energy: {} vs {}",
            sleeping.energy,
            plain.energy
        );
        assert!(sleeping.sleep.sleeps > 0);
        // Every wake corresponds to an earlier sleep transition.
        assert!(sleeping.sleep.wakes <= sleeping.sleep.sleeps);
    }

    #[test]
    fn infeasible_hard_cap_stalls() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        // A budget below the idle floor can never admit anything.
        let cap = PowerSpec {
            cap_fraction: Some(0.05),
            ..PowerSpec::off()
        };
        let err = sim.run(&w.jobs, &PolicySpec::Baseline, &cap).unwrap_err();
        assert!(
            matches!(err, bsld_sched::SimError::Stalled { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn boost_limits_bsld_damage() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let cfg = PowerAwareConfig {
            bsld_threshold: 3.0,
            wq_threshold: WqThreshold::NoLimit,
        };
        let policy = PolicySpec::from(cfg);
        let plain = sim.run(&w.jobs, &policy, &PowerSpec::off()).unwrap().run;
        let boosted = sim
            .clone()
            .with_boost(4)
            .run(&w.jobs, &policy, &PowerSpec::off())
            .unwrap()
            .run;
        validate_schedule(&boosted.outcomes, w.cpus).unwrap();
        // Boosting can only shorten runtimes of reduced jobs, so energy
        // goes up and performance improves (or stays).
        assert!(boosted.metrics.energy.computational >= plain.metrics.energy.computational);
    }
}
