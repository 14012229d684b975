//! The simulator facade.
//!
//! Bundles a cluster, the paper's power and time models and the scheduling
//! engine behind three calls: [`Simulator::run_baseline`] (EASY, no DVFS),
//! [`Simulator::run_power_aware`] (EASY + the BSLD-threshold policy) and
//! [`Simulator::run_power_capped`] (either policy under a cluster power
//! budget with idle sleep states, via `bsld-powercap`).

use bsld_cluster::{Cluster, GearSet};
use bsld_metrics::RunMetrics;
use bsld_model::{Job, JobOutcome};
use bsld_power::{BetaModel, PaperDvfs, RailSet};
use bsld_powercap::{PowerCap, PowerCapPolicy, PowerReport, SleepConfig};
use bsld_sched::{
    simulate, simulate_with_hook, BoostConfig, EngineConfig, FrequencyPolicy, PassStats, SimError,
};

use crate::policy::PowerAwareConfig;
use crate::scenario::{self, PolicySpec, PowerSpec};

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

/// Configuration of a power-capped run ([`Simulator::run_power_capped`]).
#[derive(Debug, Clone)]
pub struct PowerCapConfig {
    /// Cluster power budget as a fraction of the machine's peak draw
    /// (every processor busy at the top gear). `None` = no budget: the
    /// run only *observes* power (ledger + sleep states).
    pub cap_fraction: Option<f64>,
    /// `Some(n)`: soft cap — once more than `n` other jobs wait, an
    /// over-budget start is admitted (at the most frugal gear) and
    /// recorded as a violation. `None`: hard cap.
    pub soft_wq_escape: Option<usize>,
    /// The idle sleep-state ladder ([`SleepConfig::none`] to disable).
    pub sleep: SleepConfig,
    /// `Some`: run the paper's BSLD-threshold frequency policy under the
    /// cap. `None`: fixed top gear (the no-DVFS baseline, capped).
    pub policy: Option<PowerAwareConfig>,
}

impl PowerCapConfig {
    /// No budget, no sleeping, no DVFS: baseline scheduling with the
    /// power ledger recording.
    pub fn observe_only() -> Self {
        PowerCapConfig {
            cap_fraction: None,
            soft_wq_escape: None,
            sleep: SleepConfig::none(),
            policy: None,
        }
    }

    /// A hard cap at `fraction` of peak draw (no sleeping, no DVFS).
    pub fn hard(fraction: f64) -> Self {
        PowerCapConfig {
            cap_fraction: Some(fraction),
            ..Self::observe_only()
        }
    }

    /// Adds a sleep ladder (builder style).
    pub fn with_sleep(mut self, sleep: SleepConfig) -> Self {
        self.sleep = sleep;
        self
    }

    /// Runs the BSLD-threshold policy under the cap (builder style).
    pub fn with_policy(mut self, policy: PowerAwareConfig) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Turns the cap soft with the given queue-depth escape (builder
    /// style).
    pub fn with_soft_escape(mut self, wq_escape: usize) -> Self {
        self.soft_wq_escape = Some(wq_escape);
        self
    }
}

/// A power-capped simulation result: the usual metrics plus the power
/// report (series, energy integral, enforcement and sleep counters).
#[derive(Debug, Clone)]
pub struct PowerCappedResult {
    /// Metrics and outcomes, as from any other run.
    pub run: RunResult,
    /// The power side: step series, integral, peak, counters.
    pub power: PowerReport,
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

    /// Runs `jobs` under an arbitrary frequency policy.
    pub fn run_with_policy<P: FrequencyPolicy + ?Sized>(
        &self,
        jobs: &[Job],
        policy: &P,
    ) -> Result<RunResult, SimError> {
        let res = simulate(&self.cluster, jobs, policy, &self.time_model, &self.engine)?;
        let metrics = RunMetrics::compute(
            &res.outcomes,
            &self.power,
            self.cluster.cpus,
            self.time_model.gears().len(),
        );
        Ok(RunResult {
            metrics,
            outcomes: res.outcomes,
            pass_stats: res.stats,
        })
    }

    /// EASY backfilling with every job at the top gear — the paper's
    /// no-DVFS baseline. Thin shim over the scenario execution path
    /// ([`crate::scenario::PolicySpec::Baseline`]).
    pub fn run_baseline(&self, jobs: &[Job]) -> Result<RunResult, SimError> {
        scenario::execute(self, jobs, &PolicySpec::Baseline, &PowerSpec::off()).map(|r| r.run)
    }

    /// EASY backfilling with the paper's BSLD-threshold frequency
    /// assignment. Thin shim over the scenario execution path.
    pub fn run_power_aware(
        &self,
        jobs: &[Job],
        cfg: &PowerAwareConfig,
    ) -> Result<RunResult, SimError> {
        scenario::execute(self, jobs, &PolicySpec::from(*cfg), &PowerSpec::off()).map(|r| r.run)
    }

    /// Runs `jobs` with cluster power as a first-class signal: a
    /// [`bsld_powercap::PowerLedger`] tracks instantaneous draw, an idle
    /// manager applies `cfg.sleep`, and `cfg.cap_fraction` (if any) is
    /// enforced on every start and boost decision. Thin shim over the
    /// scenario execution path.
    ///
    /// Fails with [`SimError::Stalled`] when a hard budget is infeasible
    /// for the workload (some job cannot run even alone, down-geared, on
    /// an otherwise sleeping machine).
    pub fn run_power_capped(
        &self,
        jobs: &[Job],
        cfg: &PowerCapConfig,
    ) -> Result<PowerCappedResult, SimError> {
        let policy = match &cfg.policy {
            None => PolicySpec::Baseline,
            Some(pa) => PolicySpec::from(*pa),
        };
        let power = PowerSpec {
            cap_fraction: cfg.cap_fraction,
            soft_wq_escape: cfg.soft_wq_escape,
            sleep: scenario::SleepSpec::Custom(cfg.sleep.clone()),
            boost: None,
            observe: true,
            model: None,
        };
        scenario::execute(self, jobs, &policy, &power).map(|r| PowerCappedResult {
            run: r.run,
            // audit:allow(R1): observe=true forces power instrumentation on this path
            power: r.power.expect("instrumented run always reports power"),
        })
    }

    /// The power-instrumented execution kernel: runs `jobs` under an
    /// arbitrary frequency policy with a [`bsld_powercap::PowerLedger`],
    /// the `sleep` ladder and an optional budget (`cap_fraction` of peak
    /// draw; `soft_wq_escape` turns it soft). This is the single path all
    /// capped/observed runs go through.
    pub fn run_power_capped_with<P: FrequencyPolicy + ?Sized>(
        &self,
        jobs: &[Job],
        policy: &P,
        cap_fraction: Option<f64>,
        soft_wq_escape: Option<usize>,
        sleep: &SleepConfig,
    ) -> Result<PowerCappedResult, SimError> {
        let cap = match (cap_fraction, soft_wq_escape) {
            (None, _) => PowerCap::Uncapped,
            (Some(f), None) => PowerCap::Hard {
                budget: f * PowerCapPolicy::peak_draw(&self.power, self.cluster.cpus),
            },
            (Some(f), Some(wq_escape)) => PowerCap::Soft {
                budget: f * PowerCapPolicy::peak_draw(&self.power, self.cluster.cpus),
                wq_escape,
            },
        };
        let mut hook =
            PowerCapPolicy::with_rails(&self.power, self.cluster.cpus, cap, sleep.clone());
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
        let metrics = RunMetrics::compute(
            &res.outcomes,
            &self.power,
            self.cluster.cpus,
            self.time_model.gears().len(),
        );
        let power = hook.into_report(res.makespan.as_secs());
        Ok(PowerCappedResult {
            run: RunResult {
                metrics,
                outcomes: res.outcomes,
                pass_stats: res.stats,
            },
            power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WqThreshold;
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
        let dvfs = sim.run_power_aware(&w.jobs, &cfg).unwrap();
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
        let strict = sim
            .run_power_aware(
                &w.jobs,
                &PowerAwareConfig {
                    bsld_threshold: 2.0,
                    wq_threshold: WqThreshold::Limit(0),
                },
            )
            .unwrap();
        let loose = sim
            .run_power_aware(
                &w.jobs,
                &PowerAwareConfig {
                    bsld_threshold: 2.0,
                    wq_threshold: WqThreshold::NoLimit,
                },
            )
            .unwrap();
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
        let capped = sim
            .run_power_capped(&w.jobs, &PowerCapConfig::observe_only())
            .unwrap();
        // No budget, no sleeping, no DVFS: the schedule must be identical,
        // and the ledger's integral must equal the post-hoc idle-aware
        // energy report.
        assert_eq!(capped.run.outcomes, base.outcomes);
        let rel = capped.power.energy / base.metrics.energy.with_idle;
        assert!((rel - 1.0).abs() < 1e-9, "ledger vs post-hoc energy: {rel}");
        assert!(capped.power.peak > 0.0);
        assert_eq!(capped.power.budget, None);
        assert_eq!(capped.power.cap.deferrals, 0);
    }

    #[test]
    fn hard_cap_is_respected_at_every_step() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let cfg = PowerCapConfig::hard(0.6).with_policy(PowerAwareConfig {
            bsld_threshold: 2.0,
            wq_threshold: WqThreshold::NoLimit,
        });
        let capped = sim.run_power_capped(&w.jobs, &cfg).unwrap();
        validate_schedule(&capped.run.outcomes, w.cpus).unwrap();
        let budget = capped.power.budget.unwrap();
        for &(t, p) in &capped.power.series {
            assert!(p <= budget + 1e-6, "draw {p} over budget {budget} at t={t}");
        }
        assert!(capped.power.peak <= budget + 1e-6);
    }

    #[test]
    fn sleep_states_cut_idle_energy() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let plain = sim
            .run_power_capped(&w.jobs, &PowerCapConfig::observe_only())
            .unwrap();
        let sleeping = sim
            .run_power_capped(
                &w.jobs,
                &PowerCapConfig::observe_only()
                    .with_sleep(bsld_powercap::SleepConfig::paper_default()),
            )
            .unwrap();
        // Same schedule (sleeping never defers anything)...
        assert_eq!(sleeping.run.outcomes, plain.run.outcomes);
        // ...but idle stretches now draw less despite wake penalties.
        assert!(
            sleeping.power.energy < plain.power.energy,
            "sleep must save energy: {} vs {}",
            sleeping.power.energy,
            plain.power.energy
        );
        assert!(sleeping.power.sleep.sleeps > 0);
        // Every wake corresponds to an earlier sleep transition.
        assert!(sleeping.power.sleep.wakes <= sleeping.power.sleep.sleeps);
    }

    #[test]
    fn infeasible_hard_cap_stalls() {
        let w = small_workload();
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        // A budget below the idle floor can never admit anything.
        let err = sim
            .run_power_capped(&w.jobs, &PowerCapConfig::hard(0.05))
            .unwrap_err();
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
        let plain = sim.run_power_aware(&w.jobs, &cfg).unwrap();
        let boosted = sim
            .clone()
            .with_boost(4)
            .run_power_aware(&w.jobs, &cfg)
            .unwrap();
        validate_schedule(&boosted.outcomes, w.cpus).unwrap();
        // Boosting can only shorten runtimes of reduced jobs, so energy
        // goes up and performance improves (or stays).
        assert!(boosted.metrics.energy.computational >= plain.metrics.energy.computational);
    }
}
