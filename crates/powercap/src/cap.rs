//! Power-cap enforcement: the [`bsld_sched::PowerHook`] implementation.

use bsld_model::GearId;
use bsld_power::{PowerModel, RailSet};
use bsld_sched::PowerHook;
use bsld_simkernel::Time;

use crate::ledger::{PowerLedger, RailEnergy};
use crate::sleep::{IdleManager, SleepConfig, SleepStats};

/// Absolute slack added to budget comparisons to absorb float drift in the
/// incrementally-maintained draw.
const CAP_EPS: f64 = 1e-9;

/// The cluster power budget policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerCap {
    /// No budget: the hook only observes (ledger + sleep states).
    Uncapped,
    /// Draw must never exceed `budget` (normalised power units) at any
    /// event boundary. Starts that cannot fit even down-geared are
    /// deferred; an infeasible budget surfaces as
    /// [`bsld_sched::SimError::Stalled`].
    Hard {
        /// The budget, normalised power units.
        budget: f64,
    },
    /// Like [`PowerCap::Hard`], but an over-budget start is admitted at
    /// the most frugal gear (and recorded as a violation) once more than
    /// `wq_escape` other jobs are waiting — the queue-depth escape hatch
    /// mirroring the paper's `WQ_threshold` gate — or when nothing is
    /// running, since deferring onto an idle machine could never succeed
    /// later. A soft cap therefore never stalls.
    Soft {
        /// The budget, normalised power units.
        budget: f64,
        /// Maximum tolerated wait-queue depth before the escape hatch
        /// opens.
        wq_escape: usize,
    },
}

impl PowerCap {
    /// The configured budget, if any.
    pub fn budget(&self) -> Option<f64> {
        match self {
            PowerCap::Uncapped => None,
            PowerCap::Hard { budget } | PowerCap::Soft { budget, .. } => Some(*budget),
        }
    }
}

/// Enforcement counters. Admission counters (`downgears`,
/// `soft_violations`) reflect starts the engine actually honored: an
/// admission the engine later declined (see
/// [`PowerHook::admission_declined`]) is reversed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CapStats {
    /// Start admissions denied because no gear fit the budget. Counted
    /// per scheduling pass: a job the engine re-considers at many events
    /// while it waits contributes one deferral per retry, so this
    /// measures sustained budget pressure, not distinct jobs.
    pub deferrals: u64,
    /// Starts admitted at a lower gear than the frequency policy chose.
    pub downgears: u64,
    /// Dynamic-boost gear changes vetoed by the budget (per attempt; the
    /// engine retries boosts at later events while the queue stays deep).
    pub boost_vetoes: u64,
    /// Soft-cap escape-hatch admissions (each exceeded the budget).
    pub soft_violations: u64,
}

/// What the most recent (not yet consumed) admission counted, so a
/// declined admission can be un-counted.
#[derive(Debug, Clone, Copy)]
struct LastAdmission {
    downgear: bool,
    violation: bool,
}

/// Everything a power-capped run reports about cluster power.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// The step series `(time, power)` of cluster draw.
    pub series: Vec<(u64, f64)>,
    /// `∫ P dt` over the run plus wake-energy impulses.
    pub energy: f64,
    /// Highest draw observed.
    pub peak: f64,
    /// Time-averaged draw over the observed span (0 for an empty run).
    pub average: f64,
    /// The budget, if one was configured.
    pub budget: Option<f64>,
    /// Enforcement counters.
    pub cap: CapStats,
    /// Sleep/wake counters.
    pub sleep: SleepStats,
    /// Per-rail energy attribution (one entry per rail, CPU first; a
    /// single entry for the default CPU-only layout).
    pub rails: Vec<RailEnergy>,
}

/// A [`PowerHook`] that tracks cluster draw in a [`PowerLedger`], manages
/// idle sleep states through an [`IdleManager`], and enforces a
/// [`PowerCap`] by vetoing or down-gearing starts and boosts.
#[derive(Debug)]
pub struct PowerCapPolicy {
    ledger: PowerLedger,
    idle: IdleManager,
    cap: PowerCap,
    stats: CapStats,
    gear_count: usize,
    last_admission: Option<LastAdmission>,
    sink: Option<std::sync::Arc<dyn bsld_obs::TraceSink>>,
}

impl PowerCapPolicy {
    /// A policy over a machine of `total_cpus` priced by `pm` as a single
    /// CPU rail.
    pub fn new(pm: &dyn PowerModel, total_cpus: u32, cap: PowerCap, sleep: SleepConfig) -> Self {
        let ledger = PowerLedger::new(pm, total_cpus);
        let idle = IdleManager::new(sleep, total_cpus, pm.p_idle());
        PowerCapPolicy {
            ledger,
            idle,
            cap,
            stats: CapStats::default(),
            gear_count: pm.gears().len(),
            last_admission: None,
            sink: None,
        }
    }

    /// A policy over a machine of `total_cpus` whose draw is attributed
    /// across `rails`; cap enforcement and sleep ladders act on the
    /// aggregate exactly as in [`PowerCapPolicy::new`].
    pub fn with_rails(rails: &RailSet, total_cpus: u32, cap: PowerCap, sleep: SleepConfig) -> Self {
        let ledger = PowerLedger::with_rails(rails, total_cpus);
        let idle = IdleManager::new(sleep, total_cpus, rails.p_idle());
        PowerCapPolicy {
            ledger,
            idle,
            cap,
            stats: CapStats::default(),
            gear_count: rails.gears().len(),
            last_admission: None,
            sink: None,
        }
    }

    /// Attaches a trace sink: sleep-ladder transitions are recorded as
    /// [`bsld_obs::TraceEvent::SleepTransition`] snapshots. Observation
    /// only — enforcement and accounting are unchanged.
    #[must_use]
    pub fn with_sink(mut self, sink: std::sync::Arc<dyn bsld_obs::TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Emits a [`bsld_obs::TraceEvent::SleepTransition`] if the sleep
    /// ladder moved between `before` and now.
    fn emit_sleep_delta(&self, now: Time, before: (u64, u64, u32)) {
        if let Some(sink) = &self.sink {
            let after = (
                self.idle.stats().sleeps,
                self.idle.stats().wakes,
                self.idle.sleeping(),
            );
            if after != before {
                sink.record(bsld_obs::TraceEvent::SleepTransition {
                    t: now.as_micros(),
                    sleeps: after.0,
                    wakes: after.1,
                    sleeping: u64::from(after.2),
                });
            }
        }
    }

    /// Snapshot of the sleep ladder for [`Self::emit_sleep_delta`], taken
    /// only when a sink is attached.
    fn sleep_snapshot(&self) -> (u64, u64, u32) {
        (
            self.idle.stats().sleeps,
            self.idle.stats().wakes,
            self.idle.sleeping(),
        )
    }

    /// The machine's peak draw — every processor busy at the top gear —
    /// the natural reference for expressing budgets as fractions.
    pub fn peak_draw(pm: &dyn PowerModel, total_cpus: u32) -> f64 {
        total_cpus as f64 * pm.p_active(pm.gears().top())
    }

    /// Current cluster draw.
    pub fn power_now(&self) -> f64 {
        self.ledger.power_now()
    }

    /// The live ledger (read access for tests and diagnostics).
    pub fn ledger(&self) -> &PowerLedger {
        &self.ledger
    }

    /// The live idle manager (read access for tests and diagnostics).
    pub fn idle_manager(&self) -> &IdleManager {
        &self.idle
    }

    /// Draw delta of starting `cpus` at `gear` right now, given where the
    /// processors would be sourced from.
    fn delta(&self, cpus: u32, gear: GearId) -> f64 {
        let (from_idle, sleep_power) = self.idle.preview_sources(cpus);
        self.ledger.start_delta(cpus, gear, from_idle, sleep_power)
    }

    /// The highest admissible gear not above `gear`, or `None`.
    // The u8 cast re-narrows a loop index that started as a u8 (see the
    // audit:allow below) — it cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    fn best_fitting_gear(&self, cpus: u32, gear: GearId, budget: f64) -> Option<GearId> {
        let headroom = budget + CAP_EPS - self.ledger.power_now();
        (0..=gear.index())
            .rev()
            // audit:allow(N2): i ranges over 0..=index(), which is already a u8
            .map(|i| GearId(i as u8))
            .find(|&g| self.delta(cpus, g) <= headroom)
    }

    /// Finalises the run: integrates the ledger up to `end_s` (usually the
    /// makespan) and returns the power report.
    pub fn into_report(mut self, end_s: u64) -> PowerReport {
        self.ledger.advance(end_s);
        let energy = self.ledger.energy();
        let average = if end_s > 0 {
            self.ledger.integral() / end_s as f64
        } else {
            0.0
        };
        PowerReport {
            peak: self.ledger.peak(),
            budget: self.cap.budget(),
            cap: self.stats,
            sleep: self.idle.stats(),
            series: self.ledger.series().to_vec(),
            rails: self.ledger.rail_energies(),
            energy,
            average,
        }
    }
}

impl PowerHook for PowerCapPolicy {
    fn on_time(&mut self, now: Time) {
        let before = self.sink.as_ref().map(|_| self.sleep_snapshot());
        self.idle.advance(now.as_secs(), &mut self.ledger);
        if let Some(before) = before {
            self.emit_sleep_delta(now, before);
        }
    }

    fn admit_start(
        &mut self,
        now: Time,
        cpus: u32,
        gear: GearId,
        wq_others: usize,
        _head: bool,
    ) -> Option<GearId> {
        self.on_time(now);
        debug_assert!(
            gear.index() < self.gear_count,
            "gear outside the priced set"
        );
        self.last_admission = None;
        match self.cap {
            PowerCap::Uncapped => Some(gear),
            PowerCap::Hard { budget } => match self.best_fitting_gear(cpus, gear, budget) {
                Some(g) => {
                    if g != gear {
                        self.stats.downgears += 1;
                        self.last_admission = Some(LastAdmission {
                            downgear: true,
                            violation: false,
                        });
                    }
                    Some(g)
                }
                None => {
                    self.stats.deferrals += 1;
                    None
                }
            },
            PowerCap::Soft { budget, wq_escape } => {
                match self.best_fitting_gear(cpus, gear, budget) {
                    Some(g) => {
                        if g != gear {
                            self.stats.downgears += 1;
                            self.last_admission = Some(LastAdmission {
                                downgear: true,
                                violation: false,
                            });
                        }
                        Some(g)
                    }
                    None if wq_others > wq_escape || self.ledger.busy() == 0 => {
                        // Escape hatch: the queue is too deep to keep
                        // deferring — or the machine is idle, so no future
                        // completion could ever free budget. Admit at the
                        // most frugal gear and record the violation.
                        self.stats.soft_violations += 1;
                        self.last_admission = Some(LastAdmission {
                            downgear: false,
                            violation: true,
                        });
                        Some(GearId(0))
                    }
                    None => {
                        self.stats.deferrals += 1;
                        None
                    }
                }
            }
        }
    }

    fn admit_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId) -> bool {
        self.on_time(now);
        let Some(budget) = self.cap.budget() else {
            return true;
        };
        let delta = cpus as f64 * (self.ledger.p_active(to) - self.ledger.p_active(from));
        if self.ledger.power_now() + delta <= budget + CAP_EPS {
            true
        } else {
            self.stats.boost_vetoes += 1;
            false
        }
    }

    fn admission_declined(&mut self) {
        // The engine did not honor the gear the last admit_start returned;
        // reverse what that admission counted.
        if let Some(a) = self.last_admission.take() {
            if a.downgear {
                self.stats.downgears -= 1;
            }
            if a.violation {
                self.stats.soft_violations -= 1;
            }
        }
    }

    fn on_job_start(&mut self, now: Time, cpus: u32, gear: GearId) {
        self.on_time(now);
        let t = now.as_secs();
        let before = self.sink.as_ref().map(|_| self.sleep_snapshot());
        self.idle.allocate(t, cpus, &mut self.ledger);
        if let Some(before) = before {
            // Waking sleeping processors to source the start is a ladder
            // transition too.
            self.emit_sleep_delta(now, before);
        }
        self.ledger.start(t, cpus, gear);
        self.last_admission = None;
    }

    fn on_job_finish(&mut self, now: Time, cpus: u32, gear: GearId) {
        self.on_time(now);
        let t = now.as_secs();
        self.ledger.finish(t, cpus, gear);
        self.idle.release(t, cpus);
    }

    fn on_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId) {
        self.on_time(now);
        self.ledger.gear_change(now.as_secs(), cpus, from, to);
    }

    fn next_power_event(&self, now: Time) -> Option<Time> {
        // Only budgeted runs defer starts, so only they need retries; a
        // pending sleep transition is the one autonomous change that can
        // free budget.
        match self.cap {
            PowerCap::Uncapped => None,
            PowerCap::Hard { .. } | PowerCap::Soft { .. } => {
                self.idle.next_transition_due(now.as_secs()).map(Time)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_cluster::GearSet;

    fn pm() -> bsld_power::PaperDvfs {
        bsld_power::PaperDvfs::paper(GearSet::paper())
    }

    fn policy(total: u32, cap: PowerCap) -> PowerCapPolicy {
        PowerCapPolicy::new(&pm(), total, cap, SleepConfig::none())
    }

    #[test]
    fn uncapped_admits_everything() {
        let mut p = policy(8, PowerCap::Uncapped);
        let g = p.admit_start(Time(0), 8, GearId(5), 0, true);
        assert_eq!(g, Some(GearId(5)));
        assert!(p.admit_gear_change(Time(0), 8, GearId(0), GearId(5)));
        assert_eq!(p.stats, CapStats::default());
    }

    #[test]
    fn hard_cap_downgears_then_defers() {
        let pm = pm();
        let total = 4u32;
        // Budget: all 4 at the lowest gear, plus nothing to spare.
        let budget = total as f64 * pm.p_active(GearId(0)) + 1e-6;
        let mut p = policy(total, PowerCap::Hard { budget });
        // A top-gear start of the whole machine must be down-geared to 0.
        let g = p.admit_start(Time(0), total, GearId(5), 0, true);
        assert_eq!(g, Some(GearId(0)));
        assert_eq!(p.stats.downgears, 1);
        p.on_job_start(Time(0), total, GearId(0));
        assert!(p.power_now() <= budget + 1e-9);
        // Machine fully busy at the budget: any further start... cannot
        // happen (no processors), but a gear change up must be vetoed.
        assert!(!p.admit_gear_change(Time(10), total, GearId(0), GearId(1)));
        assert_eq!(p.stats.boost_vetoes, 1);
    }

    #[test]
    fn hard_cap_defers_when_nothing_fits() {
        let pm = pm();
        // Budget below even one processor at the lowest gear on top of the
        // idle floor of the other processors.
        let budget = 4.0 * pm.p_idle() * 1.01;
        let mut p = policy(4, PowerCap::Hard { budget });
        let g = p.admit_start(Time(0), 1, GearId(0), 3, true);
        assert_eq!(g, None);
        assert_eq!(p.stats.deferrals, 1);
    }

    #[test]
    fn soft_cap_escape_hatch_admits_frugal() {
        let pm = pm();
        let budget = 4.0 * pm.p_idle() * 1.01;
        let mut p = policy(
            4,
            PowerCap::Soft {
                budget,
                wq_escape: 2,
            },
        );
        // Nothing running: deferring could never succeed, so the hatch
        // opens regardless of queue depth.
        assert_eq!(
            p.admit_start(Time(0), 1, GearId(5), 0, true),
            Some(GearId(0))
        );
        assert_eq!(p.stats.soft_violations, 1);
        p.on_job_start(Time(0), 1, GearId(0));
        // One job running, queue depth at the escape threshold: deferred.
        assert_eq!(p.admit_start(Time(1), 1, GearId(5), 2, true), None);
        assert_eq!(p.stats.deferrals, 1);
        // Past the threshold: admitted at gear 0, violation recorded.
        assert_eq!(
            p.admit_start(Time(1), 1, GearId(5), 3, true),
            Some(GearId(0))
        );
        assert_eq!(p.stats.soft_violations, 2);
    }

    #[test]
    fn report_summarises_run() {
        let mut p = policy(2, PowerCap::Uncapped);
        p.on_job_start(Time(0), 2, GearId(5));
        p.on_job_finish(Time(100), 2, GearId(5));
        let r = p.into_report(100);
        assert!(r.energy > 0.0);
        assert!(r.peak >= r.average && r.average > 0.0);
        assert_eq!(r.budget, None);
        assert_eq!(r.series.first().unwrap().0, 0);
    }

    #[test]
    fn admission_accounts_for_sleeping_sources() {
        let pm = pm();
        let mut p = PowerCapPolicy::new(
            &pm,
            4,
            PowerCap::Uncapped,
            crate::sleep::SleepConfig::paper_default(),
        );
        // Let everything fall into deep sleep, then start a job on all 4.
        p.on_time(Time(10_000));
        assert_eq!(p.idle_manager().sleeping(), 4);
        p.on_job_start(Time(10_000), 4, GearId(5));
        assert_eq!(p.idle_manager().sleeping(), 0);
        let s = p.idle_manager().stats();
        assert_eq!(s.wakes, 4);
        assert!((p.power_now() - 4.0 * pm.p_active(GearId(5))).abs() < 1e-9);
    }
}
