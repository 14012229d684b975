//! The frequency-assignment policy hook.
//!
//! The EASY engine delegates *which DVFS gear a job runs at* to a
//! [`FrequencyPolicy`]. The engine guarantees:
//!
//! * for a **head-of-queue** job the earliest start time is independent of
//!   the gear (the availability profile built from running jobs is
//!   non-decreasing), so the policy is handed the start time and only picks
//!   the gear;
//! * for a **backfill candidate** the gear determines the dilated runtime
//!   and therefore whether the job fits in front of the reservation, so the
//!   policy is handed a `fits(gear)` oracle and must return a gear that
//!   fits (or `None` to leave the job queued).

use bsld_model::{GearId, Job};
use bsld_power::BetaModel;
use bsld_simkernel::Time;

/// Everything a policy may consult when assigning a gear.
#[derive(Clone, Copy)]
pub struct DecisionCtx<'a> {
    /// Current simulation time.
    pub now: Time,
    /// The job being scheduled.
    pub job: &'a Job,
    /// Jobs currently waiting on execution, **excluding** `job` itself.
    /// This is the `WQsize` the paper's `WQthreshold` compares against.
    pub wq_others: usize,
    /// The β dilation model (owns the gear set).
    pub time_model: &'a BetaModel,
}

impl<'a> DecisionCtx<'a> {
    /// The dilation coefficient for this job at `gear`.
    #[inline]
    pub fn coef(&self, gear: GearId) -> f64 {
        self.time_model.coef(self.job.beta, gear)
    }
}

/// Assigns a DVFS gear to each job at scheduling time.
pub trait FrequencyPolicy {
    /// Gear for a head-of-queue job that will start (or be reserved) at
    /// `start`. Must always return a gear: the head job is scheduled
    /// unconditionally.
    fn head_gear(&self, ctx: &DecisionCtx<'_>, start: Time) -> GearId;

    /// Gear for a backfill candidate that would start at `ctx.now`.
    ///
    /// `fits` reports whether the job, dilated to a gear, can start now
    /// without delaying the head reservation. Return `None` to leave the
    /// job queued (the paper's algorithm declines to backfill jobs whose
    /// predicted BSLD violates the threshold at every fitting gear).
    fn backfill_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        fits: &mut dyn FnMut(GearId) -> bool,
    ) -> Option<GearId>;

    /// Gear *and* reservation start for a job under **conservative
    /// backfilling**, where the start time is duration- (and therefore
    /// gear-) dependent: `find_start(gear)` returns the earliest instant
    /// the job fits the committed profile when dilated to `gear`.
    ///
    /// Contract: the returned start **must** be the value `find_start`
    /// produced for the returned gear — the engine commits that exact
    /// window.
    ///
    /// The default derives the gear from [`FrequencyPolicy::head_gear`] at
    /// the top gear's start time, then re-queries the start for the chosen
    /// gear; policies whose gear choice depends on the (gear-dependent)
    /// wait should override it.
    fn reserve_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        find_start: &mut dyn FnMut(GearId) -> Time,
    ) -> (GearId, Time) {
        let top = ctx.time_model.gears().top();
        let start_top = find_start(top);
        let gear = self.head_gear(ctx, start_top);
        if gear == top {
            (top, start_top)
        } else {
            (gear, find_start(gear))
        }
    }

    /// Whether the engine may *elide* provably no-op scheduling passes
    /// under this policy (the incremental hot path; see the engine's
    /// "Pass-skip conditions"). Defaults to `false` — opting in is a promise
    /// about the policy's decision structure:
    ///
    /// 1. [`FrequencyPolicy::head_gear`] depends only on the job, the
    ///    proposed start time and `ctx.wq_others` — never on `ctx.now`.
    ///    The engine keeps a cached reservation while the availability
    ///    profile is unchanged and re-asks `head_gear` whenever the queue
    ///    depth differs from the one the reservation was priced at; a
    ///    different gear sends the event through the full pass.
    /// 2. *Whether* [`FrequencyPolicy::backfill_gear`] declines must not
    ///    depend on `ctx.wq_others` (the gear it picks may), and a decline
    ///    must persist while the job's wait grows and the `fits` oracle
    ///    weakens pointwise (fewer gears fit). Under that property a
    ///    candidate that failed to backfill cannot start until a
    ///    completion changes the profile, so an event that adds a
    ///    non-starting job needs no full pass.
    ///
    /// A policy whose wait-queue gate can turn a decline into a start (or
    /// back) must return `false`.
    fn pass_elision_safe(&self) -> bool {
        false
    }
}

/// Pins every job to a single gear.
///
/// `FixedGearPolicy` at the top gear *is* plain EASY backfilling — the
/// paper's no-DVFS baseline. At a lower gear it is the "naive DVFS"
/// strawman used in ablations.
#[derive(Debug, Clone, Copy)]
pub struct FixedGearPolicy {
    /// The gear every job runs at.
    pub gear: GearId,
}

impl FixedGearPolicy {
    /// Pin all jobs to `gear`.
    pub fn new(gear: GearId) -> Self {
        FixedGearPolicy { gear }
    }
}

impl FrequencyPolicy for FixedGearPolicy {
    fn head_gear(&self, _ctx: &DecisionCtx<'_>, _start: Time) -> GearId {
        self.gear
    }

    fn backfill_gear(
        &self,
        _ctx: &DecisionCtx<'_>,
        fits: &mut dyn FnMut(GearId) -> bool,
    ) -> Option<GearId> {
        fits(self.gear).then_some(self.gear)
    }

    fn reserve_gear(
        &self,
        _ctx: &DecisionCtx<'_>,
        find_start: &mut dyn FnMut(GearId) -> Time,
    ) -> (GearId, Time) {
        (self.gear, find_start(self.gear))
    }

    fn pass_elision_safe(&self) -> bool {
        // The gear is constant and backfilling only asks `fits(gear)`:
        // trivially independent of `now` and the queue depth, and monotone.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_cluster::GearSet;

    #[test]
    fn ctx_helpers() {
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 1000, 2000);
        let ctx = DecisionCtx {
            now: Time(0),
            job: &job,
            wq_others: 0,
            time_model: &tm,
        };
        assert!((ctx.coef(tm.gears().top()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_gear_backfills_only_when_fitting() {
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 1000, 2000);
        let ctx = DecisionCtx {
            now: Time(0),
            job: &job,
            wq_others: 3,
            time_model: &tm,
        };
        let p = FixedGearPolicy::new(tm.gears().top());
        assert_eq!(p.head_gear(&ctx, Time(50)), tm.gears().top());
        assert_eq!(p.backfill_gear(&ctx, &mut |_| true), Some(tm.gears().top()));
        assert_eq!(p.backfill_gear(&ctx, &mut |_| false), None);
        // The oracle is only asked about the pinned gear.
        let mut asked = Vec::new();
        let _ = p.backfill_gear(&ctx, &mut |g| {
            asked.push(g);
            false
        });
        assert_eq!(asked, vec![tm.gears().top()]);
    }
}
