//! Timing wrappers around the engine's two policy surfaces.
//!
//! [`TimedPolicy`] wraps any [`FrequencyPolicy`] and [`TimedHook`] any
//! [`PowerHook`]; each call becomes a span in a shared [`Recorder`]. The
//! wrappers forward *every* trait method, the defaulted ones included:
//! `pass_elision_safe`, `reserve_gear`, `next_power_event` and
//! `admission_declined` steer the engine, and a wrapper that fell back to a
//! default (say `pass_elision_safe() = false`) would quietly measure a
//! different program.

use std::cell::{Cell, RefCell};

use bsld_model::GearId;
use bsld_sched::{DecisionCtx, FrequencyPolicy, PowerHook};
use bsld_simkernel::Time;

use crate::spans::{Layer, Recorder};

/// A [`FrequencyPolicy`] that times every decision and every `fits` /
/// `find_start` query the decision makes.
pub struct TimedPolicy<'a> {
    inner: &'a dyn FrequencyPolicy,
    rec: &'a RefCell<Recorder>,
    backfill_declined: Cell<u64>,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'a dyn FrequencyPolicy, rec: &'a RefCell<Recorder>) -> Self {
        TimedPolicy {
            inner,
            rec,
            backfill_declined: Cell::new(0),
        }
    }

    /// Backfill calls that left the candidate queued (`None`).
    pub fn backfill_declined(&self) -> u64 {
        self.backfill_declined.get()
    }

    fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.rec.borrow_mut().open(layer);
        let out = f();
        self.rec.borrow_mut().close();
        out
    }
}

impl FrequencyPolicy for TimedPolicy<'_> {
    fn head_gear(&self, ctx: &DecisionCtx<'_>, start: Time) -> GearId {
        self.span(Layer::PolicyHead, || self.inner.head_gear(ctx, start))
    }

    fn backfill_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        fits: &mut dyn FnMut(GearId) -> bool,
    ) -> Option<GearId> {
        let gear = self.span(Layer::PolicyBackfill, || {
            let mut timed_fits = |g: GearId| self.span(Layer::Fits, || fits(g));
            self.inner.backfill_gear(ctx, &mut timed_fits)
        });
        if gear.is_none() {
            self.backfill_declined.set(self.backfill_declined.get() + 1);
        }
        gear
    }

    fn reserve_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        find_start: &mut dyn FnMut(GearId) -> Time,
    ) -> (GearId, Time) {
        self.span(Layer::PolicyReserve, || {
            let mut timed_find = |g: GearId| self.span(Layer::FindStart, || find_start(g));
            self.inner.reserve_gear(ctx, &mut timed_find)
        })
    }

    fn pass_elision_safe(&self) -> bool {
        self.inner.pass_elision_safe()
    }
}

/// A [`PowerHook`] that times every call into the wrapped hook.
pub struct TimedHook<'a, H> {
    inner: H,
    rec: &'a RefCell<Recorder>,
    admit_declined: u64,
    wakeups: Cell<u64>,
}

impl<'a, H: PowerHook> TimedHook<'a, H> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: H, rec: &'a RefCell<Recorder>) -> Self {
        TimedHook {
            inner,
            rec,
            admit_declined: 0,
            wakeups: Cell::new(0),
        }
    }

    /// `admit_start` calls that deferred the job (`None`).
    pub fn admit_declined(&self) -> u64 {
        self.admit_declined
    }

    /// `next_power_event` calls that asked the engine for a wake-up.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.get()
    }

    /// The wrapped hook.
    pub fn into_inner(self) -> H {
        self.inner
    }

    fn span<T>(rec: &RefCell<Recorder>, layer: Layer, f: impl FnOnce() -> T) -> T {
        rec.borrow_mut().open(layer);
        let out = f();
        rec.borrow_mut().close();
        out
    }
}

impl<H: PowerHook> PowerHook for TimedHook<'_, H> {
    fn on_time(&mut self, now: Time) {
        let inner = &mut self.inner;
        Self::span(self.rec, Layer::HookOnTime, || inner.on_time(now));
    }

    fn admit_start(
        &mut self,
        now: Time,
        cpus: u32,
        gear: GearId,
        wq_others: usize,
        head: bool,
    ) -> Option<GearId> {
        let inner = &mut self.inner;
        let out = Self::span(self.rec, Layer::HookAdmit, || {
            inner.admit_start(now, cpus, gear, wq_others, head)
        });
        if out.is_none() {
            self.admit_declined += 1;
        }
        out
    }

    fn admission_declined(&mut self) {
        let inner = &mut self.inner;
        Self::span(self.rec, Layer::HookDeclined, || inner.admission_declined());
    }

    fn admit_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId) -> bool {
        let inner = &mut self.inner;
        Self::span(self.rec, Layer::HookAdmitGearChange, || {
            inner.admit_gear_change(now, cpus, from, to)
        })
    }

    fn on_job_start(&mut self, now: Time, cpus: u32, gear: GearId) {
        let inner = &mut self.inner;
        Self::span(self.rec, Layer::HookJobStart, || {
            inner.on_job_start(now, cpus, gear)
        });
    }

    fn on_job_finish(&mut self, now: Time, cpus: u32, gear: GearId) {
        let inner = &mut self.inner;
        Self::span(self.rec, Layer::HookJobFinish, || {
            inner.on_job_finish(now, cpus, gear)
        });
    }

    fn on_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId) {
        let inner = &mut self.inner;
        Self::span(self.rec, Layer::HookGearChange, || {
            inner.on_gear_change(now, cpus, from, to)
        });
    }

    fn next_power_event(&self, now: Time) -> Option<Time> {
        let out = Self::span(self.rec, Layer::HookNextEvent, || {
            self.inner.next_power_event(now)
        });
        if out.is_some() {
            self.wakeups.set(self.wakeups.get() + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_cluster::GearSet;
    use bsld_model::Job;
    use bsld_power::BetaModel;

    /// A policy whose every method, defaulted ones included, answers
    /// something the trait's default would not.
    struct Odd;

    impl FrequencyPolicy for Odd {
        fn head_gear(&self, _ctx: &DecisionCtx<'_>, _start: Time) -> GearId {
            GearId(1)
        }
        fn backfill_gear(
            &self,
            _ctx: &DecisionCtx<'_>,
            fits: &mut dyn FnMut(GearId) -> bool,
        ) -> Option<GearId> {
            (fits(GearId(0)) && fits(GearId(2))).then_some(GearId(2))
        }
        fn reserve_gear(
            &self,
            _ctx: &DecisionCtx<'_>,
            find_start: &mut dyn FnMut(GearId) -> Time,
        ) -> (GearId, Time) {
            (GearId(3), find_start(GearId(3)) + 7)
        }
        fn pass_elision_safe(&self) -> bool {
            true
        }
    }

    /// A hook whose defaulted methods are overridden and observable.
    #[derive(Default)]
    struct OddHook {
        declined: u32,
    }

    impl PowerHook for OddHook {
        fn on_time(&mut self, _now: Time) {}
        fn admit_start(
            &mut self,
            _n: Time,
            _c: u32,
            g: GearId,
            _w: usize,
            _h: bool,
        ) -> Option<GearId> {
            (g.0 > 0).then_some(g)
        }
        fn admission_declined(&mut self) {
            self.declined += 1;
        }
        fn admit_gear_change(&mut self, _n: Time, _c: u32, _f: GearId, _t: GearId) -> bool {
            false
        }
        fn on_job_start(&mut self, _n: Time, _c: u32, _g: GearId) {}
        fn on_job_finish(&mut self, _n: Time, _c: u32, _g: GearId) {}
        fn on_gear_change(&mut self, _n: Time, _c: u32, _f: GearId, _t: GearId) {}
        fn next_power_event(&self, now: Time) -> Option<Time> {
            Some(now + 5)
        }
    }

    #[test]
    fn policy_wrapper_forwards_every_method() {
        let rec = RefCell::new(Recorder::new());
        let p = TimedPolicy::new(&Odd, &rec);
        let model = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time::ZERO, 1, 10, 10);
        let ctx = DecisionCtx {
            now: Time::ZERO,
            job: &job,
            wq_others: 0,
            time_model: &model,
        };
        assert!(p.pass_elision_safe());
        assert_eq!(p.head_gear(&ctx, Time::ZERO), GearId(1));
        let mut asked = Vec::new();
        let got = p.backfill_gear(&ctx, &mut |g| {
            asked.push(g);
            true
        });
        assert_eq!((got, asked), (Some(GearId(2)), vec![GearId(0), GearId(2)]));
        assert_eq!(p.backfill_gear(&ctx, &mut |_| false), None);
        assert_eq!(p.backfill_declined(), 1);
        let (g, t) = p.reserve_gear(&ctx, &mut |_| Time::seconds(100));
        assert_eq!((g, t), (GearId(3), Time::seconds(100) + 7));
        let t = rec.borrow().tallies();
        assert_eq!(t[&(0, Layer::Fits)].calls, 3);
        assert_eq!(t[&(0, Layer::FindStart)].calls, 1);
        assert_eq!(t[&(0, Layer::PolicyBackfill)].calls, 2);
    }

    #[test]
    fn hook_wrapper_forwards_every_method() {
        let rec = RefCell::new(Recorder::new());
        let mut h = TimedHook::new(OddHook::default(), &rec);
        assert_eq!(h.next_power_event(Time::ZERO), Some(Time::ZERO + 5));
        assert_eq!(h.admit_start(Time::ZERO, 1, GearId(0), 0, true), None);
        assert_eq!(
            h.admit_start(Time::ZERO, 1, GearId(2), 0, true),
            Some(GearId(2))
        );
        h.admission_declined();
        assert!(!h.admit_gear_change(Time::ZERO, 1, GearId(0), GearId(5)));
        assert_eq!((h.admit_declined(), h.wakeups()), (1, 1));
        assert_eq!(h.into_inner().declined, 1);
        let t = rec.borrow().tallies();
        assert_eq!(t[&(0, Layer::HookAdmit)].calls, 2);
        assert_eq!(t[&(0, Layer::HookDeclined)].calls, 1);
    }
}
