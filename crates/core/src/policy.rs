//! The BSLD-threshold frequency-assignment policy (Figures 1–2).

use bsld_model::{bsld_predicted, GearId, BSLD_SHORT_JOB_THRESHOLD_SECS};
use bsld_sched::{DecisionCtx, FrequencyPolicy};
use bsld_simkernel::Time;

/// The wait-queue-size gate `WQ_threshold`.
///
/// The paper evaluates `0`, `4`, `16` and *no limit*. `Limit(0)` means "no
/// DVFS if any other job is waiting on execution".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WqThreshold {
    /// DVFS is considered only while at most this many other jobs wait.
    Limit(usize),
    /// DVFS is always considered (the paper's "NO LIMIT").
    NoLimit,
}

impl WqThreshold {
    /// Whether a wait queue of `wq_others` other jobs admits DVFS.
    #[inline]
    pub fn admits(&self, wq_others: usize) -> bool {
        match self {
            WqThreshold::Limit(l) => wq_others <= *l,
            WqThreshold::NoLimit => true,
        }
    }

    /// The label used in the paper's figures ("0", "4", "16", "NO").
    pub fn label(&self) -> String {
        match self {
            WqThreshold::Limit(l) => l.to_string(),
            WqThreshold::NoLimit => "NO".to_string(),
        }
    }

    /// Parses a [`WqThreshold::label`]-style string: a queue depth, or
    /// `"no"` (any case) for *no limit*.
    pub fn parse(s: &str) -> Result<WqThreshold, String> {
        if s.eq_ignore_ascii_case("no") {
            return Ok(WqThreshold::NoLimit);
        }
        s.parse()
            .map(WqThreshold::Limit)
            .map_err(|_| format!("bad WQ threshold {s:?}: expected a queue depth or \"no\""))
    }
}

impl std::fmt::Display for WqThreshold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The two adjustable parameters of the paper's algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAwareConfig {
    /// `BSLD_threshold`: a job may run reduced only while its predicted
    /// BSLD stays at or below this (the paper evaluates 1.5, 2 and 3).
    pub bsld_threshold: f64,
    /// `WQ_threshold`: the wait-queue-size gate.
    pub wq_threshold: WqThreshold,
}

impl PowerAwareConfig {
    /// The paper's "medium" configuration: threshold 2, no queue limit.
    pub fn medium() -> Self {
        PowerAwareConfig {
            bsld_threshold: 2.0,
            wq_threshold: WqThreshold::NoLimit,
        }
    }

    /// Compact label like `"2/NO"` for tables.
    pub fn label(&self) -> String {
        format!("{}/{}", self.bsld_threshold, self.wq_threshold)
    }
}

/// The frequency-assignment algorithm of Figures 1–2.
///
/// * **MakeJobReservation** ([`FrequencyPolicy::head_gear`]): if no more
///   than `WQ_threshold` jobs wait, try gears from the lowest frequency
///   upward and take the first whose predicted BSLD (Eq. 2) is within
///   `BSLD_threshold`; otherwise — and when no gear qualifies — use the top
///   gear. The head job is always scheduled.
/// * **BackfillJob** ([`FrequencyPolicy::backfill_gear`]): same search, but
///   a gear must additionally *fit* (start now without delaying the head
///   reservation), and the job is **not backfilled at all** if no gear
///   passes both checks — including the over-threshold branch, which only
///   considers the top gear. This faithful detail matters: once a job's
///   accumulated wait pushes its predicted BSLD over the threshold, the
///   policy stops backfilling it (it must wait to become head), which is
///   how the saturated SDSC workload loses performance under the policy.
#[derive(Debug, Clone, Copy)]
pub struct BsldThresholdPolicy {
    cfg: PowerAwareConfig,
}

impl BsldThresholdPolicy {
    /// A policy with the paper's 600 s short-job threshold.
    pub fn new(cfg: PowerAwareConfig) -> Self {
        BsldThresholdPolicy { cfg }
    }

    /// The configured parameters.
    pub fn config(&self) -> &PowerAwareConfig {
        &self.cfg
    }

    /// Predicted BSLD (Eq. 2) for a job waiting `wait` seconds, at `gear`.
    #[inline]
    fn predict(&self, ctx: &DecisionCtx<'_>, wait: u64, gear: GearId) -> f64 {
        let coef = ctx.coef(gear);
        bsld_predicted(wait, ctx.job.requested, coef, BSLD_SHORT_JOB_THRESHOLD_SECS)
    }
}

impl FrequencyPolicy for BsldThresholdPolicy {
    fn head_gear(&self, ctx: &DecisionCtx<'_>, start: Time) -> GearId {
        let top = ctx.time_model.gears().top();
        if !self.cfg.wq_threshold.admits(ctx.wq_others) {
            return top;
        }
        let wait = start.saturating_since(ctx.job.arrival);
        for (gear, _) in ctx.time_model.gears().ascending() {
            if self.predict(ctx, wait, gear) <= self.cfg.bsld_threshold {
                return gear;
            }
        }
        top
    }

    fn backfill_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        fits: &mut dyn FnMut(GearId) -> bool,
    ) -> Option<GearId> {
        let top = ctx.time_model.gears().top();
        let wait = ctx.now.saturating_since(ctx.job.arrival);
        if self.cfg.wq_threshold.admits(ctx.wq_others) {
            for (gear, _) in ctx.time_model.gears().ascending() {
                if self.predict(ctx, wait, gear) <= self.cfg.bsld_threshold && fits(gear) {
                    return Some(gear);
                }
            }
            None
        } else {
            (self.predict(ctx, wait, top) <= self.cfg.bsld_threshold && fits(top)).then_some(top)
        }
    }

    fn reserve_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        find_start: &mut dyn FnMut(GearId) -> Time,
    ) -> (GearId, Time) {
        // Under conservative backfilling the reservation start is gear-
        // dependent (a slower gear occupies the profile for longer, which
        // can push the job past a hole). This is exactly the paper's
        // `findAllocation(J, f)` loop: try each gear from the lowest
        // frequency, computing the allocation *for that gear*, and take
        // the first whose predicted BSLD passes.
        let top = ctx.time_model.gears().top();
        if self.cfg.wq_threshold.admits(ctx.wq_others) {
            for (gear, _) in ctx.time_model.gears().ascending() {
                let start = find_start(gear);
                let wait = start.saturating_since(ctx.job.arrival);
                if self.predict(ctx, wait, gear) <= self.cfg.bsld_threshold {
                    return (gear, start);
                }
            }
        }
        (top, find_start(top))
    }

    fn pass_elision_safe(&self) -> bool {
        // Safe for every `WQ_threshold`. `head_gear` reads `wq_others` but
        // not `now`, which the contract allows: the engine re-asks it when
        // the queue depth changes. Whether `backfill_gear` declines does
        // not depend on `wq_others`: both branches decline exactly when the
        // top gear fails, because the top gear has the lowest predicted
        // BSLD and the shortest window. A decline therefore persists while
        // the wait grows and the profile only weakens.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_cluster::GearSet;
    use bsld_model::Job;
    use bsld_power::BetaModel;

    fn ctx<'a>(job: &'a Job, tm: &'a BetaModel, now: u64, wq: usize) -> DecisionCtx<'a> {
        DecisionCtx {
            now: Time(now),
            job,
            wq_others: wq,
            time_model: tm,
        }
    }

    fn policy(th: f64, wq: WqThreshold) -> BsldThresholdPolicy {
        BsldThresholdPolicy::new(PowerAwareConfig {
            bsld_threshold: th,
            wq_threshold: wq,
        })
    }

    #[test]
    fn head_picks_lowest_gear_when_slack_allows() {
        // Long job (10000 s requested), no wait: lowest gear dilates to
        // 19375 s → PredBSLD ≈ 1.94 ≤ 2 → gear 0 admissible.
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 10_000, 10_000);
        let p = policy(2.0, WqThreshold::NoLimit);
        assert_eq!(p.head_gear(&ctx(&job, &tm, 0, 0), Time(0)), GearId(0));
    }

    #[test]
    fn head_steps_up_gears_as_wait_grows() {
        // With wait, the lowest gears blow the threshold and the search
        // moves up.
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 10_000, 10_000);
        let p = policy(2.0, WqThreshold::NoLimit);
        // wait 2000: gear0 pred = (2000+19375)/10000 ≈ 2.14 > 2;
        // gear1 (1.1GHz): coef = 0.5(2.3/1.1-1)+1 ≈ 1.545, pred ≈ 1.75 ≤ 2.
        assert_eq!(p.head_gear(&ctx(&job, &tm, 2000, 0), Time(2000)), GearId(1));
        // wait 9000: even top gear pred = 1.9 ≤ 2 → but gear4 (2.0GHz):
        // coef=1.075, pred=(9000+10750)/10000=1.975 ≤ 2 → gear 4 wins first.
        assert_eq!(p.head_gear(&ctx(&job, &tm, 9000, 0), Time(9000)), GearId(4));
    }

    #[test]
    fn head_falls_back_to_top_when_nothing_qualifies() {
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 10_000, 10_000);
        let p = policy(1.5, WqThreshold::NoLimit);
        // wait 20000 ⇒ pred ≥ 3 at every gear → top.
        assert_eq!(
            p.head_gear(&ctx(&job, &tm, 20_000, 0), Time(20_000)),
            GearId(5)
        );
    }

    #[test]
    fn wq_gate_forces_top() {
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 10_000, 10_000);
        let p = policy(3.0, WqThreshold::Limit(0));
        assert_eq!(
            p.head_gear(&ctx(&job, &tm, 0, 0), Time(0)),
            GearId(0),
            "empty queue admits"
        );
        assert_eq!(
            p.head_gear(&ctx(&job, &tm, 0, 1), Time(0)),
            GearId(5),
            "one waiter blocks"
        );
        let p4 = policy(3.0, WqThreshold::Limit(4));
        assert_eq!(p4.head_gear(&ctx(&job, &tm, 0, 4), Time(0)), GearId(0));
        assert_eq!(p4.head_gear(&ctx(&job, &tm, 0, 5), Time(0)), GearId(5));
    }

    #[test]
    fn short_jobs_always_admit_lowest_gear_when_idle() {
        // A 60 s job: denominator is the 600 s threshold, so even gear 0
        // dilation (116 s) keeps PredBSLD at 1.
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 1, 60, 60);
        let p = policy(1.5, WqThreshold::NoLimit);
        assert_eq!(p.head_gear(&ctx(&job, &tm, 0, 0), Time(0)), GearId(0));
    }

    #[test]
    fn backfill_requires_fit_and_threshold() {
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 10_000, 10_000);
        let p = policy(2.0, WqThreshold::NoLimit);
        // Only gears >= 2 fit: policy must skip the efficient-but-unfitting
        // gears and take gear 2 (if it passes the threshold).
        let c = ctx(&job, &tm, 0, 0);
        let got = p.backfill_gear(&c, &mut |g| g >= GearId(2));
        // gear2 coef = 0.5(2.3/1.4-1)+1 ≈ 1.321 → pred 1.32 ≤ 2.
        assert_eq!(got, Some(GearId(2)));
        // Nothing fits → no backfill.
        assert_eq!(p.backfill_gear(&c, &mut |_| false), None);
    }

    #[test]
    fn backfill_denied_when_wait_blows_threshold() {
        // Faithful Fig. 2 detail: predicted BSLD over the threshold at
        // every gear ⇒ the job is NOT backfilled even though it fits.
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 10_000, 10_000);
        let p = policy(1.5, WqThreshold::NoLimit);
        let c = ctx(&job, &tm, 20_000, 0);
        assert_eq!(p.backfill_gear(&c, &mut |_| true), None);
    }

    #[test]
    fn backfill_over_wq_limit_considers_only_top() {
        let tm = BetaModel::new(GearSet::paper());
        let job = Job::new(0, Time(0), 4, 10_000, 10_000);
        let p = policy(2.0, WqThreshold::Limit(0));
        let c = ctx(&job, &tm, 0, 3);
        let mut asked = Vec::new();
        let got = p.backfill_gear(&c, &mut |g| {
            asked.push(g);
            true
        });
        assert_eq!(got, Some(GearId(5)));
        assert_eq!(asked, vec![GearId(5)]);
    }

    #[test]
    fn labels() {
        assert_eq!(WqThreshold::Limit(4).label(), "4");
        assert_eq!(WqThreshold::NoLimit.label(), "NO");
        assert_eq!(
            PowerAwareConfig {
                bsld_threshold: 1.5,
                wq_threshold: WqThreshold::Limit(16)
            }
            .label(),
            "1.5/16"
        );
        assert_eq!(PowerAwareConfig::medium().label(), "2/NO");
    }
}
