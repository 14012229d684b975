//! Property-based tests over randomly generated workloads.
//!
//! Rather than hand-picking scenarios, generate arbitrary job mixes and
//! assert the invariants that must hold for *every* schedule the engine can
//! produce, under both the baseline and the paper's policy.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::cluster::{Cluster, GearSet};
use bsld::core::{BsldThresholdPolicy, PowerAwareConfig, WqThreshold};
use bsld::model::{GearId, Job, JobId};
use bsld::power::BetaModel;
use bsld::sched::{
    simulate, validate_schedule, DecisionCtx, EngineConfig, FixedGearPolicy, FrequencyPolicy,
};
use bsld::simkernel::Time;
use proptest::prelude::*;
use std::cell::RefCell;

/// Wraps a policy and logs `(job, start)` of every `head_gear` call: the
/// engine prices every head reservation, and every head start, through it.
/// All other decisions forward untouched, so the run is the inner policy's.
struct HeadLog<P> {
    inner: P,
    calls: RefCell<Vec<(JobId, Time)>>,
}

impl<P: FrequencyPolicy> FrequencyPolicy for HeadLog<P> {
    fn head_gear(&self, ctx: &DecisionCtx<'_>, start: Time) -> GearId {
        self.calls.borrow_mut().push((ctx.job.id, start));
        self.inner.head_gear(ctx, start)
    }

    fn backfill_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        fits: &mut dyn FnMut(GearId) -> bool,
    ) -> Option<GearId> {
        self.inner.backfill_gear(ctx, fits)
    }

    fn reserve_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        find_start: &mut dyn FnMut(GearId) -> Time,
    ) -> (GearId, Time) {
        self.inner.reserve_gear(ctx, find_start)
    }

    fn pass_elision_safe(&self) -> bool {
        self.inner.pass_elision_safe()
    }
}

/// Strategy: a random rigid job with arrival jitter, bounded size/runtime.
fn arb_job(max_cpus: u32) -> impl Strategy<Value = (u64, u32, u64, u64)> {
    (
        0u64..20_000,            // arrival offset
        1u32..=max_cpus,         // cpus
        1u64..5_000,             // runtime
        proptest::num::u64::ANY, // estimate inflation source
    )
        .prop_map(|(arr, cpus, run, infl)| {
            let factor = 1 + (infl % 8); // requested in [runtime, 8×runtime]
            (arr, cpus, run, run.saturating_mul(factor).max(run))
        })
}

fn build_jobs(raw: Vec<(u64, u32, u64, u64)>) -> Vec<Job> {
    let mut arrivals: Vec<u64> = raw.iter().map(|r| r.0).collect();
    arrivals.sort_unstable();
    raw.into_iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, ((_, cpus, run, req), arr))| Job::new(i as u32, Time(arr), cpus, run, req))
        .collect()
}

fn run_policy<P: FrequencyPolicy>(
    cpus: u32,
    jobs: &[Job],
    policy: &P,
) -> Vec<bsld::model::JobOutcome> {
    let gears = GearSet::paper();
    let tm = BetaModel::new(gears.clone());
    let res = simulate(
        &Cluster::new("prop", cpus, gears),
        jobs,
        policy,
        &tm,
        &EngineConfig::default(),
    )
    .unwrap();
    res.outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The baseline schedule is always physically valid and complete.
    #[test]
    fn baseline_schedule_always_valid(raw in proptest::collection::vec(arb_job(16), 1..120)) {
        let jobs = build_jobs(raw);
        let gears = GearSet::paper();
        let outcomes = run_policy(16, &jobs, &FixedGearPolicy::new(gears.top()));
        prop_assert_eq!(outcomes.len(), jobs.len());
        validate_schedule(&outcomes, 16).map_err(TestCaseError::fail)?;
        // No DVFS ⇒ exact nominal runtimes.
        for o in &outcomes {
            prop_assert_eq!(o.penalized_runtime(), o.nominal_runtime);
        }
    }

    /// The power-aware schedule is always valid, never dilates beyond the
    /// lowest gear's coefficient, and never shortens a job.
    #[test]
    fn policy_schedule_always_valid(
        raw in proptest::collection::vec(arb_job(16), 1..120),
        th in 1.2f64..4.0,
        wq in 0usize..20,
    ) {
        let jobs = build_jobs(raw);
        let policy = BsldThresholdPolicy::new(PowerAwareConfig {
            bsld_threshold: th,
            wq_threshold: if wq >= 18 { WqThreshold::NoLimit } else { WqThreshold::Limit(wq) },
        });
        let outcomes = run_policy(16, &jobs, &policy);
        prop_assert_eq!(outcomes.len(), jobs.len());
        validate_schedule(&outcomes, 16).map_err(TestCaseError::fail)?;
        let max_coef = 0.5 * (2.3 / 0.8 - 1.0) + 1.0 + 1e-9;
        for o in &outcomes {
            let dilation = o.penalized_runtime() as f64 / o.nominal_runtime as f64;
            prop_assert!(dilation >= 0.99, "{}: shrunk to {dilation}", o.id);
            // Rounding to whole seconds can push tiny jobs slightly past
            // the ideal coefficient; allow +1 s slack.
            let limit = (o.nominal_runtime as f64 * max_coef).round() + 1.0;
            prop_assert!(
                o.penalized_runtime() as f64 <= limit,
                "{}: dilated past the lowest gear: {} > {}",
                o.id, o.penalized_runtime(), limit
            );
        }
    }

    /// Total busy time under the policy is at least the baseline's, and
    /// computational energy is at most the baseline's.
    #[test]
    fn policy_trades_time_for_energy(raw in proptest::collection::vec(arb_job(8), 1..80)) {
        let jobs = build_jobs(raw);
        let gears = GearSet::paper();
        let pm = bsld::power::PaperDvfs::paper(gears.clone());
        let base = run_policy(8, &jobs, &FixedGearPolicy::new(gears.top()));
        let policy = BsldThresholdPolicy::new(PowerAwareConfig::medium());
        let dvfs = run_policy(8, &jobs, &policy);

        let busy = |os: &[bsld::model::JobOutcome]| -> u64 { os.iter().map(|o| o.area()).sum() };
        prop_assert!(busy(&dvfs) >= busy(&base));

        let energy = |os: &[bsld::model::JobOutcome]| {
            let mut acc = bsld::power::EnergyAccount::new();
            for o in os {
                acc.add_outcome(&pm, o);
            }
            acc.finish(&pm, 8, 1).computational
        };
        prop_assert!(energy(&dvfs) <= energy(&base) + 1e-6);
    }

    /// With exact user estimates, making estimates *looser* (scaling
    /// requested times up) never breaks schedule validity.
    #[test]
    fn estimate_inflation_keeps_validity(
        raw in proptest::collection::vec(arb_job(8), 1..60),
        scale in 1u64..6,
    ) {
        let mut jobs = build_jobs(raw);
        for j in &mut jobs {
            j.requested = j.requested.saturating_mul(scale);
        }
        let gears = GearSet::paper();
        let outcomes = run_policy(8, &jobs, &FixedGearPolicy::new(gears.top()));
        validate_schedule(&outcomes, 8).map_err(TestCaseError::fail)?;
    }

    /// Determinism: the same input always produces the identical schedule.
    #[test]
    fn simulation_is_deterministic(raw in proptest::collection::vec(arb_job(12), 1..60)) {
        let jobs = build_jobs(raw);
        let policy = BsldThresholdPolicy::new(PowerAwareConfig::medium());
        let a = run_policy(12, &jobs, &policy);
        let b = run_policy(12, &jobs, &policy);
        prop_assert_eq!(a, b);
    }

    /// Conservative backfilling also always yields valid, complete
    /// schedules — under the baseline and the paper's policy.
    #[test]
    fn conservative_schedule_always_valid(
        raw in proptest::collection::vec(arb_job(16), 1..100),
        dvfs in proptest::bool::ANY,
    ) {
        let jobs = build_jobs(raw);
        let gears = GearSet::paper();
        let tm = BetaModel::new(gears.clone());
        let cfg = bsld::sched::EngineConfig {
            mode: bsld::sched::SchedMode::Conservative,
            ..Default::default()
        };
        let cluster = Cluster::new("prop", 16, gears.clone());
        let outcomes = if dvfs {
            let policy = BsldThresholdPolicy::new(PowerAwareConfig::medium());
            simulate(&cluster, &jobs, &policy, &tm, &cfg).unwrap().outcomes
        } else {
            let policy = FixedGearPolicy::new(gears.top());
            simulate(&cluster, &jobs, &policy, &tm, &cfg).unwrap().outcomes
        };
        prop_assert_eq!(outcomes.len(), jobs.len());
        validate_schedule(&outcomes, 16).map_err(TestCaseError::fail)?;
    }

    /// Contiguous selection: schedules stay valid, every allocation is one
    /// contiguous range, and no job can ever start *earlier* than under
    /// First Fit at the same decision points would allow physically.
    #[test]
    fn contiguous_selection_always_valid(raw in proptest::collection::vec(arb_job(16), 1..80)) {
        let jobs = build_jobs(raw);
        let gears = GearSet::paper();
        let tm = BetaModel::new(gears.clone());
        let cfg = bsld::sched::EngineConfig {
            selection: bsld::cluster::SelectionPolicy::ContiguousFirstFit,
            ..Default::default()
        };
        let cluster = Cluster::new("prop", 16, gears.clone());
        let policy = FixedGearPolicy::new(gears.top());
        let res = simulate(&cluster, &jobs, &policy, &tm, &cfg).unwrap();
        prop_assert_eq!(res.outcomes.len(), jobs.len());
        validate_schedule(&res.outcomes, 16).map_err(TestCaseError::fail)?;
    }

    /// The EASY no-delay guarantee, observed through the policy's
    /// head-gear calls: for any job, successive reservations never move
    /// *later* — runtime over-estimates and early completions can only pull
    /// a reservation forward, and backfilled jobs are barred from pushing
    /// it back — and no job starts after its last reservation.
    #[test]
    fn easy_reservations_never_regress(raw in proptest::collection::vec(arb_job(16), 1..100)) {
        let jobs = build_jobs(raw);
        let gears = GearSet::paper();
        let tm = BetaModel::new(gears.clone());
        let cluster = Cluster::new("prop", 16, gears.clone());
        let policy = HeadLog {
            inner: FixedGearPolicy::new(gears.top()),
            calls: RefCell::new(Vec::new()),
        };
        let res = simulate(&cluster, &jobs, &policy, &tm, &EngineConfig::default()).unwrap();
        let calls = policy.calls.into_inner();
        // The first arrival always starts as the head.
        prop_assert!(!calls.is_empty());
        let mut last_reservation: std::collections::BTreeMap<JobId, Time> =
            std::collections::BTreeMap::new();
        for (job, start) in calls {
            if let Some(&prev) = last_reservation.get(&job) {
                prop_assert!(start <= prev, "{job}: reservation moved later ({prev} -> {start})");
            }
            last_reservation.insert(job, start);
        }
        for o in &res.outcomes {
            if let Some(&reserved) = last_reservation.get(&o.id) {
                prop_assert!(
                    o.start <= reserved,
                    "{}: started at {} after its reservation {reserved}",
                    o.id,
                    o.start
                );
            }
        }
    }

    /// Non-contiguous selection policies are schedule-equivalent: the
    /// count-based scheduler cannot observe processor identity.
    #[test]
    fn last_fit_is_schedule_equivalent_to_first_fit(
        raw in proptest::collection::vec(arb_job(12), 1..80),
    ) {
        let jobs = build_jobs(raw);
        let gears = GearSet::paper();
        let tm = BetaModel::new(gears.clone());
        let cluster = Cluster::new("prop", 12, gears.clone());
        let policy = FixedGearPolicy::new(gears.top());
        let ff = simulate(&cluster, &jobs, &policy, &tm, &Default::default()).unwrap();
        let lf_cfg = bsld::sched::EngineConfig {
            selection: bsld::cluster::SelectionPolicy::LastFit,
            ..Default::default()
        };
        let lf = simulate(&cluster, &jobs, &policy, &tm, &lf_cfg).unwrap();
        for (a, b) in ff.outcomes.iter().zip(&lf.outcomes) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.finish, b.finish);
        }
    }
}
