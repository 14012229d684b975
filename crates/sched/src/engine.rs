//! The event-driven EASY backfilling simulator.
//!
//! # Scheduling semantics
//!
//! On every event (job arrival or completion) the engine runs a scheduling
//! pass. Arrivals are read in order from the (arrival-sorted) job slice
//! through a cursor rather than from the event queue, which holds only
//! completions and power-hook wake-ups; at equal times the arrival goes
//! first, so every arrival at an instant is handled, one per event, before
//! anything else at that instant. The pass:
//!
//! 1. **Start head jobs.** While the head of the wait queue fits on the
//!    currently free processors it starts immediately (First Fit processor
//!    selection), at the gear chosen by the [`FrequencyPolicy`].
//! 2. **Reserve.** The remaining head job (if any) receives the only
//!    reservation: the earliest instant — according to the *requested*
//!    completion times of running jobs — at which its processors are
//!    available. The reservation (at its policy-chosen gear and dilated
//!    requested duration) is committed into the availability profile.
//! 3. **Backfill.** Every other queued job, in arrival order, may start now
//!    iff its dilated requested runtime fits the committed profile — i.e.
//!    iff it cannot delay the reservation. The gear is again chosen by the
//!    policy, which may decline.
//!
//! Because passes rerun on every completion, early finishes automatically
//! reschedule all queued jobs, as in the paper. Reservations are
//! re-derived each pass and can only move earlier, preserving the EASY
//! no-delay guarantee.
//!
//! # Incremental pass pipeline
//!
//! Naively, every event rebuilds the availability profile from *all*
//! running jobs and re-runs the whole pass — O(events × running jobs) of
//! pure re-derivation. With [`EngineConfig::incremental`] (the default)
//! the engine instead maintains:
//!
//! * a **sorted running-jobs index** (`expected_end → cpus`), so a rebuild
//!   is a merged in-order iteration instead of a scan-and-sort, feeding a
//!   **reusable** [`ProfileBuilder`]/profile buffer (no per-pass
//!   allocation);
//! * a **cached head reservation** plus the committed profile it lives in,
//!   kept alive across events and updated *in place*: a completion releases
//!   the finished job's remaining `[now, expected_end)` window
//!   ([`bsld_cluster::Profile::release_over`]), the stale reservation is
//!   released, the reservation is re-derived (it can only move earlier) and
//!   re-committed — no rebuild. The committed profile is a function of the
//!   running jobs and the reservation only, so every EASY run keeps it,
//!   whatever the policy, hook or boost;
//! * **pass skipping** for arrival and power-retry events that provably
//!   cannot change the schedule. Same-instant arrivals are *not* batched
//!   into one pass: each gets its own event, so each is offered to
//!   backfilling at the queue depth a full pass would show it — a batch
//!   would show the first arrivals a deeper queue, which a wait-queue gate
//!   can observe.
//!
//! A full rebuild only happens when the cache is genuinely invalidated: a
//! running job's *requested* end has been reached without its completion
//! event (same-instant ordering) and the profile was not already rebuilt
//! at this instant, a mid-run re-time (boost), a reservation that starts
//! "now" (contiguous-selection fragmentation or a deferred head), or a
//! queue that drained.
//!
//! ## Pass-skip conditions
//!
//! An arrival or power-retry event is skipped (no pass at all) only when
//! **all** hold: the engine runs EASY mode with no boost; the policy
//! declares itself elision-safe
//! ([`crate::FrequencyPolicy::pass_elision_safe`]) or backfilling is off;
//! the queue was non-empty (so the head — which could not start at the
//! previous pass, and nothing has freed processors since — is unchanged);
//! the [`PowerHook`], if any, has not turned down a start since the last
//! full pass (the **veto rule**: a deferral, or an admission whose gear
//! no longer fits or could not be allocated, forces every later event
//! onto the full pass until a full pass clears it); the **head gear is
//! unchanged** (when the queue depth differs from the one the cached
//! reservation was priced at, `head_gear` is asked again at the new depth
//! and the same start — the start cannot have moved — and a different
//! gear takes the full pass, which re-derives the reservation. Only the
//! reservation's end depends on that gear, and the end cannot change a
//! decision to start a job now, because the availability of running jobs
//! never dips after `now`; so this keeps the cached reservation equal to
//! the one a full pass would commit, which a debug-build check asserts,
//! rather than guarding outcomes directly); and the
//! arriving job either needs more processors than are free or is declined
//! by `backfill_gear` against the cached committed profile (a job it
//! accepts is offered to the hook and started, exactly as in a full pass).
//! Under the elision-safety contract every *older* queued job keeps
//! failing too (its wait only grew, the profile only weakened, and whether
//! it is declined does not depend on the queue depth), and under the veto
//! rule none of them is waiting on the hook, so outcomes — and the hook's
//! sequence of calls — are bit-identical to the full re-scheduling engine.
//! `EngineConfig { incremental: false, .. }` keeps the always-rebuild path
//! as an A/B oracle, and [`SimResult::stats`] exposes rebuild/skip counters.
//!
//! # Dynamic boost (paper future work)
//!
//! With [`BoostConfig`] enabled, whenever the wait queue is deeper than
//! `wq_limit` after a pass, every running job at a reduced gear is re-timed
//! to the top gear from "now" onwards. Completed work is converted through
//! the β model, a new completion event is scheduled (stale events are
//! invalidated by an epoch counter), and the gear change is recorded as a
//! new execution phase.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use bsld_cluster::{Cluster, ProcSet, ProcessorPool, Profile, ProfileBuilder, SelectionPolicy};
use bsld_model::{GearId, Job, JobId, JobOutcome, Phase};
use bsld_power::BetaModel;
use bsld_simkernel::{EventQueue, Time};

use crate::hook::PowerHook;
use crate::policy::{DecisionCtx, FrequencyPolicy};

/// The queueing discipline the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// EASY backfilling (the paper's substrate): one reservation for the
    /// queue head; other jobs backfill iff they cannot delay it.
    #[default]
    Easy,
    /// Conservative backfilling: *every* queued job holds a reservation
    /// (re-derived each event, in arrival order); a job starts early only
    /// into holes left by all earlier reservations. The classic
    /// lower-variance alternative to EASY, provided as an ablation
    /// substrate.
    Conservative,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Queueing discipline.
    pub mode: SchedMode,
    /// Enable backfilling (EASY step 3). `false` degrades EASY to plain
    /// FCFS with a head reservation — the ablation baseline. Ignored under
    /// [`SchedMode::Conservative`] (conservative *is* backfilling).
    pub backfill: bool,
    /// Resource selection policy: which processors a cleared job gets.
    pub selection: SelectionPolicy,
    /// Enable the dynamic-boost extension.
    pub boost: Option<BoostConfig>,
    /// Run the incremental hot path (cached reservation, in-place profile
    /// updates, pass skipping — see the module docs). `false` forces the
    /// reference behaviour: a full profile rebuild on every pass. Outcomes
    /// are bit-identical either way; the toggle exists for A/B verification
    /// and benchmarking.
    pub incremental: bool,
    /// Cooperative-cancellation flag, polled once per event. When a caller
    /// raises it (e.g. a campaign cell's wall-time budget expired), the run
    /// returns [`SimError::Aborted`] at the next event instead of driving
    /// the workload to completion. `None` (the default) checks nothing.
    pub abort: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Deterministic trace sink (the `bsld-obs` trace plane): when set,
    /// the engine records structured sim-time events — arrivals, starts,
    /// finishes, pass outcomes (including elision), cap vetoes, retries,
    /// boosts — through it. A sink does *not* disable pass elision:
    /// skipped passes are themselves traced. `None` (the default) is a
    /// no-op: one branch per would-be event, no allocation.
    pub sink: Option<std::sync::Arc<dyn bsld_obs::TraceSink>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: SchedMode::Easy,
            backfill: true,
            selection: SelectionPolicy::FirstFit,
            boost: None,
            incremental: true,
            abort: None,
            sink: None,
        }
    }
}

/// Dynamic-boost extension parameters.
#[derive(Debug, Clone, Copy)]
pub struct BoostConfig {
    /// Boost running reduced jobs to the top gear whenever more than this
    /// many jobs are waiting after a scheduling pass.
    pub wq_limit: usize,
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A job requests more processors than the machine has.
    JobTooLarge {
        /// The offending job.
        job: JobId,
        /// Processors requested.
        cpus: u32,
        /// Machine size.
        total: u32,
    },
    /// Jobs were not sorted by arrival time.
    ArrivalsNotSorted,
    /// The simulation ran out of events with jobs still waiting: a power
    /// hook vetoed every start and nothing is running whose completion
    /// could free budget — the configured power cap is infeasible for the
    /// workload.
    Stalled {
        /// Jobs left waiting when the event queue drained.
        waiting: usize,
    },
    /// The caller raised [`EngineConfig::abort`] mid-run (a wall-time
    /// budget expired, or the driver is shutting down); the partial state
    /// is discarded.
    Aborted,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::JobTooLarge { job, cpus, total } => {
                write!(f, "{job} requests {cpus} cpus but the machine has {total}")
            }
            SimError::ArrivalsNotSorted => write!(f, "jobs must be sorted by arrival time"),
            SimError::Stalled { waiting } => write!(
                f,
                "simulation stalled with {waiting} jobs waiting: the power cap admits no start"
            ),
            SimError::Aborted => write!(f, "simulation aborted by the caller"),
        }
    }
}

impl std::error::Error for SimError {}

/// Scheduling-pass statistics (diagnostics for the incremental engine).
///
/// Counter semantics: every *executed* pass increments `passes`; a pass
/// that rebuilt the availability profile from the running-jobs index also
/// increments `profile_rebuilds`; an event whose pass was proven a no-op
/// and skipped outright increments
/// `passes_skipped` and nothing else. With
/// [`EngineConfig::incremental`]` = false`, `passes_skipped` stays 0 and
/// every pass that reaches the reservation step rebuilds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Scheduling passes executed.
    pub passes: u64,
    /// Passes that rebuilt the availability profile from scratch.
    pub profile_rebuilds: u64,
    /// Events whose scheduling pass was provably a no-op and skipped.
    pub passes_skipped: u64,
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// One outcome per job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Completion time of the last job (simulation start is 0).
    pub makespan: Time,
    /// Pass/rebuild/skip counters of the incremental engine.
    pub stats: PassStats,
}

/// What the event loop handles. Only `Finish` and `PowerRetry` are ever
/// pushed into the event queue; arrivals are read in order from `jobs`
/// through the arrival cursor (see [`Simulation::next_event`]).
enum Event {
    Arrive(JobId),
    Finish(JobId, u32),
    /// A no-op wake-up requested by the power hook: its power state will
    /// change autonomously at this instant (e.g. an idle sleep transition
    /// frees budget), so deferred starts deserve a fresh scheduling pass.
    PowerRetry,
}

struct RunningJob {
    cpus: u32,
    procs: ProcSet,
    start: Time,
    /// When the reservation bookkeeping expects the processors back
    /// (requested time, dilated to the current gear, from the current
    /// phase's start).
    expected_end: Time,
    /// Current gear.
    gear: GearId,
    /// Wall-clock start of the current phase.
    phase_start: Time,
    /// Completed phases before the current one.
    phases: Vec<Phase>,
    /// Top-frequency work-seconds completed before the current phase.
    work_done: f64,
    /// Requested-work-seconds budget consumed before the current phase
    /// (for re-deriving `expected_end` after a boost).
    requested_done: f64,
    /// Invalidates stale completion events after a re-time.
    epoch: u32,
}

/// The cached head-of-queue reservation (see the module docs): the window
/// committed into the live profile, remembered so later passes can release
/// and re-derive it in place, plus the gear the policy chose for it and
/// the queue depth (`wq_others`) it chose that gear at.
#[derive(Debug, Clone, Copy)]
struct HeadReservation {
    head: JobId,
    start: Time,
    end: Time,
    gear: GearId,
    depth: usize,
}

/// An in-flight simulation. Use [`simulate`] unless you need stepping.
pub struct Simulation<'a, P: FrequencyPolicy + ?Sized> {
    jobs: &'a [Job],
    policy: &'a P,
    time_model: &'a BetaModel,
    cfg: EngineConfig,
    top: GearId,
    hook: Option<&'a mut dyn PowerHook>,

    now: Time,
    /// The latest power-retry instant already scheduled (dedup guard).
    pending_retry: Option<Time>,
    /// Index into `jobs` of the next arrival to deliver.
    next_arrival: usize,
    /// Completions and power retries; arrivals never enter it.
    events: EventQueue<Event>,
    pool: ProcessorPool,
    queue: VecDeque<JobId>,
    running: BTreeMap<JobId, RunningJob>,
    /// Sorted running-jobs index: expected (requested) end → cpus freed
    /// there. Rebuilding the profile is a merged in-order iteration of this
    /// map; completions/boosts keep it current.
    end_index: BTreeMap<Time, u32>,
    /// Reusable profile-construction buffers (no per-pass allocation).
    builder: ProfileBuilder,
    profile: Profile,
    /// The reservation currently committed into `profile`, if the cache is
    /// live.
    cache: Option<HeadReservation>,
    /// The instant of the last profile rebuild.
    rebuilt_at: Time,
    /// `(expected_end, cpus)` of the job completed by the current event,
    /// consumed by the next pass's in-place profile update.
    last_completion: Option<(Time, u32)>,
    /// Whether the committed profile and its cached reservation are kept
    /// across passes and updated in place (every incremental EASY run).
    reuse_profile: bool,
    /// Whether provably no-op passes may be skipped; see the module docs
    /// for the exact conditions.
    elide: bool,
    /// Set when the power hook was consulted about a start that then did
    /// not happen (deferred, or admitted at a gear the engine could not
    /// honor); cleared at the start of every full pass. While set, every
    /// event takes the full pass.
    hook_vetoed: bool,
    /// Scratch buffers reused across passes.
    scratch_candidates: Vec<JobId>,
    scratch_started: Vec<JobId>,
    outcomes: Vec<JobOutcome>,
    stats: PassStats,
}

/// Runs `jobs` (sorted by arrival) on `cluster` under `policy`.
///
/// This is the whole-workload entry point used by every experiment.
pub fn simulate<P: FrequencyPolicy + ?Sized>(
    cluster: &Cluster,
    jobs: &[Job],
    policy: &P,
    time_model: &BetaModel,
    cfg: &EngineConfig,
) -> Result<SimResult, SimError> {
    Simulation::new(cluster, jobs, policy, time_model, cfg.clone())?.run()
}

/// Runs `jobs` on `cluster` under `policy` with a [`PowerHook`] observing
/// and gating every power-relevant decision (see `bsld-powercap`).
pub fn simulate_with_hook<P: FrequencyPolicy + ?Sized>(
    cluster: &Cluster,
    jobs: &[Job],
    policy: &P,
    time_model: &BetaModel,
    cfg: &EngineConfig,
    hook: &mut dyn PowerHook,
) -> Result<SimResult, SimError> {
    Simulation::new(cluster, jobs, policy, time_model, cfg.clone())?
        .with_hook(hook)
        .run()
}

impl<'a, P: FrequencyPolicy + ?Sized> Simulation<'a, P> {
    /// Validates inputs and prepares the event queue.
    pub fn new(
        cluster: &Cluster,
        jobs: &'a [Job],
        policy: &'a P,
        time_model: &'a BetaModel,
        cfg: EngineConfig,
    ) -> Result<Self, SimError> {
        for w in jobs.windows(2) {
            if w[1].arrival < w[0].arrival {
                return Err(SimError::ArrivalsNotSorted);
            }
        }
        for job in jobs {
            if job.cpus > cluster.cpus {
                return Err(SimError::JobTooLarge {
                    job: job.id,
                    cpus: job.cpus,
                    total: cluster.cpus,
                });
            }
        }
        // The in-place profile depends only on running jobs and the
        // reservation, so every incremental EASY run may keep it. Skipping
        // a pass is only provably outcome-preserving with no boost and an
        // elision-safe policy (or no backfilling, where an arrival behind a
        // blocked head is inert); a hook adds the runtime veto rule.
        let reuse_profile = cfg.incremental && cfg.mode == SchedMode::Easy;
        let elide =
            reuse_profile && cfg.boost.is_none() && (policy.pass_elision_safe() || !cfg.backfill);
        let pool = cluster.pool();
        Ok(Simulation {
            jobs,
            policy,
            time_model,
            cfg,
            top: time_model.gears().top(),
            hook: None,
            now: Time::ZERO,
            pending_retry: None,
            next_arrival: 0,
            events: EventQueue::new(),
            builder: ProfileBuilder::new(Time::ZERO, pool.total(), pool.total()),
            profile: Profile::flat(Time::ZERO, pool.total(), pool.total()),
            pool,
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            end_index: BTreeMap::new(),
            cache: None,
            rebuilt_at: Time::ZERO,
            last_completion: None,
            reuse_profile,
            elide,
            hook_vetoed: false,
            scratch_candidates: Vec::new(),
            scratch_started: Vec::new(),
            outcomes: Vec::with_capacity(jobs.len()),
            stats: PassStats::default(),
        })
    }

    /// Attaches a [`PowerHook`] (builder style). The hook observes every
    /// start/completion/gear change and may veto or down-gear decisions.
    /// Pass elision stays on under the veto rule (see the module docs).
    pub fn with_hook(mut self, hook: &'a mut dyn PowerHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Drives the event loop to completion.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let abort = self.cfg.abort.clone();
        while let Some((t, ev)) = self.next_event() {
            // One relaxed load per event — noise next to a scheduling
            // pass — buys prompt, deterministic cancellation: the run
            // never advances past the event at which the flag was seen.
            if let Some(flag) = &abort {
                if flag.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(SimError::Aborted);
                }
            }
            debug_assert!(t >= self.now, "event time went backwards");
            // Discard no-op events *before* advancing the hook's clock: a
            // stale Finish (from before a re-time) or an obsolete power
            // retry can sit later than the run's real makespan, and
            // advancing the ledger there would integrate energy past the
            // end of the run.
            match &ev {
                Event::Finish(id, epoch) => {
                    if self.running.get(id).is_none_or(|r| r.epoch != *epoch) {
                        continue;
                    }
                }
                Event::PowerRetry => {
                    // The wake-up is being delivered (or is obsolete):
                    // clear the dedup guard either way, so a hook that
                    // re-reports the same future instant is not swallowed
                    // by bookkeeping for an event that no longer exists.
                    if self.pending_retry == Some(t) {
                        self.pending_retry = None;
                    }
                    if self.queue.is_empty() {
                        continue;
                    }
                }
                Event::Arrive(_) => {}
            }
            self.now = t;
            if let Some(h) = self.hook.as_deref_mut() {
                h.on_time(t);
            }
            match ev {
                Event::Arrive(id) => {
                    self.queue.push_back(id);
                    self.emit(|| bsld_obs::TraceEvent::JobArrive {
                        t: t.as_micros(),
                        job: u64::from(id.0),
                    });
                    if self.elide {
                        self.pass_after_arrival(Some(id));
                    } else {
                        self.schedule_pass();
                    }
                }
                Event::Finish(id, _) => {
                    self.complete(id);
                    self.schedule_pass();
                }
                Event::PowerRetry => {
                    self.emit(|| bsld_obs::TraceEvent::PowerRetry { t: t.as_micros() });
                    if self.elide {
                        // A wake-up adds no job: the elided path with no
                        // arrival.
                        self.pass_after_arrival(None);
                    } else {
                        self.schedule_pass();
                    }
                }
            }
            self.maybe_boost();
            self.maybe_schedule_power_retry();
        }
        if !self.queue.is_empty() {
            // Only reachable when a power hook vetoes every start with
            // nothing running: the budget is infeasible for the workload.
            return Err(SimError::Stalled {
                waiting: self.queue.len(),
            });
        }
        debug_assert!(
            self.running.is_empty(),
            "jobs left running at end of simulation"
        );
        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.finish)
            .max()
            .unwrap_or(Time::ZERO);
        Ok(SimResult {
            outcomes: self.outcomes,
            makespan,
            stats: self.stats,
        })
    }

    /// The next event to handle: the next arrival when it is due no later
    /// than the earliest queued event, else that queued event. Ties go to
    /// the arrival, so every arrival at an instant is handled before any
    /// completion or power retry at that instant.
    fn next_event(&mut self) -> Option<(Time, Event)> {
        if let Some(job) = self.jobs.get(self.next_arrival) {
            if self.events.peek_time().is_none_or(|t| job.arrival <= t) {
                self.next_arrival += 1;
                return Some((job.arrival, Event::Arrive(job.id)));
            }
        }
        self.events.pop()
    }

    /// The job record for `id`. Returns the `'a` workload lifetime (not
    /// tied to `&self`), so callers can keep the reference across mutable
    /// engine calls.
    fn job(&self, id: JobId) -> &'a Job {
        &self.jobs[id.index()]
    }

    /// Records a `bsld-obs` trace event on the configured sink. The
    /// closure defers event construction, so the disabled path (`sink =
    /// None`) costs one branch and allocates nothing.
    #[inline]
    fn emit(&self, ev: impl FnOnce() -> bsld_obs::TraceEvent) {
        if let Some(sink) = &self.cfg.sink {
            sink.record(ev());
        }
    }

    fn ctx<'b>(&'b self, job: &'b Job, wq_others: usize) -> DecisionCtx<'b> {
        DecisionCtx {
            now: self.now,
            job,
            wq_others,
            time_model: self.time_model,
        }
    }

    /// Schedules a wake-up at the hook's next autonomous power-state
    /// change while jobs wait. Without this, a start deferred on a fully
    /// idle machine would never be retried even though a pending sleep
    /// transition will lower draw below the budget — sleep transitions
    /// generate no job events of their own.
    fn maybe_schedule_power_retry(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let now = self.now;
        let Some(h) = self.hook.as_deref_mut() else {
            return;
        };
        let Some(at) = h.next_power_event(now) else {
            return;
        };
        if at <= now || self.pending_retry == Some(at) {
            return;
        }
        self.pending_retry = Some(at);
        self.events.push(at, Event::PowerRetry);
    }

    /// Tells the power hook (if any) that its last admission was not
    /// honored — the start it approved did not happen.
    fn hook_declined(&mut self) {
        if let Some(h) = self.hook.as_deref_mut() {
            h.admission_declined();
            self.hook_vetoed = true;
        }
    }

    /// Consults the power hook (if any) about starting `cpus` processors at
    /// `gear` right now. `None` means the start is deferred.
    fn hook_admit(
        &mut self,
        cpus: u32,
        gear: GearId,
        wq_others: usize,
        head: bool,
    ) -> Option<GearId> {
        let now = self.now;
        match self.hook.as_deref_mut() {
            None => Some(gear),
            Some(h) => {
                let Some(admitted) = h.admit_start(now, cpus, gear, wq_others, head) else {
                    self.hook_vetoed = true;
                    return None;
                };
                debug_assert!(admitted <= gear, "a power hook may only down-gear a start");
                Some(admitted)
            }
        }
    }

    /// Attempts to start `id` right now at `gear` under the configured
    /// selection policy. Returns `false` (changing nothing) when the
    /// selection policy cannot serve the request — only possible with
    /// contiguous selection under fragmentation.
    fn try_start_job(&mut self, id: JobId, gear: GearId, backfilled: bool) -> bool {
        let job = &self.jobs[id.index()];
        let Some(procs) = self.pool.allocate(job.cpus, self.cfg.selection) else {
            return false;
        };
        let wall = self.time_model.dilate(job.runtime, job.beta, gear);
        let expected = self.time_model.dilate(job.requested, job.beta, gear);
        // Real traces contain jobs whose runtime exceeds the user estimate.
        // EASY's reservation bookkeeping treats the estimate as binding, so
        // an overrunning job is killed at its (dilated) requested time —
        // kill-at-request semantics, matching production batch systems.
        let wall = wall.min(expected);
        let finish_at = self.now + wall;
        self.events.push(finish_at, Event::Finish(id, 0));
        let first_proc = procs.first().unwrap_or(0);
        self.emit(|| bsld_obs::TraceEvent::JobStart {
            t: self.now.as_micros(),
            job: u64::from(id.0),
            gear: u64::from(gear.0),
            cpus: u64::from(job.cpus),
            first_proc: u64::from(first_proc),
            backfilled,
        });
        let expected_end = self.now + expected;
        self.running.insert(
            id,
            RunningJob {
                cpus: job.cpus,
                procs,
                start: self.now,
                expected_end,
                gear,
                phase_start: self.now,
                phases: Vec::new(),
                work_done: 0.0,
                requested_done: 0.0,
                epoch: 0,
            },
        );
        *self.end_index.entry(expected_end).or_insert(0) += job.cpus;
        let now = self.now;
        if let Some(h) = self.hook.as_deref_mut() {
            h.on_job_start(now, job.cpus, gear);
        }
        true
    }

    /// Completes `id` at the current time.
    fn complete(&mut self, id: JobId) {
        let mut r = self
            .running
            .remove(&id)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("completion of a job that is not running");
        let first_proc = r.procs.first().unwrap_or(0);
        self.emit(|| bsld_obs::TraceEvent::JobFinish {
            t: self.now.as_micros(),
            job: u64::from(id.0),
            first_proc: u64::from(first_proc),
        });
        self.pool.release(&r.procs);
        self.end_index_remove(r.expected_end, r.cpus);
        // Remember the freed window: the next pass pulls the pending
        // release at `expected_end` forward to "now" in place instead of
        // rebuilding the profile.
        self.last_completion = Some((r.expected_end, r.cpus));
        let now = self.now;
        if let Some(h) = self.hook.as_deref_mut() {
            h.on_job_finish(now, r.cpus, r.gear);
        }
        let job = &self.jobs[id.index()];
        let last_secs = self.now - r.phase_start;
        if last_secs > 0 || r.phases.is_empty() {
            r.phases.push(Phase {
                gear: r.gear,
                seconds: last_secs,
            });
        }
        // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
        let first_gear = r.phases.first().expect("at least one phase").gear;
        let outcome = JobOutcome {
            id,
            cpus: job.cpus,
            arrival: job.arrival,
            start: r.start,
            finish: self.now,
            gear: first_gear,
            phases: r.phases,
            nominal_runtime: job.runtime,
            requested: job.requested,
        };
        debug_assert_eq!(outcome.validate(), Ok(()));
        self.outcomes.push(outcome);
    }

    /// One scheduling pass under the configured discipline.
    fn schedule_pass(&mut self) {
        self.stats.passes += 1;
        self.hook_vetoed = false;
        let rebuilds_before = self.stats.profile_rebuilds;
        let running_before = self.running.len();
        match self.cfg.mode {
            SchedMode::Easy => self.schedule_pass_easy(),
            SchedMode::Conservative => self.schedule_pass_conservative(),
        }
        self.emit(|| bsld_obs::TraceEvent::Pass {
            t: self.now.as_micros(),
            pass: self.stats.passes + self.stats.passes_skipped,
            started: (self.running.len() - running_before) as u64,
            rebuilt: self.stats.profile_rebuilds > rebuilds_before,
            elided: false,
        });
    }

    /// Removes `cpus` freed at `at` from the sorted running-jobs index.
    fn end_index_remove(&mut self, at: Time, cpus: u32) {
        let entry = self
            .end_index
            .get_mut(&at)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("end_index entry for a running job");
        *entry -= cpus;
        if *entry == 0 {
            self.end_index.remove(&at);
        }
    }

    /// Whether the cached committed profile may serve the current instant:
    /// the cache is live, the cached reservation still lies in the future
    /// (a reservation "now" — contiguous-selection fragmentation — must be
    /// re-derived because it would drift as time advances), and no running
    /// job's requested end has been reached (such a release would need to
    /// be pushed to `now + 1`, which only a rebuild does) unless the
    /// profile was rebuilt at this very instant and so already holds it
    /// there.
    fn cache_usable(&self) -> bool {
        match &self.cache {
            None => false,
            Some(c) => {
                c.start > self.now
                    && (self.rebuilt_at == self.now
                        || self
                            .end_index
                            .keys()
                            .next()
                            .is_none_or(|&first| first > self.now))
            }
        }
    }

    /// Rebuilds the availability profile from the sorted running-jobs
    /// index into the reusable buffer.
    fn rebuild_profile(&mut self) {
        self.stats.profile_rebuilds += 1;
        self.rebuilt_at = self.now;
        self.builder
            .reset(self.now, self.pool.total(), self.pool.free_count());
        // A job whose expected end is at or before `now` is still
        // physically running (its completion event sits later in this
        // instant's event batch), so its processors become available
        // strictly after `now`.
        let floor = self.now + 1;
        for (&t, &cpus) in &self.end_index {
            self.builder.release(t.max(floor), cpus);
        }
        self.builder.build_into(&mut self.profile);
    }

    /// Removes `started` — a subsequence of the queue in queue order — in
    /// one O(queue) sweep.
    fn remove_started(&mut self, started: &[JobId]) {
        if started.is_empty() {
            return;
        }
        let mut next = 0;
        self.queue.retain(|&id| {
            if next < started.len() && id == started[next] {
                next += 1;
                false
            } else {
                true
            }
        });
        debug_assert_eq!(next, started.len(), "every started job was queued");
    }

    /// Handles one arrival (`None` for a power-retry wake-up) under pass
    /// elision: skip the pass when provably a no-op, evaluate only the new
    /// job against the cached committed profile when possible, and fall
    /// back to a full pass otherwise. See the module docs for the safety
    /// argument.
    fn pass_after_arrival(&mut self, arrival: Option<JobId>) {
        debug_assert!(self.elide);
        let prev_len = self.queue.len() - usize::from(arrival.is_some());
        if prev_len == 0 || self.hook_vetoed {
            // The new head may be able to start immediately, or the hook
            // turned down a start it must be asked about again: full pass
            // (which also re-establishes the cache).
            self.schedule_pass();
            return;
        }
        // The head is unchanged and still cannot start: nothing has freed
        // processors since the pass that left it queued.
        if !self.cfg.backfill {
            // Without backfilling, an arrival behind a blocked head is
            // inert (the reservation is bookkeeping only).
            self.stats.passes_skipped += 1;
            self.emit(|| bsld_obs::TraceEvent::Pass {
                t: self.now.as_micros(),
                pass: self.stats.passes + self.stats.passes_skipped,
                started: 0,
                rebuilt: false,
                elided: true,
            });
            return;
        }
        let Some(mut cache) = self.cache.filter(|_| self.cache_usable()) else {
            self.schedule_pass();
            return;
        };
        debug_assert_eq!(
            Some(cache.head),
            self.queue.front().copied(),
            "live cache must describe the current head"
        );
        // A full pass would price the reservation at the current queue
        // depth. The start cannot have moved, so the window is unchanged
        // iff the head's gear is; a different gear takes the full pass.
        let depth = self.queue.len() - 1;
        if depth != cache.depth {
            let head = self.job(cache.head);
            let gear = self.policy.head_gear(&self.ctx(head, depth), cache.start);
            if gear != cache.gear {
                self.schedule_pass();
                return;
            }
            cache.depth = depth;
            self.cache = Some(cache);
        }
        self.profile.advance_origin(self.now);
        // Evaluate only the new arrival; every older candidate failed
        // against a profile that was no stronger and a wait that was no
        // longer, so by the elision-safety contract it keeps failing.
        let started = arrival.filter(|&id| self.try_backfill(id, depth));
        self.debug_check_profile();
        if let Some(id) = started {
            self.stats.passes += 1;
            // The arrival was the last job queued.
            debug_assert_eq!(self.queue.back(), Some(&id));
            self.queue.pop_back();
        } else {
            self.stats.passes_skipped += 1;
        }
        self.emit(|| bsld_obs::TraceEvent::Pass {
            t: self.now.as_micros(),
            pass: self.stats.passes + self.stats.passes_skipped,
            started: u64::from(started.is_some()),
            rebuilt: false,
            elided: started.is_none(),
        });
    }

    /// Debug-build parity check: the cached reservation must be the one a
    /// full pass would commit at the queue depth it records, and the
    /// incrementally maintained committed profile must be extensionally
    /// equal (for `t >= now`) to a fresh rebuild plus that reservation.
    #[cfg(debug_assertions)]
    fn debug_check_profile(&self) {
        let Some(c) = &self.cache else { return };
        let head = self.job(c.head);
        let gear = self.policy.head_gear(&self.ctx(head, c.depth), c.start);
        let end = c
            .start
            .saturating_add(self.time_model.dilate(head.requested, head.beta, gear));
        debug_assert_eq!(
            (gear, end),
            (c.gear, c.end),
            "stale cached reservation at depth {}",
            c.depth
        );
        let mut b = ProfileBuilder::new(self.now, self.pool.total(), self.pool.free_count());
        let floor = self.now + 1;
        for (&t, &cpus) in &self.end_index {
            b.release(t.max(floor), cpus);
        }
        let mut fresh = b.build();
        fresh
            .commit(c.start, c.end, self.jobs[c.head.index()].cpus)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("cached reservation must fit a fresh profile");
        let points = std::iter::once(self.now)
            .chain(fresh.segments().iter().map(|&(t, _)| t))
            .chain(self.profile.segments().iter().map(|&(t, _)| t))
            .filter(|&t| t >= self.now);
        for t in points {
            debug_assert_eq!(
                self.profile.available_at(t),
                fresh.available_at(t),
                "incremental profile diverged at {t:?}\nnow={:?}\ncache={:?}\nincr={:?}\nfresh={:?}\nend_index={:?}",
                self.now,
                c,
                self.profile.segments(),
                fresh.segments(),
                self.end_index,
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_profile(&self) {}

    /// One EASY scheduling pass (see module docs).
    fn schedule_pass_easy(&mut self) {
        // Take the completion delta recorded by `complete` (if this pass
        // was triggered by one); it feeds the in-place profile update.
        let completion = self.last_completion.take();
        // Decide up front whether this pass may update the cached profile
        // in place; the guard must be evaluated before step 1 mutates the
        // pool (new running jobs always end strictly after `now`, so the
        // verdict stays valid through the pass). A job that completed
        // exactly at its expected end needs a rebuild: its pending release
        // may sit floored at `now + 1` (same-instant rebuild) while the
        // freed processors belong in the present.
        let in_place = self.reuse_profile
            && self.cache_usable()
            && completion.is_none_or(|(expected_end, _)| expected_end > self.now);
        if in_place {
            // Drop fully-elapsed history so the profile stays proportional
            // to the number of running jobs, then release the stale
            // reservation — it is re-derived below — and pull the completed
            // job's pending release forward to the present.
            self.profile.advance_origin(self.now);
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            let c = self.cache.take().expect("cache_usable implies cache");
            self.profile
                .release_over(c.start, c.end, self.jobs[c.head.index()].cpus)
                // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                .expect("cached reservation lies within the profile");
            if let Some((expected_end, cpus)) = completion {
                self.profile
                    .release_over(self.now, expected_end, cpus)
                    // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                    .expect("completed job's window lies within the profile");
            }
        } else {
            self.cache = None;
        }

        // Step 1: start head jobs that fit right now.
        while let Some(&head) = self.queue.front() {
            let job = self.job(head);
            if !self.pool.can_allocate(job.cpus, self.cfg.selection) {
                break;
            }
            let wq_others = self.queue.len() - 1;
            let gear = {
                let ctx = self.ctx(job, wq_others);
                self.policy.head_gear(&ctx, self.now)
            };
            // The power hook may down-gear the start or defer the head
            // entirely (it will be retried at the next event, when a
            // completion may have freed budget).
            let Some(gear) = self.hook_admit(job.cpus, gear, wq_others, true) else {
                self.emit(|| bsld_obs::TraceEvent::CapVeto {
                    t: self.now.as_micros(),
                    job: u64::from(head.0),
                    site: bsld_obs::VetoSite::Head,
                });
                break;
            };
            self.queue.pop_front();
            let ok = self.try_start_job(head, gear, false);
            debug_assert!(ok, "can_allocate promised the head would fit");
            if in_place {
                // Mirror the start into the live profile: busy until the
                // job's expected (requested) end, exactly what a rebuild
                // would derive.
                let end = self.running[&head].expected_end;
                self.profile
                    .commit(self.now, end, job.cpus)
                    // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                    .expect("started job's window fits the profile");
            }
        }
        let Some(&head) = self.queue.front() else {
            self.cache = None;
            return;
        };

        if !self.cfg.backfill && self.cfg.incremental {
            // Without backfilling the reservation constrains nothing (the
            // head's actual start happens in step 1 of a later pass), so
            // deriving it would be bookkeeping for no observer.
            self.cache = None;
            return;
        }

        // Step 2: reserve for the head on the profile of running jobs.
        if !in_place {
            self.rebuild_profile();
        }
        let head_job = self.job(head);
        let res_start = self
            .profile
            .earliest_fit(head_job.cpus, 1, self.now)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("head job fits an empty machine");
        // Under count-complete selection policies step 1 already started
        // every head that fits now. Contiguous selection can be blocked by
        // fragmentation even when the count fits, in which case the
        // (count-based) reservation legitimately starts "now" and the head
        // retries at the next completion event.
        debug_assert!(
            res_start > self.now
                || self.cfg.selection == SelectionPolicy::ContiguousFirstFit
                || self.hook.is_some(),
            "head start now is handled in step 1"
        );
        let wq_others = self.queue.len() - 1;
        let res_gear = {
            let ctx = self.ctx(head_job, wq_others);
            self.policy.head_gear(&ctx, res_start)
        };
        let res_dur = self
            .time_model
            .dilate(head_job.requested, head_job.beta, res_gear);
        let res_end = res_start.saturating_add(res_dur);
        self.profile
            .commit(res_start, res_end, head_job.cpus)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("reservation fits by construction");
        if self.reuse_profile {
            self.cache = Some(HeadReservation {
                head,
                start: res_start,
                end: res_end,
                gear: res_gear,
                depth: wq_others,
            });
        }

        if !self.cfg.backfill {
            return;
        }

        // Step 3: backfill the rest of the queue in arrival order.
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend(self.queue.iter().skip(1).copied());
        let mut started = std::mem::take(&mut self.scratch_started);
        started.clear();
        for &id in &candidates {
            let wq_others = self.queue.len() - 1 - started.len();
            if self.try_backfill(id, wq_others) {
                started.push(id);
            }
        }
        self.remove_started(&started);
        if in_place {
            self.debug_check_profile();
        }
        candidates.clear();
        started.clear();
        self.scratch_candidates = candidates;
        self.scratch_started = started;
    }

    /// Offers queued job `id` a backfill start now against the committed
    /// profile (EASY step 3): the policy picks a fitting gear, the hook may
    /// defer or down-gear it (a down-geared start must still fit in front
    /// of the reservation), and a started job's window is committed.
    /// Returns whether the job started; the caller removes it from the
    /// queue.
    fn try_backfill(&mut self, id: JobId, wq_others: usize) -> bool {
        let job = self.job(id);
        if job.cpus > self.pool.free_count() {
            return false;
        }
        let chosen = {
            let ctx = self.ctx(job, wq_others);
            let tm = self.time_model;
            let now = self.now;
            let profile_ref = &self.profile;
            // One profile query per candidate, made on the first ask: how
            // long the job's processors stay free from now. Each gear then
            // fits iff its dilated runtime is no longer than that span.
            let mut span = None;
            let mut fits = |gear: GearId| {
                let span = *span.get_or_insert_with(|| profile_ref.free_span(now, job.cpus));
                span.is_some_and(|span| tm.dilate(job.requested, job.beta, gear) <= span)
            };
            self.policy.backfill_gear(&ctx, &mut fits)
        };
        let Some(gear) = chosen else {
            return false;
        };
        let veto = |sim: &Self| {
            sim.emit(|| bsld_obs::TraceEvent::CapVeto {
                t: sim.now.as_micros(),
                job: u64::from(id.0),
                site: bsld_obs::VetoSite::Backfill,
            });
        };
        let Some(admitted) = self.hook_admit(job.cpus, gear, wq_others, false) else {
            veto(self);
            return false;
        };
        let dur = self.time_model.dilate(job.requested, job.beta, admitted);
        if admitted != gear && !self.profile.can_fit(self.now, job.cpus, dur) {
            // A down-geared backfill runs longer; it must still fit in
            // front of the reservation or the job stays queued.
            self.hook_declined();
            veto(self);
            return false;
        }
        if !self.try_start_job(id, admitted, true) {
            self.hook_declined();
            return false;
        }
        self.profile
            .commit(self.now, self.now.saturating_add(dur), job.cpus)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("policy returned a gear that does not fit");
        true
    }

    /// One conservative-backfilling pass: every queued job receives an
    /// earliest-fit reservation in arrival order (duration-aware per gear,
    /// via [`FrequencyPolicy::reserve_gear`]); jobs whose reservation
    /// starts now begin executing. Conservative passes always rebuild the
    /// profile (every queued job's reservation depends on every other), but
    /// share the incremental engine's sorted index, reusable buffers and
    /// O(queue) removal.
    fn schedule_pass_conservative(&mut self) {
        self.last_completion = None;
        self.rebuild_profile();

        let mut snapshot = std::mem::take(&mut self.scratch_candidates);
        snapshot.clear();
        snapshot.extend(self.queue.iter().copied());
        let mut started = std::mem::take(&mut self.scratch_started);
        started.clear();
        let mut earlier_still_waiting = false;
        for &id in &snapshot {
            let job = self.job(id);
            let wq_others = self.queue.len() - 1 - started.len();
            let (gear, start) = {
                let ctx = self.ctx(job, wq_others);
                let tm = self.time_model;
                let now = self.now;
                let profile_ref = &self.profile;
                let mut find_start = |g: GearId| {
                    let dur = tm.dilate(job.requested, job.beta, g);
                    profile_ref
                        .earliest_fit(job.cpus, dur, now)
                        // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                        .expect("every job fits an empty machine eventually")
                };
                self.policy.reserve_gear(&ctx, &mut find_start)
            };
            // The power hook may defer a start-now decision; the job keeps
            // its reservation (committed below) and is retried next event.
            // A down-geared admission runs longer than the window priced at
            // `gear`, so it is honored only if the longer window still fits
            // the committed profile; otherwise the job waits at its
            // original reservation.
            let admitted = if start == self.now {
                match self.hook_admit(job.cpus, gear, wq_others, !earlier_still_waiting) {
                    Some(g) if g == gear => Some(g),
                    Some(g) => {
                        let dur = self.time_model.dilate(job.requested, job.beta, g);
                        if self.profile.can_fit(self.now, job.cpus, dur) {
                            Some(g)
                        } else {
                            self.hook_declined();
                            self.emit(|| bsld_obs::TraceEvent::CapVeto {
                                t: self.now.as_micros(),
                                job: u64::from(id.0),
                                site: bsld_obs::VetoSite::Conservative,
                            });
                            None
                        }
                    }
                    None => {
                        self.emit(|| bsld_obs::TraceEvent::CapVeto {
                            t: self.now.as_micros(),
                            job: u64::from(id.0),
                            site: bsld_obs::VetoSite::Conservative,
                        });
                        None
                    }
                }
            } else {
                None
            };
            let can_start = match admitted {
                Some(g) => {
                    let ok = self.try_start_job(id, g, earlier_still_waiting);
                    if !ok {
                        self.hook_declined();
                    }
                    ok
                }
                None => false,
            };
            let commit_gear = if can_start {
                // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                admitted.expect("start implies admission")
            } else {
                gear
            };
            let dur = self.time_model.dilate(job.requested, job.beta, commit_gear);
            self.profile
                .commit(start, start.saturating_add(dur), job.cpus)
                // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                .expect("reserve_gear start came from earliest_fit");
            if can_start {
                started.push(id);
            } else {
                earlier_still_waiting = true;
            }
        }
        self.remove_started(&started);
        snapshot.clear();
        started.clear();
        self.scratch_candidates = snapshot;
        self.scratch_started = started;
    }

    /// Dynamic-boost extension: re-time running reduced jobs to the top
    /// gear when the queue is too deep.
    fn maybe_boost(&mut self) {
        let Some(boost) = self.cfg.boost else {
            return;
        };
        if self.queue.len() <= boost.wq_limit {
            return;
        }
        let ids: Vec<(JobId, GearId, u32)> = self
            .running
            .iter()
            .filter(|(_, r)| r.gear < self.top)
            .map(|(&id, r)| (id, r.gear, r.cpus))
            .collect();
        for (id, from, cpus) in ids {
            let now = self.now;
            let top = self.top;
            if let Some(h) = self.hook.as_deref_mut() {
                // A boost raises draw; the power hook may veto it.
                if !h.admit_gear_change(now, cpus, from, top) {
                    self.emit(|| bsld_obs::TraceEvent::BoostVeto {
                        t: now.as_micros(),
                        job: u64::from(id.0),
                    });
                    continue;
                }
            }
            self.retime_to(id, top);
            self.emit(|| bsld_obs::TraceEvent::Boost {
                t: now.as_micros(),
                job: u64::from(id.0),
                gear: u64::from(top.0),
            });
        }
    }

    /// Switches running job `id` to `gear` at the current instant,
    /// converting completed work through the β model and rescheduling its
    /// completion event.
    fn retime_to(&mut self, id: JobId, gear: GearId) {
        let job = &self.jobs[id.index()];
        let r = self
            .running
            .get_mut(&id)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("retime of a job that is not running");
        if r.gear == gear {
            return;
        }
        let elapsed = self.now - r.phase_start;
        let coef_old = self.time_model.coef(job.beta, r.gear);
        r.work_done += elapsed as f64 / coef_old;
        r.requested_done += elapsed as f64 / coef_old;
        if elapsed > 0 {
            r.phases.push(Phase {
                gear: r.gear,
                seconds: elapsed,
            });
        }
        let remaining_work = (job.runtime as f64 - r.work_done).max(0.0);
        let remaining_requested = (job.requested as f64 - r.requested_done).max(remaining_work);
        let wall = self
            .time_model
            .wall_for_work(remaining_work, job.beta, gear)
            .max(1);
        let expected_wall = self
            .time_model
            .wall_for_work(remaining_requested, job.beta, gear)
            .max(wall);
        let from = r.gear;
        let cpus = r.cpus;
        let old_expected_end = r.expected_end;
        r.gear = gear;
        r.phase_start = self.now;
        r.expected_end = self.now + expected_wall;
        r.epoch += 1;
        let epoch = r.epoch;
        let new_expected_end = r.expected_end;
        self.end_index_remove(old_expected_end, cpus);
        *self.end_index.entry(new_expected_end).or_insert(0) += cpus;
        // A re-time moves the job's pending release; the cached profile no
        // longer matches, so the next pass rebuilds it.
        self.cache = None;
        self.events.push(self.now + wall, Event::Finish(id, epoch));
        let now = self.now;
        if let Some(h) = self.hook.as_deref_mut() {
            h.on_gear_change(now, cpus, from, gear);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedGearPolicy;
    use bsld_cluster::GearSet;

    fn cluster(cpus: u32) -> Cluster {
        Cluster::new("test", cpus, GearSet::paper())
    }

    fn tm() -> BetaModel {
        BetaModel::new(GearSet::paper())
    }

    fn top_policy() -> FixedGearPolicy {
        FixedGearPolicy::new(GearSet::paper().top())
    }

    /// j(id, arrival, cpus, runtime, requested)
    fn j(id: u32, arrival: u64, cpus: u32, runtime: u64, requested: u64) -> Job {
        Job::new(id, Time(arrival), cpus, runtime, requested)
    }

    /// Runs `jobs` under `cfg` with a `BufferSink` attached: the result
    /// plus the obs events the run recorded.
    fn run_traced(
        cluster_cpus: u32,
        jobs: &[Job],
        policy: &dyn FrequencyPolicy,
        cfg: EngineConfig,
    ) -> (SimResult, Vec<bsld_obs::TraceEvent>) {
        let sink = bsld_obs::BufferSink::shared();
        let cfg = EngineConfig {
            sink: Some(sink.clone()),
            ..cfg
        };
        let res = simulate(&cluster(cluster_cpus), jobs, policy, &tm(), &cfg).unwrap();
        (res, sink.take())
    }

    fn run(cluster_cpus: u32, jobs: &[Job]) -> (SimResult, Vec<bsld_obs::TraceEvent>) {
        run_traced(cluster_cpus, jobs, &top_policy(), EngineConfig::default())
    }

    /// `(job, first_proc, backfilled)` of every `JobStart`, in start order.
    fn starts(events: &[bsld_obs::TraceEvent]) -> Vec<(u64, u64, bool)> {
        events
            .iter()
            .filter_map(|e| match *e {
                bsld_obs::TraceEvent::JobStart {
                    job,
                    first_proc,
                    backfilled,
                    ..
                } => Some((job, first_proc, backfilled)),
                _ => None,
            })
            .collect()
    }

    fn start_of(res: &SimResult, id: u32) -> Time {
        res.outcomes
            .iter()
            .find(|o| o.id == JobId(id))
            .unwrap()
            .start
    }

    #[test]
    fn single_job_starts_immediately() {
        let (res, _) = run(4, &[j(0, 10, 4, 100, 200)]);
        assert_eq!(res.outcomes.len(), 1);
        let o = &res.outcomes[0];
        assert_eq!(o.start, Time(10));
        assert_eq!(o.finish, Time(110));
        assert_eq!(res.makespan, Time(110));
    }

    #[test]
    fn fcfs_order_without_contention() {
        let jobs = vec![j(0, 0, 2, 100, 100), j(1, 5, 2, 100, 100)];
        let (res, _) = run(4, &jobs);
        assert_eq!(start_of(&res, 0), Time(0));
        assert_eq!(start_of(&res, 1), Time(5));
    }

    #[test]
    fn backfill_short_job_around_reservation() {
        // 4 cpus. J0 takes 3 cpus until t=100. J1 (head) needs 4 → reserved
        // at t=100. J2 (1 cpu, 50 s) fits before the reservation → backfills
        // at t=2. J3 (1 cpu, 200 s) would delay the reservation → waits.
        let jobs = vec![
            j(0, 0, 3, 100, 100),
            j(1, 1, 4, 100, 100),
            j(2, 2, 1, 50, 50),
            j(3, 3, 1, 200, 200),
        ];
        let (res, events) = run(4, &jobs);
        assert_eq!(start_of(&res, 0), Time(0));
        assert_eq!(start_of(&res, 1), Time(100));
        assert_eq!(start_of(&res, 2), Time(2), "J2 must backfill");
        assert_eq!(start_of(&res, 3), Time(200), "J3 must wait for the head");
        let backfilled: Vec<bool> = starts(&events)
            .into_iter()
            .filter_map(|(job, _, backfilled)| (job == 2).then_some(backfilled))
            .collect();
        assert_eq!(backfilled, vec![true]);
    }

    #[test]
    fn no_backfill_config_degrades_to_fcfs() {
        let jobs = vec![
            j(0, 0, 3, 100, 100),
            j(1, 1, 4, 100, 100),
            j(2, 2, 1, 50, 50),
        ];
        let tmm = tm();
        let res = simulate(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                backfill: false,
                ..Default::default()
            },
        )
        .unwrap();
        let s2 = res
            .outcomes
            .iter()
            .find(|o| o.id == JobId(2))
            .unwrap()
            .start;
        assert_eq!(s2, Time(200), "without backfilling J2 waits behind J1");
    }

    #[test]
    fn backfill_crossing_shadow_on_extra_processors() {
        // 4 cpus. J0 holds 2 until t=100. J1 (head, 3 cpus) reserved at 100.
        // J2 (1 cpu, 500 s) crosses the shadow time but uses the processor
        // the reservation leaves spare → must backfill at its arrival.
        let jobs = vec![
            j(0, 0, 2, 100, 100),
            j(1, 1, 3, 100, 100),
            j(2, 2, 1, 500, 500),
        ];
        let (res, _) = run(4, &jobs);
        assert_eq!(start_of(&res, 1), Time(100));
        assert_eq!(start_of(&res, 2), Time(2));
    }

    #[test]
    fn early_finish_reschedules_queue() {
        // J0 requests 1000 s but runs 10 s; J1 starts at t=10, not t=1000.
        let jobs = vec![j(0, 0, 4, 10, 1000), j(1, 1, 4, 50, 50)];
        let (res, _) = run(4, &jobs);
        assert_eq!(start_of(&res, 1), Time(10));
    }

    #[test]
    fn easy_guarantee_backfill_never_delays_head() {
        // Adversarial mix of backfill candidates; the head's start must
        // equal its start when backfilling is disabled.
        let jobs = vec![
            j(0, 0, 5, 100, 120),
            j(1, 1, 8, 200, 250), // head once J0 runs
            j(2, 2, 2, 40, 60),
            j(3, 3, 3, 90, 100),
            j(4, 4, 1, 500, 700),
            j(5, 5, 2, 10, 20),
        ];
        let tmm = tm();
        let (with_bf, _) = run(8, &jobs);
        let without_bf = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                backfill: false,
                ..Default::default()
            },
        )
        .unwrap();
        let head_with = with_bf
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .start;
        let head_without = without_bf
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .start;
        assert!(
            head_with <= head_without,
            "backfilling delayed the head: {head_with:?} > {head_without:?}"
        );
    }

    #[test]
    fn first_fit_takes_lowest_processors() {
        let jobs = vec![j(0, 0, 3, 100, 100), j(1, 0, 2, 100, 100)];
        let (_, events) = run(8, &jobs);
        let firsts: Vec<u64> = starts(&events).into_iter().map(|(_, p, _)| p).collect();
        assert_eq!(firsts, vec![0, 3]);
    }

    #[test]
    fn simultaneous_finishes_are_deterministic() {
        let jobs = vec![
            j(0, 0, 2, 100, 100),
            j(1, 0, 2, 100, 100),
            j(2, 1, 4, 50, 50),
        ];
        let (a, _) = run(4, &jobs);
        let (b, _) = run(4, &jobs);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(start_of(&a, 2), Time(100));
    }

    #[test]
    fn rejects_oversize_job() {
        let tmm = tm();
        let err = simulate(
            &cluster(4),
            &[j(0, 0, 5, 10, 10)],
            &top_policy(),
            &tmm,
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::JobTooLarge {
                job: JobId(0),
                cpus: 5,
                total: 4
            }
        );
        assert!(err.to_string().contains("5 cpus"));
    }

    #[test]
    fn rejects_unsorted_arrivals() {
        let tmm = tm();
        let err = simulate(
            &cluster(4),
            &[j(0, 10, 1, 10, 10), j(1, 5, 1, 10, 10)],
            &top_policy(),
            &tmm,
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::ArrivalsNotSorted);
    }

    #[test]
    fn reduced_gear_dilates_runtime() {
        // Pin everything to the lowest gear: runtimes stretch by Coef(0.8).
        let tmm = tm();
        let low = FixedGearPolicy::new(GearId(0));
        let res = simulate(
            &cluster(4),
            &[j(0, 0, 4, 1000, 1000)],
            &low,
            &tmm,
            &EngineConfig::default(),
        )
        .unwrap();
        let o = &res.outcomes[0];
        assert_eq!(o.penalized_runtime(), tmm.dilate(1000, 0.5, GearId(0)));
        assert_eq!(o.gear, GearId(0));
        assert!(o.was_reduced(GearSet::paper().top()));
    }

    #[test]
    fn boost_retimes_running_reduced_job() {
        // One reduced job running alone; then a burst of arrivals deepens
        // the queue past wq_limit=0 and triggers a boost.
        let low = FixedGearPolicy::new(GearId(0));
        let jobs = vec![
            j(0, 0, 4, 1000, 1000),
            // Two arrivals at t=500 → queue depth 2 > 0 after the pass
            // (neither fits while J0 holds the machine).
            j(1, 500, 4, 10, 10),
            j(2, 500, 4, 10, 10),
        ];
        let (res, events) = run_traced(
            4,
            &jobs,
            &low,
            EngineConfig {
                boost: Some(BoostConfig { wq_limit: 1 }),
                ..Default::default()
            },
        );
        let o0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(
            o0.phases.len(),
            2,
            "boost must split execution into two phases"
        );
        assert_eq!(o0.phases[0].gear, GearId(0));
        assert_eq!(o0.phases[1].gear, GearSet::paper().top());
        // Boosted at t=500: 500 wall s at Coef≈1.9375 ⇒ ≈258 work-s done;
        // remaining ≈742 work-s at top ⇒ finish ≈ 500+742, well before the
        // un-boosted 1937.
        assert!(
            o0.finish < Time(1937),
            "boost must shorten the job: {:?}",
            o0.finish
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, bsld_obs::TraceEvent::Boost { job: 0, .. })));
        o0.validate().unwrap();
    }

    #[test]
    fn boost_does_not_fire_below_limit() {
        let tmm = tm();
        let low = FixedGearPolicy::new(GearId(0));
        let jobs = vec![j(0, 0, 4, 1000, 1000), j(1, 500, 4, 10, 10)];
        let res = simulate(
            &cluster(4),
            &jobs,
            &low,
            &tmm,
            &EngineConfig {
                boost: Some(BoostConfig { wq_limit: 1 }),
                ..Default::default()
            },
        )
        .unwrap();
        let o0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(o0.phases.len(), 1, "queue depth 1 must not trigger a boost");
    }

    #[test]
    fn conservative_protects_queued_reservations() {
        // 4 cpus. J0 (2 cpus) runs [0,100). J1 (3 cpus) is the head,
        // reserved [100,200). J2 (4 cpus) queues behind; J3 (1 cpu, 250 s)
        // arrives last.
        //
        // EASY backfills J3 immediately (it cannot delay the *head*), which
        // pushes J2 from 200 to 253. Conservative gives J2 its own
        // reservation at [200,300), so J3 must wait until 300.
        let jobs = vec![
            j(0, 0, 2, 100, 100),
            j(1, 1, 3, 100, 100),
            j(2, 2, 4, 100, 100),
            j(3, 3, 1, 250, 250),
        ];
        let tmm = tm();
        let (easy, _) = run(4, &jobs);
        let cons = simulate(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(start_of(&easy, 3), Time(3), "EASY backfills the small job");
        assert_eq!(
            start_of(&easy, 2),
            Time(253),
            "EASY delays the queued wide job"
        );
        let cons_start = |id: u32| {
            cons.outcomes
                .iter()
                .find(|o| o.id == JobId(id))
                .unwrap()
                .start
        };
        assert_eq!(
            cons_start(2),
            Time(200),
            "conservative protects J2's reservation"
        );
        assert_eq!(
            cons_start(3),
            Time(300),
            "conservative delays the small job"
        );
        crate::validate::validate_schedule(&cons.outcomes, 4).unwrap();
    }

    #[test]
    fn conservative_matches_easy_on_contention_free_load() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| j(i, (i as u64) * 500, 2, 100, 150))
            .collect();
        let tmm = tm();
        let (easy, _) = run(8, &jobs);
        let cons = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                ..Default::default()
            },
        )
        .unwrap();
        for o in &easy.outcomes {
            let c = cons.outcomes.iter().find(|x| x.id == o.id).unwrap();
            assert_eq!(o.start, c.start, "{}: no queueing ⇒ same schedule", o.id);
        }
    }

    #[test]
    fn conservative_reschedules_on_early_finish() {
        let jobs = vec![j(0, 0, 4, 10, 1000), j(1, 1, 4, 50, 50)];
        let tmm = tm();
        let res = simulate(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                ..Default::default()
            },
        )
        .unwrap();
        let s1 = res
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .start;
        assert_eq!(
            s1,
            Time(10),
            "reservations must be re-derived on early completion"
        );
    }

    #[test]
    fn contiguous_selection_fragmentation_delays_jobs() {
        // 4 cpus. Long jobs pin processors 0 and 2; short jobs hold 1 and 3
        // until t=10. At t=10 two processors are free but not adjacent:
        // First Fit starts the 2-cpu job at 10, contiguous selection must
        // wait for the long jobs to finish at t=1000.
        let jobs = vec![
            j(0, 0, 1, 1000, 1000), // proc 0
            j(1, 0, 1, 10, 10),     // proc 1
            j(2, 0, 1, 1000, 1000), // proc 2
            j(3, 0, 1, 10, 10),     // proc 3
            j(4, 5, 2, 20, 20),     // needs two processors
        ];
        let (ff, _) = run(4, &jobs);
        assert_eq!(start_of(&ff, 4), Time(10));
        let (contig, events) = run_traced(
            4,
            &jobs,
            &top_policy(),
            EngineConfig {
                selection: SelectionPolicy::ContiguousFirstFit,
                ..Default::default()
            },
        );
        let s4 = contig
            .outcomes
            .iter()
            .find(|o| o.id == JobId(4))
            .unwrap()
            .start;
        assert_eq!(
            s4,
            Time(1000),
            "fragmentation must block contiguous selection"
        );
        crate::validate::validate_schedule(&contig.outcomes, 4).unwrap();
        // The allocation it finally gets is one contiguous range.
        let first_procs: Vec<u64> = starts(&events)
            .into_iter()
            .filter_map(|(job, p, _)| (job == 4).then_some(p))
            .collect();
        assert_eq!(first_procs.len(), 1);
    }

    #[test]
    fn last_fit_selection_allocates_from_the_top() {
        let jobs = vec![j(0, 0, 2, 10, 10)];
        let (_, events) = run_traced(
            8,
            &jobs,
            &top_policy(),
            EngineConfig {
                selection: SelectionPolicy::LastFit,
                ..Default::default()
            },
        );
        let (_, first, _) = starts(&events)[0];
        assert_eq!(first, 6, "LastFit must pick processors 6 and 7");
    }

    #[test]
    fn conservative_is_deterministic() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| j(i, (i as u64) * 13, 1 + (i % 5), 30 + (i as u64 % 200), 400))
            .collect();
        let tmm = tm();
        let mk = || {
            simulate(
                &cluster(8),
                &jobs,
                &top_policy(),
                &tmm,
                &EngineConfig {
                    mode: SchedMode::Conservative,
                    ..Default::default()
                },
            )
            .unwrap()
            .outcomes
        };
        assert_eq!(mk(), mk());
    }

    /// A hook that down-gears every start to gear 0 (admits nothing at
    /// the proposed gear).
    struct DowngearHook {
        declined: u32,
    }

    impl crate::hook::PowerHook for DowngearHook {
        fn on_time(&mut self, _now: Time) {}

        fn admit_start(
            &mut self,
            _now: Time,
            _cpus: u32,
            _gear: GearId,
            _wq: usize,
            _head: bool,
        ) -> Option<GearId> {
            Some(GearId(0))
        }

        fn admission_declined(&mut self) {
            self.declined += 1;
        }

        fn admit_gear_change(&mut self, _now: Time, _c: u32, _f: GearId, _t: GearId) -> bool {
            true
        }

        fn on_job_start(&mut self, _now: Time, _cpus: u32, _gear: GearId) {}

        fn on_job_finish(&mut self, _now: Time, _cpus: u32, _gear: GearId) {}

        fn on_gear_change(&mut self, _now: Time, _c: u32, _f: GearId, _t: GearId) {}
    }

    #[test]
    fn conservative_honors_downgeared_admissions() {
        // A down-geared start-now must be honored when the longer window
        // fits the profile — the run completes with every job at gear 0
        // instead of stalling.
        let jobs = vec![j(0, 0, 2, 100, 100), j(1, 10, 4, 50, 50)];
        let tmm = tm();
        let mut hook = DowngearHook { declined: 0 };
        let res = crate::engine::simulate_with_hook(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                ..Default::default()
            },
            &mut hook,
        )
        .unwrap();
        assert_eq!(res.outcomes.len(), 2, "no stall");
        for o in &res.outcomes {
            assert_eq!(
                o.gear,
                GearId(0),
                "{}: start must use the admitted gear",
                o.id
            );
        }
        crate::validate::validate_schedule(&res.outcomes, 4).unwrap();
    }

    #[test]
    fn easy_honors_downgeared_admissions() {
        let jobs = vec![j(0, 0, 4, 100, 100), j(1, 1, 1, 10, 10)];
        let tmm = tm();
        let mut hook = DowngearHook { declined: 0 };
        let res = crate::engine::simulate_with_hook(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig::default(),
            &mut hook,
        )
        .unwrap();
        assert_eq!(res.outcomes.len(), 2);
        for o in &res.outcomes {
            assert_eq!(o.gear, GearId(0));
        }
    }

    #[test]
    fn overrunning_job_killed_at_request() {
        // A directly constructed job whose runtime exceeds the estimate
        // (real traces contain these) is killed at its requested time.
        let mut job = j(0, 0, 2, 100, 100);
        job.runtime = 500; // overrun past the 100 s estimate
        let (res, _) = run(4, &[job]);
        let o = &res.outcomes[0];
        assert_eq!(o.finish, Time(100), "killed at the dilated request");
        o.validate().unwrap();
        // A later job sees the processors free at the kill time.
        let mut over = j(0, 0, 4, 100, 100);
        over.runtime = 999;
        let jobs = vec![over, j(1, 10, 4, 50, 50)];
        let (res, _) = run(4, &jobs);
        assert_eq!(start_of(&res, 1), Time(100));
    }

    /// A workload mixing bursts, contention, exact estimates, overruns and
    /// early finishes — the A/B stress shape.
    fn ab_workload(n: u32) -> Vec<Job> {
        (0..n)
            .map(|i| {
                let arrival = (i as u64 / 3) * 7; // same-instant bursts of 3
                let cpus = 1 + i % 7;
                let runtime = 20 + (i as u64 * 37) % 400;
                let requested = if i % 5 == 0 {
                    runtime // exact estimate
                } else {
                    runtime + (i as u64 * 13) % 600
                };
                j(i, arrival, cpus, runtime, requested)
            })
            .collect()
    }

    fn run_with(jobs: &[Job], cpus: u32, cfg: &EngineConfig) -> SimResult {
        let tmm = tm();
        simulate(&cluster(cpus), jobs, &top_policy(), &tmm, cfg).unwrap()
    }

    #[test]
    fn incremental_matches_full_rescan_easy() {
        let jobs = ab_workload(120);
        let incr = run_with(&jobs, 8, &EngineConfig::default());
        let full = run_with(
            &jobs,
            8,
            &EngineConfig {
                incremental: false,
                ..Default::default()
            },
        );
        assert_eq!(
            incr.outcomes, full.outcomes,
            "outcomes must be bit-identical"
        );
        assert_eq!(full.stats.passes_skipped, 0);
        assert!(
            incr.stats.profile_rebuilds < full.stats.profile_rebuilds,
            "incremental must rebuild less: {} vs {}",
            incr.stats.profile_rebuilds,
            full.stats.profile_rebuilds
        );
        assert!(incr.stats.passes_skipped > 0, "saturation must skip passes");
    }

    #[test]
    fn incremental_matches_full_rescan_conservative() {
        let jobs = ab_workload(100);
        let mk = |incremental| {
            run_with(
                &jobs,
                8,
                &EngineConfig {
                    mode: SchedMode::Conservative,
                    incremental,
                    ..Default::default()
                },
            )
        };
        assert_eq!(mk(true).outcomes, mk(false).outcomes);
    }

    #[test]
    fn incremental_matches_full_rescan_without_backfill() {
        let jobs = ab_workload(90);
        let mk = |incremental| {
            run_with(
                &jobs,
                8,
                &EngineConfig {
                    backfill: false,
                    incremental,
                    ..Default::default()
                },
            )
        };
        let incr = mk(true);
        let full = mk(false);
        assert_eq!(incr.outcomes, full.outcomes);
        assert_eq!(
            incr.stats.profile_rebuilds, 0,
            "FCFS reservations are bookkeeping only; no rebuild needed"
        );
        assert!(full.stats.profile_rebuilds > 0);
    }

    #[test]
    fn incremental_matches_full_under_reduced_gear_policy() {
        // A fixed reduced gear dilates every duration; elision still holds.
        let jobs = ab_workload(80);
        let tmm = tm();
        let low = FixedGearPolicy::new(GearId(1));
        let mk = |incremental| {
            simulate(
                &cluster(8),
                &jobs,
                &low,
                &tmm,
                &EngineConfig {
                    incremental,
                    ..Default::default()
                },
            )
            .unwrap()
            .outcomes
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn incremental_matches_full_rescan_with_boost() {
        // Boost re-times running jobs, which invalidates the in-place
        // profile; the next pass must rebuild and outcomes stay identical.
        let jobs = ab_workload(120);
        let tmm = tm();
        let low = FixedGearPolicy::new(GearId(0));
        let mk = |incremental| {
            simulate(
                &cluster(8),
                &jobs,
                &low,
                &tmm,
                &EngineConfig {
                    boost: Some(BoostConfig { wq_limit: 2 }),
                    incremental,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let (incr, full) = (mk(true), mk(false));
        assert_eq!(incr.outcomes, full.outcomes);
        assert!(incr.outcomes.iter().any(|o| o.phases.len() > 1), "boosted");
        assert_eq!(incr.stats.passes_skipped, 0, "boost keeps every pass");
        assert!(incr.stats.profile_rebuilds < full.stats.profile_rebuilds);
    }

    #[test]
    fn contiguous_selection_disables_stale_reservations() {
        // Fragmentation forces reservations that start "now"; the cache
        // must refuse to reuse them and outcomes must stay identical.
        let jobs = ab_workload(60);
        let mk = |incremental| {
            run_with(
                &jobs,
                8,
                &EngineConfig {
                    selection: SelectionPolicy::ContiguousFirstFit,
                    incremental,
                    ..Default::default()
                },
            )
        };
        assert_eq!(mk(true).outcomes, mk(false).outcomes);
    }

    #[test]
    fn outcome_count_matches_jobs() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| j(i, (i as u64) * 7, 1 + (i % 4), 50 + (i as u64 % 90), 200))
            .collect();
        let (res, _) = run(8, &jobs);
        assert_eq!(res.outcomes.len(), jobs.len());
        for o in &res.outcomes {
            o.validate().unwrap();
        }
    }

    #[test]
    fn raised_abort_flag_stops_the_run_at_the_first_event() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let jobs: Vec<Job> = (0..10).map(|i| j(i, i as u64, 1, 100, 200)).collect();
        let flag = Arc::new(AtomicBool::new(true));
        let err = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tm(),
            &EngineConfig {
                abort: Some(Arc::clone(&flag)),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, SimError::Aborted);
        // An unraised flag changes nothing: outcomes match the flagless run.
        flag.store(false, std::sync::atomic::Ordering::SeqCst);
        let watched = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tm(),
            &EngineConfig {
                abort: Some(flag),
                ..Default::default()
            },
        )
        .unwrap();
        let (plain, _) = run(8, &jobs);
        assert_eq!(watched.outcomes, plain.outcomes);
    }
}
