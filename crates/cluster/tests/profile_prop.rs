//! Property tests for the availability profile — the data structure every
//! scheduling decision goes through.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld_cluster::{Profile, ProfileBuilder};
use bsld_simkernel::Time;
use proptest::prelude::*;

const TOTAL: u32 = 64;

/// Builds a random profile: some free-now count plus future releases that
/// never exceed the machine size.
fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        0u32..=32,
        proptest::collection::vec((1u64..10_000, 1u32..8), 0..20),
    )
        .prop_map(|(free_now, releases)| {
            let mut b = ProfileBuilder::new(Time(0), TOTAL, free_now);
            let mut budget = TOTAL - free_now;
            for (t, cpus) in releases {
                let cpus = cpus.min(budget);
                if cpus == 0 {
                    break;
                }
                budget -= cpus;
                b.release(Time(t), cpus);
            }
            b.build()
        })
}

/// A sequence of commit attempts to apply on top.
fn arb_commits() -> impl Strategy<Value = Vec<(u64, u64, u32)>> {
    proptest::collection::vec((0u64..12_000, 1u64..8_000, 1u32..TOTAL), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants survive any sequence of (possibly failing) commits, and
    /// failed commits leave the profile untouched.
    #[test]
    fn commits_preserve_invariants(p in arb_profile(), commits in arb_commits()) {
        let mut p = p;
        for (start, dur, cpus) in commits {
            let before = p.clone();
            let end = Time(start.saturating_add(dur));
            match p.commit(Time(start), end, cpus) {
                Ok(()) => {
                    p.check_invariants().map_err(TestCaseError::fail)?;
                }
                Err(_) => {
                    prop_assert_eq!(&p, &before, "failed commit must not mutate");
                }
            }
        }
    }

    /// `earliest_fit` returns a window that actually fits, and no earlier
    /// boundary or the origin fits — i.e. it really is the earliest.
    #[test]
    fn earliest_fit_is_sound_and_minimal(
        p in arb_profile(),
        cpus in 1u32..=TOTAL,
        dur in 1u64..6_000,
        not_before in 0u64..8_000,
    ) {
        let nb = Time(not_before);
        if let Some(t) = p.earliest_fit(cpus, dur, nb) {
            prop_assert!(t >= nb);
            prop_assert!(p.can_fit(t, cpus, dur), "returned window must fit");
            // Minimality: candidate starts are `not_before` and segment
            // boundaries; anything strictly earlier must not fit.
            prop_assert!(t == nb || !p.can_fit(nb, cpus, dur));
            for &(seg_start, _) in p.segments() {
                if seg_start >= nb && seg_start < t {
                    prop_assert!(
                        !p.can_fit(seg_start, cpus, dur),
                        "earlier boundary {seg_start:?} fits but {t:?} was returned"
                    );
                }
            }
        } else {
            // The generated profiles are release-only (non-decreasing), so
            // a fit exists iff the final availability covers the request.
            let final_avail = p.segments().last().unwrap().1;
            prop_assert!(final_avail < cpus, "fit must exist when the tail has room");
        }
    }

    /// `min_available` over a window equals the pointwise minimum of
    /// `available_at` sampled at the window start and every boundary
    /// inside it.
    #[test]
    fn min_available_matches_pointwise(
        p in arb_profile(),
        start in 0u64..12_000,
        dur in 0u64..8_000,
    ) {
        let start = Time(start);
        let end = start.saturating_add(dur);
        let mut expected = p.available_at(start);
        for &(seg_start, _) in p.segments() {
            if seg_start > start && seg_start < end {
                expected = expected.min(p.available_at(seg_start));
            }
        }
        prop_assert_eq!(p.min_available(start, dur), expected);
    }

    /// Random commit / `release_over` / `advance_origin` sequences: after
    /// every step the profile agrees with an independent model (the built
    /// profile plus the log of live windows) at every breakpoint, both
    /// queries agree with brute-force oracles over the model's breakpoints,
    /// and one `free_span` answers `can_fit` for every probed duration.
    #[test]
    fn mutation_sequences_match_brute_force_model(
        p in arb_profile(),
        ops in proptest::collection::vec((0u8..3, 0u64..12_000, 1u64..8_000, 1u32..TOTAL), 1..24),
        probes in proptest::collection::vec((0u64..16_000, 0u64..10_000, 0u32..=TOTAL + 1), 1..8),
    ) {
        let mut model = Model::new(&p);
        let mut p = p;
        for (kind, a, b, cpus) in ops {
            match kind {
                0 => {
                    let start = Time(model.origin.as_secs() + a);
                    let end = Time(start.as_secs().saturating_add(b));
                    let before = p.clone();
                    match p.commit(start, end, cpus) {
                        Ok(()) => model.live.push((start, end, cpus)),
                        Err(_) => prop_assert_eq!(&p, &before, "failed commit must not mutate"),
                    }
                }
                1 => {
                    if model.live.is_empty() {
                        continue;
                    }
                    let (start, end, cpus) = model.live.remove(a as usize % model.live.len());
                    let start = start.max(model.origin);
                    p.release_over(start, end, cpus).map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
                _ => {
                    model.origin = Time(model.origin.as_secs() + a % 2_000);
                    p.advance_origin(model.origin);
                }
            }
            p.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(p.origin(), model.origin);
            let points = model.breakpoints();
            for &t in &points {
                prop_assert_eq!(p.available_at(t), model.avail(t), "available_at {:?}", t);
            }
            let mut starts: Vec<Time> = probes.iter().map(|&(t, _, _)| Time(t)).collect();
            for &t in &points {
                starts.extend([Time(t.as_secs().saturating_sub(1)), t, Time(t.as_secs() + 1)]);
            }
            for &t in &starts {
                for &(_, dur, cpus) in &probes {
                    for d in [dur, 0, u64::MAX] {
                        prop_assert_eq!(
                            p.min_available(t, d),
                            model.brute_min(&points, t, d),
                            "min_available t={:?} dur={}", t, d
                        );
                        prop_assert_eq!(
                            p.earliest_fit(cpus, d, t),
                            model.brute_fit(&points, cpus, d, t),
                            "earliest_fit cpus={} dur={} not_before={:?}", cpus, d, t
                        );
                        prop_assert_eq!(
                            p.free_span(t, cpus).is_some_and(|span| d <= span),
                            p.can_fit(t, cpus, d),
                            "free_span cpus={} dur={} start={:?}", cpus, d, t
                        );
                    }
                }
            }
        }
    }

    /// A committed window reduces availability by exactly `cpus` inside it
    /// and leaves it unchanged outside.
    #[test]
    fn commit_is_exact(
        p in arb_profile(),
        start in 0u64..10_000,
        dur in 1u64..4_000,
        cpus in 1u32..16,
    ) {
        let start = Time(start);
        let end = start + dur;
        let mut q = p.clone();
        if q.commit(start, end, cpus).is_ok() {
            // Probe inside, before, and after the window.
            let probes = [
                start,
                Time(start.as_secs() + dur / 2),
                Time(start.as_secs().saturating_sub(1)),
                end,
                Time(end.as_secs() + 10_000),
            ];
            for t in probes {
                let was = p.available_at(t);
                let now = q.available_at(t);
                if t >= start && t < end {
                    prop_assert_eq!(now, was - cpus, "inside window at {:?}", t);
                } else {
                    prop_assert_eq!(now, was, "outside window at {:?}", t);
                }
            }
        }
    }
}

/// Independent availability model: the profile as built, minus every live
/// committed window, read no earlier than the current origin.
struct Model {
    base: Vec<(Time, u32)>,
    live: Vec<(Time, Time, u32)>,
    origin: Time,
}

impl Model {
    fn new(p: &Profile) -> Self {
        Model {
            base: p.segments().to_vec(),
            live: Vec::new(),
            origin: p.origin(),
        }
    }

    /// Availability at `t` (clamped to the origin).
    fn avail(&self, t: Time) -> u32 {
        let t = t.max(self.origin);
        let base = self
            .base
            .iter()
            .take_while(|&&(s, _)| s <= t)
            .last()
            .map_or(self.base[0].1, |&(_, a)| a);
        let taken: u32 = self
            .live
            .iter()
            .filter(|&&(s, e, _)| s <= t && t < e)
            .map(|&(_, _, c)| c)
            .sum();
        base - taken
    }

    /// Every instant at or after the origin where availability may step.
    fn breakpoints(&self) -> Vec<Time> {
        let mut pts: Vec<Time> = std::iter::once(self.origin)
            .chain(self.base.iter().map(|&(t, _)| t))
            .chain(self.live.iter().flat_map(|&(s, e, _)| [s, e]))
            .filter(|&t| t >= self.origin && t < Time::MAX)
            .collect();
        pts.sort_unstable();
        pts.dedup();
        pts
    }

    /// Minimum availability read at `start` and every breakpoint inside
    /// `[start, start+dur)`.
    fn brute_min(&self, points: &[Time], start: Time, dur: u64) -> u32 {
        let end = start.saturating_add(dur);
        points
            .iter()
            .filter(|&&t| t > start && t < end)
            .fold(self.avail(start), |m, &t| m.min(self.avail(t)))
    }

    /// The first candidate start — `not_before` (clamped to the origin) or
    /// a later breakpoint — whose whole window fits.
    fn brute_fit(&self, points: &[Time], cpus: u32, dur: u64, not_before: Time) -> Option<Time> {
        if cpus > TOTAL {
            return None;
        }
        let first = not_before.max(self.origin);
        std::iter::once(first)
            .chain(points.iter().copied().filter(|&t| t > first))
            .find(|&t| self.brute_min(points, t, dur) >= cpus)
    }
}
