//! Per-job time series (Figure 6).

use bsld_model::JobOutcome;

/// Wait time per job in arrival order: `(arrival_secs, wait_secs)`.
///
/// Figure 6 of the paper plots exactly this series (zoomed) for SDSC-Blue
/// with and without frequency scaling.
pub fn wait_series(outcomes: &[JobOutcome]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = outcomes
        .iter()
        .map(|o| (o.arrival.as_secs(), o.wait()))
        .collect();
    v.sort_unstable();
    v
}

/// Machine-usage step series: `(time, busy_cpus)` at every instant the
/// occupancy changes, derived from completed outcomes. The series starts
/// at the first event and ends at 0 busy cpus.
pub fn utilization_series(outcomes: &[JobOutcome]) -> Vec<(u64, u32)> {
    let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        deltas.push((o.start.as_secs(), o.cpus as i64));
        deltas.push((o.finish.as_secs(), -(o.cpus as i64)));
    }
    deltas.sort_unstable();
    let mut out: Vec<(u64, u32)> = Vec::new();
    let mut level = 0i64;
    for (t, d) in deltas {
        level += d;
        debug_assert!(level >= 0);
        match out.last_mut() {
            Some(last) if last.0 == t => last.1 = level as u32,
            _ => out.push((t, level as u32)),
        }
    }
    out
}

/// Wait-queue depth step series: `(time, queued_jobs)` at every arrival and
/// start, derived from completed outcomes (a job is queued from its arrival
/// until its start).
pub fn queue_depth_series(outcomes: &[JobOutcome]) -> Vec<(u64, u32)> {
    let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        deltas.push((o.arrival.as_secs(), 1));
        deltas.push((o.start.as_secs(), -1));
    }
    deltas.sort_unstable();
    // Net out all deltas within one instant before applying, so a job that
    // arrives and starts in the same event batch never shows up as
    // transient negative depth.
    let mut out: Vec<(u64, u32)> = Vec::new();
    let mut level = 0i64;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        let mut net = 0i64;
        while i < deltas.len() && deltas[i].0 == t {
            net += deltas[i].1;
            i += 1;
        }
        level += net;
        debug_assert!(level >= 0, "queue depth negative at t={t}");
        out.push((t, level as u32));
    }
    out
}

/// Writes a cluster power step series — `(time_s, power)` pairs as
/// produced by `bsld-powercap`'s ledger — as CSV. Each row holds from its
/// instant until the next row's.
pub fn write_power_series<W: std::io::Write>(
    w: &mut W,
    series: &[(u64, f64)],
) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|&(t, p)| vec![t.to_string(), format!("{p:.6}")])
        .collect();
    crate::csvout::write_csv(w, &["time_s", "power"], &rows)
}

/// Resamples a step series onto a regular grid of `step_s` seconds
/// (time-weighted mean per bucket) — the practical form for plotting long
/// runs whose event-resolution series has millions of points. Time before
/// the series' first instant counts as zero power.
pub fn resample_power_series(series: &[(u64, f64)], end_s: u64, step_s: u64) -> Vec<(u64, f64)> {
    assert!(step_s > 0, "resample step must be positive");
    if series.is_empty() || end_s == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity((end_s / step_s + 1) as usize);
    let mut j = 0usize;
    let mut bucket_start = 0u64;
    while bucket_start < end_s {
        let bucket_end = (bucket_start + step_s).min(end_s);
        let mut acc = 0.0f64;
        let mut t = bucket_start;
        while t < bucket_end {
            let (value, seg_end) = if t < series[0].0 {
                (0.0, series[0].0)
            } else {
                while j + 1 < series.len() && series[j + 1].0 <= t {
                    j += 1;
                }
                let seg_end = if j + 1 < series.len() {
                    series[j + 1].0
                } else {
                    u64::MAX
                };
                (series[j].1, seg_end)
            };
            let upto = seg_end.min(bucket_end);
            acc += value * (upto - t) as f64;
            t = upto;
        }
        out.push((bucket_start, acc / (bucket_end - bucket_start) as f64));
        bucket_start = bucket_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_model::{GearId, JobId, Phase};
    use bsld_simkernel::Time;

    fn outcome(arrival: u64, start: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(arrival as u32),
            cpus: 1,
            arrival: Time(arrival),
            start: Time(start),
            finish: Time(start + 10),
            gear: GearId(0),
            phases: vec![Phase {
                gear: GearId(0),
                seconds: 10,
            }],
            nominal_runtime: 10,
            requested: 10,
        }
    }

    #[test]
    fn series_sorted_by_arrival() {
        let outcomes = vec![outcome(30, 35), outcome(10, 10), outcome(20, 50)];
        let s = wait_series(&outcomes);
        assert_eq!(s, vec![(10, 0), (20, 30), (30, 5)]);
    }

    #[test]
    fn resample_counts_pre_series_time_as_zero() {
        let s = vec![(100u64, 5.0f64)];
        let r = resample_power_series(&s, 200, 100);
        assert_eq!(r.len(), 2);
        assert!(
            r[0].1.abs() < 1e-12,
            "bucket before the series starts must be zero"
        );
        assert!((r[1].1 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn resample_takes_time_weighted_means() {
        let s = vec![(0u64, 2.0f64), (50, 4.0)];
        let r = resample_power_series(&s, 100, 100);
        assert_eq!(r.len(), 1);
        assert!((r[0].1 - 3.0).abs() < 1e-12);
        // Finer grid reproduces the steps exactly.
        let fine = resample_power_series(&s, 100, 50);
        assert!((fine[0].1 - 2.0).abs() < 1e-12);
        assert!((fine[1].1 - 4.0).abs() < 1e-12);
    }

    fn outcome_span(id: u32, cpus: u32, arrival: u64, start: u64, finish: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            cpus,
            arrival: Time(arrival),
            start: Time(start),
            finish: Time(finish),
            gear: GearId(5),
            phases: vec![Phase {
                gear: GearId(5),
                seconds: finish - start,
            }],
            nominal_runtime: finish - start,
            requested: finish - start,
        }
    }

    #[test]
    fn utilization_series_steps() {
        let outcomes = vec![
            outcome_span(0, 4, 0, 0, 100),
            outcome_span(1, 2, 0, 50, 150),
        ];
        let s = utilization_series(&outcomes);
        assert_eq!(s, vec![(0, 4), (50, 6), (100, 2), (150, 0)]);
    }

    #[test]
    fn utilization_series_ends_at_zero() {
        let outcomes: Vec<JobOutcome> = (0..20)
            .map(|i| outcome_span(i, 1 + i % 3, 0, (i as u64) * 5, (i as u64) * 5 + 40))
            .collect();
        let s = utilization_series(&outcomes);
        assert_eq!(s.last().unwrap().1, 0);
    }

    #[test]
    fn queue_depth_series_steps() {
        // Job 0 starts immediately; jobs 1 and 2 queue until 100 and 200.
        let outcomes = vec![
            outcome_span(0, 4, 0, 0, 100),
            outcome_span(1, 4, 10, 100, 200),
            outcome_span(2, 4, 20, 200, 300),
        ];
        let s = queue_depth_series(&outcomes);
        assert_eq!(s, vec![(0, 0), (10, 1), (20, 2), (100, 1), (200, 0)]);
    }

    #[test]
    fn queue_depth_never_negative_on_same_instant_churn() {
        // Arrival and start at the same instant: the start's -1 sorts
        // first only if some other job arrived earlier; a lone same-instant
        // (arrive, start) pair nets to zero.
        let outcomes = vec![outcome_span(0, 1, 5, 5, 10), outcome_span(1, 1, 5, 5, 10)];
        let s = queue_depth_series(&outcomes);
        assert_eq!(s, vec![(5, 0)]);
    }
}
