//! `replay_300k`: one large SWF trace, loaded through the streaming path
//! and replayed under four policy cells.
//!
//! Set-up writes a 300 000-job trace with `bsld_swf::generate_swf` (1 024
//! cpus). A round loads it once (`WorkloadSpec::Swf { clean: true }`) and
//! runs the four cells on the loaded jobs through `Scenario::run_prepared`:
//!
//! * `baseline` — EASY at the top gear (the engine's elided fast path),
//! * `dvfs` — BSLD threshold 2, no wait-queue limit,
//! * `wq` — BSLD threshold 2, WQ = 4 (no pass elision),
//! * `cap` — BSLD 2/NO under a hard cap of 0.8 with the paper sleep
//!   ladder (the power hook).
//!
//! The traced run replays each cell a second time through
//! `bsld_sched::simulate` / `simulate_with_hook` with the timing wrappers
//! and asserts the outcomes, `PassStats`, metrics and `PowerReport`
//! identical to the untraced call.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bsld_core::scenario::{PolicySpec, PowerSpec, ProfileName, SleepSpec, WorkloadSpec};
use bsld_core::{
    BsldThresholdPolicy, PowerAwareConfig, Scenario, ScenarioResult, Simulator, WqThreshold,
};
use bsld_metrics::RunMetrics;
use bsld_model::JobOutcome;
use bsld_powercap::{PowerCap, PowerCapPolicy, PowerReport, SleepConfig};
use bsld_sched::{
    simulate, simulate_with_hook, validate_schedule, FixedGearPolicy, FrequencyPolicy, PassStats,
};
use bsld_workload::Workload;

use crate::expected;
use crate::out::{fnv1a, peak_rss_mb, Ops, Report};
use crate::spans::{median, sum_layer, Layer, Recorder, Tallies};
use crate::timed::{TimedHook, TimedPolicy};
use crate::RunArgs;

/// Jobs in the generated trace.
pub const JOBS: u64 = 300_000;
/// Machine size of the generated trace.
pub const CPUS: u32 = 1024;
/// Set-ups between rounds (the reported `setup_s` is the median of these
/// and the first). Repeating set-up through the run spreads its samples
/// over the run instead of catching the host's speed at one moment.
const SETUPS_PER_ROUND: usize = 4;
/// Hard cap of the `cap` cell, as a fraction of peak draw.
const CAP_FRACTION: f64 = 0.8;

/// The four replay cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// EASY at the top gear.
    Baseline,
    /// BSLD 2, no queue limit.
    Dvfs,
    /// BSLD 2, WQ = 4.
    Wq,
    /// BSLD 2/NO under a hard cap with sleep states.
    Cap,
}

impl Cell {
    /// Every cell, in run order.
    pub const ALL: [Cell; 4] = [Cell::Baseline, Cell::Dvfs, Cell::Wq, Cell::Cap];

    /// Metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Cell::Baseline => "baseline",
            Cell::Dvfs => "dvfs",
            Cell::Wq => "wq",
            Cell::Cap => "cap",
        }
    }

    fn op_id(self) -> u32 {
        self as u32 + 1
    }

    fn bsld(wq: WqThreshold) -> PolicySpec {
        PolicySpec::from(PowerAwareConfig {
            bsld_threshold: 2.0,
            wq_threshold: wq,
        })
    }

    /// The cell's frequency policy.
    fn policy(self) -> PolicySpec {
        match self {
            Cell::Baseline => PolicySpec::Baseline,
            Cell::Dvfs | Cell::Cap => Cell::bsld(WqThreshold::NoLimit),
            Cell::Wq => Cell::bsld(WqThreshold::Limit(4)),
        }
    }

    /// The cell as a scenario over the trace at `path`.
    pub fn scenario(self, path: &Path) -> Scenario {
        let mut sc = Scenario::synthetic(self.name(), ProfileName::Ctc, 0, 0).map_workload(|w| {
            *w = WorkloadSpec::Swf {
                path: path.to_path_buf(),
                clean: true,
            }
        });
        sc.policy = self.policy();
        if self == Cell::Cap {
            sc.power = PowerSpec {
                cap_fraction: Some(CAP_FRACTION),
                sleep: SleepSpec::Paper,
                ..PowerSpec::off()
            };
        }
        sc
    }
}

/// Digest of a loaded workload: size plus every job field.
pub fn load_digest(w: &Workload) -> u64 {
    let mut bytes = Vec::with_capacity(w.jobs.len() * 40 + 16);
    bytes.extend_from_slice(&w.cpus.to_le_bytes());
    for j in &w.jobs {
        bytes.extend_from_slice(&j.id.0.to_le_bytes());
        bytes.extend_from_slice(&j.arrival.as_micros().to_le_bytes());
        bytes.extend_from_slice(&j.cpus.to_le_bytes());
        bytes.extend_from_slice(&j.runtime.to_le_bytes());
        bytes.extend_from_slice(&j.requested.to_le_bytes());
        bytes.extend_from_slice(&j.beta.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Digest of a cell's result: average BSLD, wait, reduced jobs and the
/// energy figures, bit for bit.
pub fn cell_digest(m: &RunMetrics, power: Option<&PowerReport>) -> u64 {
    let text = format!(
        "bsld={:016x} wait={:016x} reduced={} e_comp={:016x} e_idle={:016x} ledger={:016x}",
        m.avg_bsld.to_bits(),
        m.avg_wait_secs.to_bits(),
        m.reduced_jobs,
        m.energy.computational.to_bits(),
        m.energy.with_idle.to_bits(),
        power.map_or(0, |p| p.energy.to_bits()),
    );
    fnv1a(text.as_bytes())
}

/// What a traced cell produced, for comparison with the untraced call.
struct TracedCell {
    metrics: RunMetrics,
    outcomes: Vec<JobOutcome>,
    stats: PassStats,
    power: Option<PowerReport>,
    backfill_declined: u64,
    admit_declined: u64,
    wakeups: u64,
}

/// Replays `cell` as `Scenario::run_prepared` would, with every policy
/// and hook call timed into `rec` (the cell's spans carry its op id).
fn run_traced(
    cell: Cell,
    sim: &Simulator,
    jobs: &[bsld_model::Job],
    rec: &RefCell<Recorder>,
) -> Result<TracedCell, String> {
    rec.borrow_mut().set_op(cell.op_id());
    let fixed;
    let bsld;
    let inner: &dyn FrequencyPolicy = match cell.policy() {
        PolicySpec::BsldThreshold { th, wq } => {
            bsld = BsldThresholdPolicy::new(PowerAwareConfig {
                bsld_threshold: th,
                wq_threshold: wq,
            });
            &bsld
        }
        _ => {
            fixed = FixedGearPolicy::new(sim.time_model.gears().top());
            &fixed
        }
    };
    let policy = TimedPolicy::new(inner, rec);
    let cpus = sim.cluster.cpus;
    let gear_count = sim.time_model.gears().len();
    let (res, power, admit_declined, wakeups) = if cell == Cell::Cap {
        let budget = CAP_FRACTION * PowerCapPolicy::peak_draw(&sim.power, cpus);
        let cap = PowerCapPolicy::with_rails(
            &sim.power,
            cpus,
            PowerCap::Hard { budget },
            SleepConfig::paper_default(),
        );
        let mut hook = TimedHook::new(cap, rec);
        rec.borrow_mut().open(Layer::Simulate);
        let res = simulate_with_hook(
            &sim.cluster,
            jobs,
            &policy,
            &sim.time_model,
            &sim.engine,
            &mut hook,
        );
        rec.borrow_mut().close();
        let res = res.map_err(|e| e.to_string())?;
        let (declined, wakeups) = (hook.admit_declined(), hook.wakeups());
        let report = rec.borrow_mut().time(Layer::PowerReport, || {
            hook.into_inner().into_report(res.makespan.as_secs())
        });
        (res, Some(report), declined, wakeups)
    } else {
        rec.borrow_mut().open(Layer::Simulate);
        let res = simulate(&sim.cluster, jobs, &policy, &sim.time_model, &sim.engine);
        rec.borrow_mut().close();
        (res.map_err(|e| e.to_string())?, None, 0, 0)
    };
    let metrics = rec.borrow_mut().time(Layer::MetricsCompute, || {
        RunMetrics::compute(&res.outcomes, &sim.power, cpus, gear_count)
    });
    Ok(TracedCell {
        metrics,
        outcomes: res.outcomes,
        stats: res.stats,
        power,
        backfill_declined: policy.backfill_declined(),
        admit_declined,
        wakeups,
    })
}

/// The traced result must be the untraced one: outcomes, pass counters,
/// metrics and power report.
fn same_as_untraced(t: &TracedCell, u: &ScenarioResult) -> Result<(), String> {
    if t.outcomes != u.run.outcomes {
        return Err("traced outcomes differ from the untraced run".into());
    }
    if t.stats != u.run.pass_stats {
        return Err(format!(
            "traced PassStats {:?} differ from untraced {:?}",
            t.stats, u.run.pass_stats
        ));
    }
    if format!("{:?}", t.metrics) != format!("{:?}", u.run.metrics) {
        return Err("traced metrics differ from the untraced run".into());
    }
    if format!("{:?}", t.power) != format!("{:?}", u.power) {
        return Err("traced PowerReport differs from the untraced run".into());
    }
    Ok(())
}

/// Loads the trace through the streaming path in timed pieces: a
/// parse-only pass, the parse+clean pass the program runs, and assembly.
/// Returns the workload, records parsed and records kept.
fn load_traced(path: &Path, rec: &RefCell<Recorder>) -> Result<(Workload, usize, usize), String> {
    rec.borrow_mut().set_op(0);
    let open = || -> Result<std::io::BufReader<std::fs::File>, String> {
        Ok(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| e.to_string())?,
        ))
    };
    let parsed = rec.borrow_mut().time(Layer::SwfParse, || {
        bsld_swf::SwfStream::new(open()?)
            .collect_trace()
            .map_err(|e| e.to_string())
    })?;
    let (trace, _summary) = rec.borrow_mut().time(Layer::SwfCleanStream, || {
        bsld_swf::clean_swf_stream(
            bsld_swf::SwfStream::new(open()?),
            &bsld_swf::CleanConfig::default(),
        )
        .map_err(|e| format!("{e:?}"))
    })?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let w = rec
        .borrow_mut()
        .time(Layer::WorkloadAssemble, || Workload::from_swf(name, &trace));
    Ok((w, parsed.records.len(), trace.records.len()))
}

/// Runs the workload.
pub fn run(args: &RunArgs, work: &Path) -> Result<(Report, Ops), String> {
    let path: PathBuf = work.join(format!("replay-{}-{}.swf", args.seed, std::process::id()));
    let result = measure(args, &path);
    let _ = std::fs::remove_file(&path);
    result
}

/// Set-up: generates the seeded trace into `text` (cleared first), adding
/// the time taken to `setups`.
fn generate(seed: u64, text: &mut Vec<u8>, setups: &mut Vec<f64>) -> Result<(), String> {
    text.clear();
    let t = Instant::now();
    bsld_swf::generate_swf(text, JOBS, seed, CPUS)
        .map_err(|e| format!("cannot generate trace: {e}"))?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(())
}

fn measure(args: &RunArgs, path: &Path) -> Result<(Report, Ops), String> {
    let mut setups = Vec::new();
    let mut text = Vec::new();
    generate(args.seed, &mut text, &mut setups)?;
    // Writing the file is the filesystem's cost, not the program's, and the
    // noisiest part of set-up, so it is not timed.
    std::fs::write(path, &text).map_err(|e| format!("cannot write trace: {e}"))?;
    // Freed before the first round, whose peak sets `peak_rss_mb`; later
    // set-ups refill it.
    text = Vec::new();
    let spec = WorkloadSpec::Swf {
        path: path.to_path_buf(),
        clean: true,
    };
    let scenarios: Vec<Scenario> = Cell::ALL.iter().map(|c| c.scenario(path)).collect();
    let mut ops = Ops::default();
    let mut load_s = Vec::new();
    let mut cell_s: [Vec<f64>; 4] = Default::default();
    let mut first_digest: [Option<u64>; 5] = [None; 5];
    let rec = RefCell::new(Recorder::new());
    let mut traced = Traced::default();
    let mut first_round_rss = None;
    let start = Instant::now();
    while load_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Later set-ups run between rounds, after the first round has set
        // `peak_rss_mb`.
        if !load_s.is_empty() {
            for _ in 0..SETUPS_PER_ROUND {
                generate(args.seed, &mut text, &mut setups)?;
            }
        }
        let t = Instant::now();
        let w = match spec.build() {
            Ok(w) => w,
            Err(e) => {
                // Nothing else in the round can run without the jobs.
                ops.record("load", Err(e.to_string()));
                break;
            }
        };
        load_s.push(t.elapsed().as_secs_f64());
        ops.record(
            "load",
            expected::check(args.seed, "load", load_digest(&w), &mut first_digest[0]),
        );
        if args.trace {
            match load_traced(path, &rec) {
                Ok((tw, records, kept)) => {
                    traced.records = records;
                    traced.kept = kept;
                    let same = if tw.jobs == w.jobs && tw.cpus == w.cpus {
                        Ok(())
                    } else {
                        Err("traced load differs from the untraced load".to_string())
                    };
                    ops.record("traced load", same);
                }
                Err(e) => ops.record("traced load", Err(e)),
            }
        }
        for (i, (cell, sc)) in Cell::ALL.iter().zip(&scenarios).enumerate() {
            let sim = sc.simulator(&w).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let res = sc.run_prepared(&sim, &w.jobs);
            let wall = t.elapsed().as_secs_f64();
            let res = match res {
                Ok(r) => r,
                Err(e) => {
                    ops.record(cell.name(), Err(e.to_string()));
                    continue;
                }
            };
            cell_s[i].push(wall);
            let check = validate_schedule(&res.run.outcomes, w.cpus).and_then(|()| {
                let d = cell_digest(&res.run.metrics, res.power.as_ref());
                expected::check(args.seed, cell.name(), d, &mut first_digest[i + 1])
            });
            ops.record(cell.name(), check);
            if args.trace {
                let t = Instant::now();
                let outcome = run_traced(*cell, &sim, &w.jobs, &rec);
                traced.wall_s += t.elapsed().as_secs_f64();
                traced.untraced_s += wall;
                match outcome {
                    Ok(tc) => {
                        ops.record(
                            &format!("traced {}", cell.name()),
                            same_as_untraced(&tc, &res),
                        );
                        traced.cells[i] = Some(CellCounts {
                            stats: tc.stats,
                            jobs: w.jobs.len(),
                            backfill_declined: tc.backfill_declined,
                            admit_declined: tc.admit_declined,
                            wakeups: tc.wakeups,
                        });
                    }
                    Err(e) => ops.record(&format!("traced {}", cell.name()), Err(e)),
                }
            }
        }
        traced.rounds += usize::from(args.trace);
        // Later rounds add only allocator drift, and how many rounds fit
        // depends on the machine's speed.
        first_round_rss.get_or_insert_with(peak_rss_mb);
    }

    let mut report = Report::default();
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    report.put("setup_s", med(&setups), "s", setups.len());
    // One round is a load plus the four cells; the sum of their medians is
    // steadier than the median of round totals.
    let round = med(&load_s) + cell_s.iter().map(|v| med(v)).sum::<f64>();
    report.put("round_s", round, "s", load_s.len());
    report.put("peak_rss_mb", first_round_rss.unwrap_or(0.0), "MB", 1);
    report.put("load_s", med(&load_s), "s", load_s.len());
    for (cell, v) in Cell::ALL.iter().zip(&cell_s) {
        report.put(format!("replay_{}_s", cell.name()), med(v), "s", v.len());
    }
    if args.trace {
        if let Some(path) = &args.span_file {
            let _ = rec.borrow().write_spans(path);
        }
        traced.report(&rec.borrow().tallies(), &mut report);
    }
    Ok((report, ops))
}

/// Deterministic counters of one traced cell.
#[derive(Debug, Clone, Copy)]
struct CellCounts {
    stats: PassStats,
    jobs: usize,
    backfill_declined: u64,
    admit_declined: u64,
    wakeups: u64,
}

/// Traced-run totals.
#[derive(Debug, Default)]
struct Traced {
    rounds: usize,
    records: usize,
    kept: usize,
    wall_s: f64,
    untraced_s: f64,
    cells: [Option<CellCounts>; 4],
}

impl Traced {
    /// Per-layer metrics: times are per-round means over the traced
    /// rounds; counters are per round (identical in every round).
    fn report(&self, t: &Tallies, r: &mut Report) {
        let n = self.rounds.max(1);
        let per_round = |tally: crate::spans::Tally| {
            (
                tally.total_s() / n as f64,
                tally.self_s() / n as f64,
                tally.calls / n as u64,
            )
        };
        let at = |op: u32, layer: Layer| per_round(sum_layer(t, layer, |o| o == op));
        r.put("swf.parse_s", at(0, Layer::SwfParse).0, "s", n);
        // The program's load parses and cleans in one streaming pass; the
        // clean share is that pass minus the parse-only pass.
        let clean = (at(0, Layer::SwfCleanStream).0 - at(0, Layer::SwfParse).0).max(0.0);
        r.put("swf.clean_s", clean, "s", n);
        r.put("swf.records", self.records as f64, "count", 1);
        let kept = if self.records > 0 {
            self.kept as f64 / self.records as f64
        } else {
            0.0
        };
        r.put("swf.kept_frac", kept, "frac", 1);
        r.put(
            "workload.assemble_s",
            at(0, Layer::WorkloadAssemble).0,
            "s",
            n,
        );
        let mut metrics_s = 0.0;
        for (cell, counts) in Cell::ALL.iter().zip(&self.cells) {
            let Some(c) = counts else { continue };
            let op = cell.op_id();
            let sfx = cell.name();
            let (sim_total, sim_self, _) = at(op, Layer::Simulate);
            r.put(format!("sched.simulate_s.{sfx}"), sim_total, "s", n);
            r.put(format!("sched.self_s.{sfx}"), sim_self, "s", n);
            let s = c.stats;
            r.put(format!("sched.passes.{sfx}"), s.passes as f64, "count", 1);
            r.put(
                format!("sched.profile_rebuilds.{sfx}"),
                s.profile_rebuilds as f64,
                "count",
                1,
            );
            r.put(
                format!("sched.passes_skipped.{sfx}"),
                s.passes_skipped as f64,
                "count",
                1,
            );
            let events = s.passes + s.passes_skipped;
            let elided = if events > 0 {
                s.passes_skipped as f64 / events as f64
            } else {
                0.0
            };
            r.put(format!("sched.elided_frac.{sfx}"), elided, "frac", 1);
            r.put(
                format!("sched.ns_per_job.{sfx}"),
                sim_total * 1e9 / c.jobs.max(1) as f64,
                "ns",
                n,
            );
            let (fits_s, _, fits_calls) = at(op, Layer::Fits);
            let (_, _, backfill_calls) = at(op, Layer::PolicyBackfill);
            let (_, _, head_calls) = at(op, Layer::PolicyHead);
            r.put(
                format!("cluster.fits_calls.{sfx}"),
                fits_calls as f64,
                "count",
                1,
            );
            r.put(format!("cluster.fits_s.{sfx}"), fits_s, "s", n);
            let per_candidate = if backfill_calls > 0 {
                fits_calls as f64 / backfill_calls as f64
            } else {
                0.0
            };
            r.put(
                format!("cluster.fits_per_candidate.{sfx}"),
                per_candidate,
                "count",
                1,
            );
            r.put(
                format!("policy.head_calls.{sfx}"),
                head_calls as f64,
                "count",
                1,
            );
            r.put(
                format!("policy.backfill_calls.{sfx}"),
                backfill_calls as f64,
                "count",
                1,
            );
            let declined = if backfill_calls > 0 {
                c.backfill_declined as f64 / backfill_calls as f64
            } else {
                0.0
            };
            r.put(
                format!("policy.backfill_declined_frac.{sfx}"),
                declined,
                "frac",
                1,
            );
            let policy_self: f64 = [
                Layer::PolicyHead,
                Layer::PolicyBackfill,
                Layer::PolicyReserve,
            ]
            .iter()
            .map(|&l| at(op, l).1)
            .sum();
            r.put(format!("policy.self_s.{sfx}"), policy_self, "s", n);
            metrics_s += at(op, Layer::MetricsCompute).0;
            if *cell == Cell::Cap {
                let (_, _, admits) = at(op, Layer::HookAdmit);
                r.put("powercap.admit_calls", admits as f64, "count", 1);
                let frac = if admits > 0 {
                    c.admit_declined as f64 / admits as f64
                } else {
                    0.0
                };
                r.put("powercap.admit_declined_frac", frac, "frac", 1);
                r.put(
                    "powercap.on_time_calls",
                    at(op, Layer::HookOnTime).2 as f64,
                    "count",
                    1,
                );
                let gear_changes =
                    at(op, Layer::HookAdmitGearChange).2 + at(op, Layer::HookGearChange).2;
                r.put(
                    "powercap.gear_change_calls",
                    gear_changes as f64,
                    "count",
                    1,
                );
                r.put("powercap.wakeups", c.wakeups as f64, "count", 1);
                let hook_self: f64 = [
                    Layer::HookOnTime,
                    Layer::HookAdmit,
                    Layer::HookDeclined,
                    Layer::HookAdmitGearChange,
                    Layer::HookJobStart,
                    Layer::HookJobFinish,
                    Layer::HookGearChange,
                    Layer::HookNextEvent,
                ]
                .iter()
                .map(|&l| at(op, l).1)
                .sum();
                r.put("powercap.self_s", hook_self, "s", n);
            }
        }
        r.put("metrics.compute_s", metrics_s, "s", n);
        let overhead = if self.untraced_s > 0.0 {
            self.wall_s / self.untraced_s - 1.0
        } else {
            0.0
        };
        r.put("trace_overhead_frac", overhead, "frac", n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a seeded trace of `jobs` jobs to `path`.
    fn write_trace(path: &Path, seed: u64, jobs: u64) -> std::io::Result<()> {
        let mut text = Vec::new();
        bsld_swf::generate_swf(&mut text, jobs, seed, CPUS)?;
        std::fs::write(path, text)
    }

    #[test]
    fn traced_cells_reproduce_the_untraced_run() {
        let path = std::env::temp_dir().join(format!("perfbench-{}.swf", std::process::id()));
        write_trace(&path, 11, 3000).unwrap();
        let spec = WorkloadSpec::Swf {
            path: path.clone(),
            clean: true,
        };
        let w = spec.build().unwrap();
        let rec = RefCell::new(Recorder::new());
        let (tw, records, kept) = load_traced(&path, &rec).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!((tw.jobs == w.jobs, records, kept), (true, 3000, 3000));
        for cell in Cell::ALL {
            let sc = cell.scenario(&path);
            let sim = sc.simulator(&w).unwrap();
            let untraced = sc.run_prepared(&sim, &w.jobs).unwrap();
            let traced = run_traced(cell, &sim, &w.jobs, &rec).unwrap();
            same_as_untraced(&traced, &untraced).unwrap();
            assert_eq!(traced.stats, untraced.run.pass_stats);
        }
        let t = rec.borrow().tallies();
        // Elision stays on where the program has it: the traced baseline
        // and dvfs cells skip passes, the wq and cap cells cannot.
        let skipped = |c: Cell| {
            let sc = c.scenario(Path::new(""));
            let sim = sc.simulator(&w).unwrap();
            sc.run_prepared(&sim, &w.jobs)
                .unwrap()
                .run
                .pass_stats
                .passes_skipped
        };
        assert!(skipped(Cell::Dvfs) > 0);
        assert_eq!(skipped(Cell::Wq), 0);
        assert!(t[&(Cell::Cap.op_id(), Layer::HookAdmit)].calls > 0);
        assert!(t[&(Cell::Dvfs.op_id(), Layer::Fits)].calls > 0);
        assert!(!t.contains_key(&(Cell::Dvfs.op_id(), Layer::HookAdmit)));
    }

    #[test]
    fn a_policy_change_changes_the_cell_digest() {
        let path = std::env::temp_dir().join(format!("perfbench-d-{}.swf", std::process::id()));
        write_trace(&path, 5, 2000).unwrap();
        let w = WorkloadSpec::Swf {
            path: path.clone(),
            clean: true,
        }
        .build()
        .unwrap();
        std::fs::remove_file(&path).unwrap();
        let digest = |c: Cell| {
            let sc = c.scenario(&path);
            let r = sc
                .run_prepared(&sc.simulator(&w).unwrap(), &w.jobs)
                .unwrap();
            cell_digest(&r.run.metrics, r.power.as_ref())
        };
        assert_ne!(digest(Cell::Baseline), digest(Cell::Dvfs));
        assert_eq!(digest(Cell::Wq), digest(Cell::Wq));
    }
}
