//! `paper_suite`: the `bsld-repro all` sequence a reproducer runs.
//!
//! One round is table 1, the original-size grid (figures 3–5), figure 6,
//! the enlarged systems (figures 7–9, table 3), the six ablations and the
//! power-cap frontier, at 5 000 jobs per workload on one thread, with no
//! CSV output and every rendered report captured into one string. The
//! digest of that string is the round's correctness check.
//!
//! The traced run times each experiment call and each render separately
//! (the experiments' inner cells run inside `bsld-core` and cannot be
//! wrapped without changing it), and adds two probes of layers the suite
//! calls internally: generating the five workloads and computing run
//! metrics on their baseline outcomes.

use std::cell::RefCell;
use std::time::Instant;

use bsld_core::experiments::{ablation, enlarged, fig6, grid, powercap, table1, ExpOptions};
use bsld_core::scenario::{ProfileName, WorkloadSpec};
use bsld_core::{Simulator, WqThreshold};
use bsld_metrics::RunMetrics;

use crate::expected;
use crate::out::{fnv1a, peak_rss_mb, Ops, Report};
use crate::spans::{median, sum_layer, Layer, Recorder};
use crate::RunArgs;

/// Jobs per workload in a measured round (the paper's scale).
pub const JOBS: usize = 5000;
/// Jobs per workload in a set-up (warm-up) round.
const SETUP_JOBS: usize = 100;
/// Set-ups before each round (the reported `setup_s` is their median).
/// Repeating set-up through the run spreads its samples over the run
/// instead of catching the host's speed at one moment.
const SETUPS_PER_ROUND: usize = 2;

fn opts(seed: u64, jobs: usize) -> ExpOptions {
    ExpOptions {
        seed,
        jobs,
        threads: 1,
        out_dir: None,
        trace_out: None,
    }
}

/// Runs `f` inside a span of `layer` when a recorder is attached.
fn timed<T>(rec: Option<&RefCell<Recorder>>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.borrow_mut().time(layer, f),
        None => f(),
    }
}

/// Runs the `all` sequence and returns everything it prints. With a
/// recorder, each experiment call and each render is a span.
pub fn run_all(o: &ExpOptions, rec: Option<&RefCell<Recorder>>) -> String {
    let mut parts: Vec<String> = Vec::new();

    let t = timed(rec, Layer::Table1, || table1::run(o));
    parts.extend(timed(rec, Layer::Render, || vec![t.render()]));

    let g = timed(rec, Layer::Grid, || grid::run(o));
    parts.extend(timed(rec, Layer::Render, || {
        vec![
            g.render_fig3(false),
            g.render_fig3(true),
            g.render_summary(),
            g.render_fig4(),
            g.render_fig5(),
        ]
    }));

    let f = timed(rec, Layer::Fig6, || fig6::run(o));
    parts.extend(timed(rec, Layer::Render, || vec![f.render()]));

    let s = timed(rec, Layer::Enlarged, || enlarged::run(o));
    parts.extend(timed(rec, Layer::Render, || {
        vec![
            s.render_energy(WqThreshold::Limit(0), false),
            s.render_energy(WqThreshold::Limit(0), true),
            s.render_energy(WqThreshold::NoLimit, false),
            s.render_energy(WqThreshold::NoLimit, true),
            s.render_bsld(WqThreshold::NoLimit),
            s.render_bsld(WqThreshold::Limit(0)),
            s.render_table3(),
        ]
    }));

    let ablations = timed(rec, Layer::Ablations, || {
        [
            ablation::boost(o),
            ablation::beta(o),
            ablation::fcfs(o),
            ablation::gears(o),
            ablation::selection(o),
            ablation::engine(o),
        ]
    });
    parts.extend(timed(rec, Layer::Render, || {
        ablations.iter().map(|a| a.render()).collect::<Vec<_>>()
    }));

    let pc = timed(rec, Layer::Powercap, || powercap::run(o));
    parts.extend(timed(rec, Layer::Render, || vec![pc.render_frontier()]));

    // Each report is one `println!` in the CLI.
    let mut text = parts.join("\n");
    text.push('\n');
    text
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<(Report, Ops), String> {
    let mut setups = Vec::new();
    let o = opts(args.seed, JOBS);
    let mut ops = Ops::default();
    let mut first = None;
    let mut suite_s = Vec::new();
    let mut traced_s = Vec::new();
    let rec = RefCell::new(Recorder::new());
    let mut first_round_rss = None;
    let start = Instant::now();
    while suite_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            std::hint::black_box(run_all(&opts(args.seed, SETUP_JOBS), None));
            setups.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let text = run_all(&o, None);
        suite_s.push(t.elapsed().as_secs_f64());
        let got = fnv1a(text.as_bytes());
        ops.record(
            "suite",
            expected::check(args.seed, "suite", got, &mut first),
        );
        if args.trace {
            let t = Instant::now();
            let text = run_all(&o, Some(&rec));
            traced_s.push(t.elapsed().as_secs_f64());
            let got = fnv1a(text.as_bytes());
            ops.record(
                "traced suite",
                expected::check(args.seed, "suite", got, &mut first),
            );
        }
        first_round_rss.get_or_insert_with(peak_rss_mb);
    }

    let mut report = Report::default();
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    report.put("setup_s", med(&setups), "s", setups.len());
    report.put("round_s", med(&suite_s), "s", suite_s.len());
    report.put("suite_s", med(&suite_s), "s", suite_s.len());
    report.put("peak_rss_mb", first_round_rss.unwrap_or(0.0), "MB", 1);
    if args.trace {
        probes(args.seed, &rec);
        if let Some(path) = &args.span_file {
            let _ = rec.borrow().write_spans(path);
        }
        let tallies = rec.borrow().tallies();
        let n = traced_s.len().max(1);
        let per_round = |l: Layer| sum_layer(&tallies, l, |_| true).total_s() / n as f64;
        for (name, layer) in [
            ("experiments.table1_s", Layer::Table1),
            ("experiments.grid_s", Layer::Grid),
            ("experiments.fig6_s", Layer::Fig6),
            ("experiments.enlarged_s", Layer::Enlarged),
            ("experiments.ablations_s", Layer::Ablations),
            ("experiments.powercap_s", Layer::Powercap),
            ("report.render_s", Layer::Render),
        ] {
            report.put(name, per_round(layer), "s", n);
        }
        // The probes ran once.
        let once = |l: Layer| sum_layer(&tallies, l, |_| true).total_s();
        report.put("workload.generate_s", once(Layer::WorkloadGenerate), "s", 1);
        report.put("metrics.compute_s", once(Layer::MetricsCompute), "s", 1);
        report.put(
            "trace_overhead_frac",
            med(&traced_s) / med(&suite_s) - 1.0,
            "frac",
            traced_s.len(),
        );
    }
    Ok((report, ops))
}

/// Times the generation of the five workloads at suite scale, and run
/// metrics over their baseline outcomes.
fn probes(seed: u64, rec: &RefCell<Recorder>) {
    rec.borrow_mut().set_op(1);
    for profile in ProfileName::ALL {
        let spec = WorkloadSpec::Synthetic {
            profile,
            jobs: JOBS,
            seed,
            scale_cpus: None,
            beta: None,
        };
        let w = rec
            .borrow_mut()
            .time(Layer::WorkloadGenerate, || spec.build());
        let Ok(w) = w else { continue };
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let Ok(base) = sim.run_baseline(&w.jobs) else {
            continue;
        };
        let m = rec.borrow_mut().time(Layer::MetricsCompute, || {
            RunMetrics::compute(
                &base.outcomes,
                &sim.power,
                sim.cluster.cpus,
                sim.time_model.gears().len(),
            )
        });
        std::hint::black_box(m);
    }
}
