//! The repository benchmark: end-to-end host time and its split across
//! layers, for the three things a user of this reproduction pays for.
//!
//! ```text
//! perfbench --workload <paper_suite|replay_300k|whatif_serve>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures untraced and reports the end-to-end metrics;
//! `--trace 1` also replays the work through timing wrappers and reports
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` next to this crate for what each workload and metric means.

mod expected;
mod out;
mod replay;
mod serve;
mod spans;
mod suite;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use out::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its retained spans.
    pub span_file: Option<PathBuf>,
}

/// Workloads and why each exists (mirrors `BENCHMARK.json`).
const WORKLOADS: &[&str] = &["paper_suite", "replay_300k", "whatif_serve"];

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
];

/// Per-layer metrics: every workload reports each of them, 0 for a layer
/// it does not call.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut put = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    put("trace_overhead_frac", "frac");
    put("suite_s", "s");
    put("load_s", "s");
    for cell in replay::Cell::ALL {
        put(&format!("replay_{}_s", cell.name()), "s");
    }
    put("serve_p50_ms", "ms");
    put("serve_p99_ms", "ms");
    put("serve_qps", "1/s");
    put("swf.parse_s", "s");
    put("swf.clean_s", "s");
    put("swf.records", "count");
    put("swf.kept_frac", "frac");
    put("workload.assemble_s", "s");
    for cell in replay::Cell::ALL {
        let c = cell.name();
        for (m, unit) in [
            ("sched.simulate_s", "s"),
            ("sched.self_s", "s"),
            ("sched.passes", "count"),
            ("sched.profile_rebuilds", "count"),
            ("sched.passes_skipped", "count"),
            ("sched.elided_frac", "frac"),
            ("sched.ns_per_job", "ns"),
            ("cluster.fits_calls", "count"),
            ("cluster.fits_s", "s"),
            ("cluster.fits_per_candidate", "count"),
            ("policy.head_calls", "count"),
            ("policy.backfill_calls", "count"),
            ("policy.backfill_declined_frac", "frac"),
            ("policy.self_s", "s"),
        ] {
            put(&format!("{m}.{c}"), unit);
        }
    }
    for (m, unit) in [
        ("powercap.admit_calls", "count"),
        ("powercap.admit_declined_frac", "frac"),
        ("powercap.on_time_calls", "count"),
        ("powercap.gear_change_calls", "count"),
        ("powercap.wakeups", "count"),
        ("powercap.self_s", "s"),
        ("metrics.compute_s", "s"),
        ("experiments.table1_s", "s"),
        ("experiments.grid_s", "s"),
        ("experiments.fig6_s", "s"),
        ("experiments.enlarged_s", "s"),
        ("experiments.ablations_s", "s"),
        ("experiments.powercap_s", "s"),
        ("report.render_s", "s"),
        ("workload.generate_s", "s"),
        ("serve.server_p50_ms", "ms"),
        ("serve.transport_mean_ms", "ms"),
        ("serve.client_p50_ms.novel", "ms"),
        ("serve.client_p50_ms.repeat", "ms"),
        ("serve.client_p50_ms.miss", "ms"),
        ("serve.result_hit_frac", "frac"),
        ("serve.workload_hit_frac", "frac"),
        ("serve.evictions", "count"),
    ] {
        put(m, unit);
    }
    v
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: expected::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        span_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the checkout, relative so socket paths stay short.
    let work = Path::new(".bench_work");
    if let Err(e) = std::fs::create_dir_all(work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    if args.trace {
        args.span_file = Some(work.join(format!("spans-{}-{}.jsonl", args.workload, args.seed)));
    }
    let result = match args.workload.as_str() {
        "paper_suite" => suite::run(&args),
        "replay_300k" => replay::run(&args, work),
        _ => serve::run(&args, work),
    };
    let (mut measured, ops) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    measured.put("ops_ok_frac", ops.ok_frac(), "frac", ops.attempted as usize);
    for r in &ops.reasons {
        eprintln!("perfbench: FAILED {r}");
    }
    let report: Report = if args.trace {
        let names = per_layer();
        let names: Vec<(&str, &'static str)> =
            names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        measured.select(&names)
    } else {
        measured.select(END_TO_END)
    };
    print!("{}", report.table());
    println!("{}", report.json_line(ops.failed == 0, &ops));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        let layer = per_layer();
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(layer.iter().map(|(n, _)| n.as_str()))
            .collect();
        assert!(layer.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for n in &names {
            assert!(seen.insert(*n), "duplicate metric {n}");
            assert!(n.len() <= 64);
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (n, u) in END_TO_END {
            assert!(
                text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n}"
            );
        }
        for (n, u) in per_layer() {
            assert!(
                text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n}"
            );
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
