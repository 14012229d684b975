//! Power-capped clusters: the energy/BSLD trade-off under a hard budget,
//! with idle sleep states.
//!
//! ```text
//! cargo run --release --example power_capping [cap_fraction]
//! ```
//!
//! `cap_fraction` is the budget as a fraction of the machine's peak draw
//! (default 0.6). The example runs SDSC-Blue four ways — uncapped
//! baseline, sleep states only, capped baseline, capped + the paper's
//! DVFS policy — and prints the ledger-level power picture of each.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, PowerSpec, SleepSpec};
use bsld::core::{Simulator, WqThreshold};
use bsld::metrics::TextTable;
use bsld::workload::profiles::TraceProfile;

fn main() {
    let cap: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("cap_fraction must be a number"))
        .unwrap_or(0.6);
    let w = TraceProfile::sdsc_blue().generate(2010, 3000);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);

    let dvfs = PolicySpec::BsldThreshold {
        th: 2.0,
        wq: WqThreshold::NoLimit,
    };
    let observe = PowerSpec {
        observe: true,
        ..PowerSpec::off()
    };
    let sleep = PowerSpec {
        sleep: SleepSpec::Paper,
        ..observe.clone()
    };
    let capped = PowerSpec {
        cap_fraction: Some(cap),
        ..sleep.clone()
    };
    let base = PolicySpec::Baseline;
    let cases = [
        ("uncapped baseline", base, observe),
        ("sleep states only", base, sleep),
        ("hard cap", base, capped.clone()),
        ("hard cap + DVFS 2/NO", dvfs, capped),
    ];

    println!(
        "{}: {} jobs on {} cpus, cap = {:.0}% of peak draw\n",
        w.cluster_name,
        w.jobs.len(),
        w.cpus,
        cap * 100.0
    );
    let mut t = TextTable::new(vec![
        "configuration",
        "energy",
        "peak",
        "avg power",
        "avg BSLD",
        "deferrals",
        "wakes",
    ]);
    let mut base_energy = None;
    for (name, policy, power) in &cases {
        let r = match sim.run(&w.jobs, policy, power) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "{name}: {e}\n(this budget cannot run the workload; try a higher cap_fraction)"
                );
                std::process::exit(2);
            }
        };
        let p = r.power.expect("instrumented runs report power");
        let base = *base_energy.get_or_insert(p.energy);
        t.row(vec![
            name.to_string(),
            format!("{:.3}x", p.energy / base),
            format!("{:.0}", p.peak),
            format!("{:.0}", p.average),
            format!("{:.2}", r.run.metrics.avg_bsld),
            p.cap.deferrals.to_string(),
            p.sleep.wakes.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(energy is the ledger integral incl. idle draw and wake penalties,\n normalised to the uncapped baseline; power in normalised units)");
}
