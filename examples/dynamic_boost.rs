//! The paper's future work, implemented: dynamically raising the frequency
//! of running reduced jobs when the wait queue deepens.
//!
//! ```text
//! cargo run --release --example dynamic_boost
//! ```
//!
//! Compares the plain BSLD-threshold policy against the same policy with
//! the boost extension at several queue limits, on a bursty workload where
//! DVFS-induced queueing is the dominant cost.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, PowerSpec};
use bsld::core::{PowerAwareConfig, Simulator, WqThreshold};
use bsld::metrics::TextTable;
use bsld::par::par_map;
use bsld::workload::profiles::TraceProfile;

fn main() {
    let w = TraceProfile::llnl_thunder().generate(2010, 3000);
    let sim0 = Simulator::paper_default(&w.cluster_name, w.cpus);
    let base = sim0.run_baseline(&w.jobs).unwrap().metrics;
    let cfg = PowerAwareConfig {
        bsld_threshold: 3.0,
        wq_threshold: WqThreshold::NoLimit,
    };

    println!(
        "{}: {} cpus, baseline avg BSLD {:.2}, avg wait {:.0} s\n",
        w.cluster_name, w.cpus, base.avg_bsld, base.avg_wait_secs
    );

    let variants: Vec<Option<usize>> = vec![None, Some(32), Some(8), Some(2), Some(0)];
    let rows = par_map(variants, bsld::par::default_threads(), |boost| {
        let sim = match boost {
            None => sim0.clone(),
            Some(limit) => sim0.clone().with_boost(limit),
        };
        let res = sim.run(&w.jobs, &PolicySpec::from(cfg), &PowerSpec::off());
        let m = res.unwrap().run.metrics;
        (boost, m)
    });

    let mut t = TextTable::new(vec![
        "variant",
        "E(idle=0)",
        "avg BSLD",
        "avg wait(s)",
        "reduced jobs",
    ]);
    for (boost, m) in rows {
        let label = match boost {
            None => "no boost (paper policy)".to_string(),
            Some(l) => format!("boost when queue > {l}"),
        };
        t.row(vec![
            label,
            format!("{:.3}", m.energy.normalized_computational(&base.energy)),
            format!("{:.2}", m.avg_bsld),
            format!("{:.0}", m.avg_wait_secs),
            m.reduced_jobs.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "tighter boost limits trade energy savings back for wait time — the\n\
         knob the paper proposed for future work."
    );
}
