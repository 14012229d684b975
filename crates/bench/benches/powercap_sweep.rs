//! Bench: power-capped runs — the ledger/sleep/cap hook's overhead and
//! the capped-scheduling kernel itself.
//!
//! Three configurations on the same workload isolate the costs: observe
//! only (ledger on the baseline schedule), sleep states on top, and a
//! hard cap with DVFS (the cap-sweep experiment's cell kernel). Run with
//! `cargo bench -p bsld-bench --bench powercap_sweep`.

use bsld_bench::{workload, BENCH_JOBS};
use bsld_core::scenario::{PolicySpec, PowerSpec, SleepSpec};
use bsld_core::{Simulator, WqThreshold};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("powercap");
    g.sample_size(10);
    let w = workload("SDSCBlue", BENCH_JOBS);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);

    let observe = PowerSpec {
        observe: true,
        ..PowerSpec::off()
    };
    let sleep = PowerSpec {
        sleep: SleepSpec::Paper,
        ..observe.clone()
    };
    let cap = PowerSpec {
        cap_fraction: Some(0.6),
        ..sleep.clone()
    };
    let dvfs = PolicySpec::BsldThreshold {
        th: 2.0,
        wq: WqThreshold::NoLimit,
    };
    let cases = [
        ("observe_only", PolicySpec::Baseline, observe),
        ("sleep_states", PolicySpec::Baseline, sleep),
        ("hard_cap_dvfs", dvfs, cap),
    ];
    for (name, policy, power) in cases {
        g.bench_function(name, |b| {
            b.iter(|| {
                let r = sim.run(black_box(&w.jobs), &policy, &power).unwrap();
                let energy = r.power.map(|p| p.energy);
                black_box((energy, r.run.metrics.avg_bsld))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
