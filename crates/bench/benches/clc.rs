//! Performance and ablation benches for the timestamp-correction
//! algorithms: the CLC across trace sizes, forward amortization factor,
//! backward amortization on/off, and the classic baselines on the same
//! corpus.
//!
//! `clc_scaling/serial`, `clc_ablations` and `clc_variants` call the public
//! `controlled_logical_clock*` functions, so each iteration times the whole
//! lowering — match, lower, gather, the CSR kernel, scatter — not the
//! kernel alone (`engine`'s `clc/` group times the pipeline stage).

use bench::{lmin_table, skewed_trace};
use clocksync::baselines::babaoglu::{full_exchange_maps, FullExchangeFit};
use clocksync::baselines::jezequel::spanning_tree_maps;
use clocksync::{
    controlled_logical_clock, controlled_logical_clock_with_domains, ClcParams,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_clc_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("clc_scaling");
    g.sample_size(10);
    for &(ranks, iters) in &[(8usize, 100u32), (16, 200), (32, 300)] {
        let (cluster, trace) = skewed_trace(ranks, iters, 11);
        let lmin = lmin_table(&cluster, ranks);
        let events = trace.n_events() as u64;
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(
            BenchmarkId::new("serial", format!("{ranks}r_{events}ev")),
            &trace,
            |b, t| {
                b.iter(|| {
                    let mut t = t.clone();
                    controlled_logical_clock(&mut t, &lmin, &ClcParams::default()).unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_clc_ablations(c: &mut Criterion) {
    let (cluster, trace) = skewed_trace(16, 150, 13);
    let lmin = lmin_table(&cluster, 16);
    let mut g = c.benchmark_group("clc_ablations");
    g.sample_size(10);
    for (name, params) in [
        ("mu_1.00_no_backward", ClcParams { mu: 1.0, backward: false, ..Default::default() }),
        ("mu_0.99_no_backward", ClcParams { mu: 0.99, backward: false, ..Default::default() }),
        ("mu_0.90_no_backward", ClcParams { mu: 0.90, backward: false, ..Default::default() }),
        ("mu_0.99_backward", ClcParams::default()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut t = trace.clone();
                controlled_logical_clock(&mut t, &lmin, &params).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let (cluster, trace) = skewed_trace(16, 150, 17);
    let lmin = lmin_table(&cluster, 16);
    let mut g = c.benchmark_group("baselines");
    g.sample_size(10);
    g.bench_function("jezequel_spanning_tree", |b| {
        b.iter(|| {
            let m = tracefmt::match_messages(&trace);
            spanning_tree_maps(&trace, &m, &lmin, 0).unwrap()
        })
    });
    g.bench_function("babaoglu_full_exchange", |b| {
        b.iter(|| {
            let insts = tracefmt::match_collectives(&trace).unwrap();
            full_exchange_maps(&trace, &insts, &lmin, 0, FullExchangeFit::Piecewise(8)).unwrap()
        })
    });
    g.finish();
}

fn bench_clc_variants(c: &mut Criterion) {
    let (cluster, trace) = skewed_trace(16, 150, 19);
    let lmin = lmin_table(&cluster, 16);
    let domains: Vec<usize> = (0..16).map(|p| p / 4).collect();
    let mut g = c.benchmark_group("clc_variants");
    g.sample_size(10);
    g.bench_function("domain_aware", |b| {
        b.iter(|| {
            let mut t = trace.clone();
            controlled_logical_clock_with_domains(
                &mut t,
                &lmin,
                &ClcParams::default(),
                &domains,
            )
            .unwrap()
        })
    });
    g.bench_function("pomp_openmp_trace", |b| {
        let pomp_trace = workloads::run_benchmark(8, 100, 23);
        b.iter(|| {
            let mut t = pomp_trace.clone();
            clocksync::controlled_logical_clock_pomp(
                &mut t,
                simclock::Dur::from_ns(100),
                &ClcParams::default(),
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_clc_scaling,
    bench_clc_ablations,
    bench_baselines,
    bench_clc_variants
);
criterion_main!(benches);
