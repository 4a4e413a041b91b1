//! Simulator-core performance: end-to-end MPI simulation throughput
//! (events per second) — and the collective side of the synchronisation
//! pipeline in isolation (`lower`, `plan`, `clc`).

use bench::{lmin_table, ring_program, xeon_cluster};
use clocksync::{synchronize, ClcParams, DepGraph, PipelineConfig, PreSync, TraceAnalysis};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mpisim::{run, RunOptions};
use simclock::Time;
use std::time::Duration;
use tracefmt::{CensusPlan, CollOp, CommId, EventKind, Rank, Tag, Trace};

fn bench_simulation_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    let prog = ring_program(16, 200);
    let ops = prog.n_ops() as u64;
    g.throughput(Throughput::Elements(ops));
    g.bench_function("ring_16r_200it", |b| {
        b.iter(|| {
            let mut cluster = xeon_cluster(2, 16, 30.0, 3);
            run(&mut cluster, &prog, &RunOptions::default()).unwrap().stats.events
        })
    });
    g.finish();
}

fn bench_probing(c: &mut Criterion) {
    let mut g = c.benchmark_group("probing");
    g.bench_function("probe_31_workers_20rounds", |b| {
        b.iter(|| {
            let mut cluster = xeon_cluster(4, 32, 30.0, 5);
            mpisim::probe_all_workers(
                &mut cluster,
                tracefmt::Rank(0),
                20,
                Time::ZERO,
                simclock::Dur::from_us(100),
            )
        })
    });
    g.finish();
}

/// The communication structure of the POP-like headline run: `ranks`
/// processes, `steps` time steps of a four-neighbour halo exchange, each
/// followed by a world allreduce when `allreduces`. Only event order
/// matters to `lower`, `plan` and the cost of a CLC pass, so timestamps
/// just count up.
fn pop_trace(ranks: usize, steps: usize, allreduces: bool) -> Trace {
    let mut t = Trace::for_ranks(ranks);
    let mut now = 0i64;
    for step in 0..steps {
        for (h, hop) in [1, ranks - 1, 4, ranks - 4].into_iter().enumerate() {
            let tag = Tag((4 * step + h) as u32);
            for p in 0..ranks {
                now += 1;
                let to = Rank(((p + hop) % ranks) as u32);
                t.procs[p].push(Time::from_us(now), EventKind::Send { to, tag, bytes: 512 });
            }
            for p in 0..ranks {
                now += 1;
                let from = Rank(((p + ranks - hop) % ranks) as u32);
                t.procs[p].push(Time::from_us(now), EventKind::Recv { from, tag, bytes: 512 });
            }
        }
        if !allreduces {
            continue;
        }
        let (op, comm, root, bytes) = (CollOp::Allreduce, CommId::WORLD, None, 8);
        for p in 0..ranks {
            now += 1;
            t.procs[p].push(Time::from_us(now), EventKind::CollBegin { op, comm, root, bytes });
        }
        for p in 0..ranks {
            now += 1;
            t.procs[p].push(Time::from_us(now), EventKind::CollEnd { op, comm, root, bytes });
        }
    }
    t
}

/// `lower` and `plan` on 32 ranks × 600 allreduces under the cluster's
/// hierarchical per-pair latency: 595 200 of the 672 000 constraints are
/// collective. Both stages must stay linear in members, not in logical
/// messages; `-- --test` runs each once.
fn bench_collective_lowering(c: &mut Criterion) {
    let (ranks, steps) = (32, 600);
    let trace = pop_trace(ranks, steps, true);
    let cluster = xeon_cluster(4, ranks, 30.0, 7);
    let lmin = lmin_table(&cluster, ranks);
    let analysis = TraceAnalysis::capture(&trace).expect("well-formed trace");
    let lens: Vec<usize> = trace.procs.iter().map(|p| p.events.len()).collect();
    let constraints = (steps * (4 * ranks + ranks * (ranks - 1))) as u64;

    let mut g = c.benchmark_group("lower");
    g.throughput(Throughput::Elements(constraints));
    g.bench_function("pop_allreduce", |b| {
        b.iter(|| {
            let graph = DepGraph::build(&analysis.matching, &analysis.instances, &lens, &lmin);
            assert_eq!(graph.n_edges() as u64, constraints);
            graph
        })
    });
    g.finish();

    let mut g = c.benchmark_group("plan");
    g.throughput(Throughput::Elements(constraints));
    g.bench_function("pop_allreduce", |b| {
        b.iter(|| {
            CensusPlan::build(&lens, &analysis.matching.messages, &analysis.instances, &lmin)
                .expect("plan builds")
        })
    });
    g.finish();
}

/// The `clc` stage of the serial pipeline, per event, on the POP program
/// with and without its allreduces (`scripts/ci.sh` gates the ratio). An
/// allreduce end is bounded by 31 begins; evaluated per logical edge that
/// makes the program with allreduces several times dearer per event than
/// its halo exchange alone, evaluated per instance it costs about the same.
/// Only the stage's own time counts (`iter_custom` sums it from the
/// pipeline's stage table).
fn bench_clc_collectives(c: &mut Criterion) {
    let (ranks, steps) = (32, 600);
    let cluster = xeon_cluster(4, ranks, 30.0, 7);
    let lmin = lmin_table(&cluster, ranks);
    let cfg = PipelineConfig {
        presync: PreSync::None,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let init = vec![None; ranks];
    let mut g = c.benchmark_group("clc");
    for (name, allreduces) in [("pop_allreduce", true), ("pop_halo_only", false)] {
        let trace = pop_trace(ranks, steps, allreduces);
        g.throughput(Throughput::Elements(trace.n_events() as u64));
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut in_clc = 0.0;
                for _ in 0..iters {
                    let mut t = trace.clone();
                    let report = synchronize(&mut t, &init, None, &lmin, &cfg).expect("pipeline");
                    in_clc += report.stats.stages.iter().find(|s| s.name == "clc").expect("clc ran").seconds;
                }
                Duration::from_secs_f64(in_clc)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_simulation_throughput,
    bench_probing,
    bench_collective_lowering,
    bench_clc_collectives
);
criterion_main!(benches);
