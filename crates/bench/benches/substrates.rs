//! Substrate micro-benchmarks: the building blocks whose speed bounds how
//! large a system the reproduction can handle — all-pairs routing, one
//! reallocation step, one gradient evaluation, and discrete-event
//! simulation throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_batch::Parallelism;
use fap_core::SingleFileProblem;
use fap_econ::projection::{compute_step, BoundaryRule};
use fap_econ::AllocationProblem;
use fap_net::{topology, AccessPattern};
use fap_obs::NoopRecorder;
use fap_queue::{NetworkSimulation, ServiceDistribution};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");

    for n in [16usize, 64, 256] {
        let graph = topology::random_connected(n, 0.1, 1.0..4.0, 7).expect("valid graph");
        group.bench_function(format!("all_pairs_dijkstra_n{n}"), |b| {
            b.iter(|| {
                black_box(&graph)
                    .shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)
                    .expect("connected")
            });
        });
    }

    for n in [16usize, 256] {
        let graph = topology::random_connected(n, 0.1, 1.0..4.0, 7).expect("valid graph");
        let pattern = AccessPattern::uniform(n, 1.0).expect("valid pattern");
        let problem =
            SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).expect("valid problem");
        let x = vec![1.0 / n as f64; n];
        let mut g = vec![0.0; n];
        let w = vec![1.0; n];
        group.bench_function(format!("gradient_evaluation_n{n}"), |b| {
            b.iter(|| problem.marginal_utilities(black_box(&x), &mut g));
        });
        problem.marginal_utilities(&x, &mut g).expect("stable point");
        group.bench_function(format!("reallocation_step_n{n}"), |b| {
            b.iter(|| {
                compute_step(black_box(&x), black_box(&g), &w, 0.1, BoundaryRule::ClampToZero)
            });
        });
    }

    {
        let graph = topology::ring(8, 1.0).expect("valid ring");
        let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)
            .expect("connected");
        let pattern = AccessPattern::uniform(8, 1.0).expect("valid pattern");
        let service = ServiceDistribution::exponential(1.5).expect("valid service");
        let sim = NetworkSimulation::new(vec![0.125; 8], pattern, costs, service)
            .expect("valid simulation")
            .with_duration(10_000.0);
        group.bench_function("des_10k_time_units_8_nodes", |b| {
            b.iter(|| black_box(&sim).run().expect("simulation runs").accesses_measured);
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
