//! Figure 4: the fragmentation experiment — decentralized solve from the
//! integral placement `(0, 0, 0, 1)`, versus the integral baseline and the
//! closed-form reference solver.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_bench::paper;
use fap_core::{baseline, reference};
use fap_econ::{BoundaryRule, ResourceDirectedOptimizer, StepSize};
use fap_obs::NoopRecorder;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_fragmentation");
    let problem = paper::ring_problem();

    group.bench_function("decentralized_from_integral", |b| {
        b.iter(|| {
            ResourceDirectedOptimizer::new(StepSize::Fixed(0.3))
                .with_boundary(BoundaryRule::Unconstrained)
                .with_epsilon(paper::EPSILON)
                .run(black_box(&problem), black_box(&[0.0, 0.0, 0.0, 1.0]), &mut NoopRecorder)
                .expect("run succeeds")
                .final_cost()
        });
    });
    group.bench_function("integral_baseline", |b| {
        b.iter(|| baseline::best_single_node(black_box(&problem)).expect("placement").cost);
    });
    group.bench_function("waterfilling_reference", |b| {
        b.iter(|| reference::solve(black_box(&problem)).expect("solves").cost);
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
