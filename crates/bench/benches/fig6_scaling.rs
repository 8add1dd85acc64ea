//! Figure 6: problem-size scaling — solve time on fully connected networks
//! of growing size at a good fixed α (the figure's claim is that iteration
//! counts barely grow with N).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_bench::paper;
use fap_econ::{BoundaryRule, ResourceDirectedOptimizer, StepSize};
use fap_obs::NoopRecorder;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_scaling");
    for n in [4usize, 8, 12, 16, 20] {
        let problem = paper::full_mesh_problem(n);
        let start = paper::spread_start(n);
        group.bench_function(format!("n_{n}"), |b| {
            b.iter(|| {
                let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.4))
                    .with_boundary(BoundaryRule::Unconstrained)
                    .with_epsilon(paper::EPSILON)
                    .run(black_box(&problem), black_box(&start), &mut NoopRecorder)
                    .expect("run succeeds");
                assert!(s.converged);
                s.iterations
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
