//! Figure 8: multi-copy virtual-ring solves — the communication-dominated
//! ring (link costs 4,1,1,1) versus the delay-dominated unit ring, m = 2.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_bench::experiments::fig8_ring;
use fap_obs::NoopRecorder;
use fap_ring::RingSolver;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_multicopy");
    group.sample_size(20);
    for (label, costs) in [
        ("comm_dominated", vec![4.0, 1.0, 1.0, 1.0]),
        ("delay_dominated", vec![1.0, 1.0, 1.0, 1.0]),
    ] {
        let ring = fig8_ring(costs);
        group.bench_function(label, |b| {
            b.iter(|| {
                RingSolver::new(0.1)
                    .without_adaptation()
                    .with_max_iterations(120)
                    .solve(black_box(&ring), black_box(&[2.0, 0.0, 0.0, 0.0]), &mut NoopRecorder)
                    .expect("solve runs")
                    .best_cost
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
