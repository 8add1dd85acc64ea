//! Figure 9: oscillation versus step size on the communication-dominated
//! ring — α = 0.1 against α = 0.05, plus the adaptive-decay solver the
//! paper proposes as the remedy.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_bench::experiments::fig8_ring;
use fap_obs::NoopRecorder;
use fap_ring::RingSolver;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_oscillation");
    group.sample_size(20);
    let ring = fig8_ring(vec![4.0, 1.0, 1.0, 1.0]);
    for alpha in [0.1, 0.05] {
        group.bench_function(format!("fixed_alpha_{alpha}"), |b| {
            b.iter(|| {
                RingSolver::new(alpha)
                    .without_adaptation()
                    .with_max_iterations(160)
                    .solve(black_box(&ring), black_box(&[2.0, 0.0, 0.0, 0.0]), &mut NoopRecorder)
                    .expect("solve runs")
                    .oscillation_amplitude()
            });
        });
    }
    group.bench_function("adaptive_decay", |b| {
        b.iter(|| {
            RingSolver::new(0.1)
                .with_max_iterations(3_000)
                .solve(black_box(&ring), black_box(&[2.0, 0.0, 0.0, 0.0]), &mut NoopRecorder)
                .expect("solve runs")
                .converged
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
