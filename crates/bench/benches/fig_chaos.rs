//! Chaos overhead: the §6 ring solved by the simulated protocol under
//! increasingly hostile fault plans, against the fault-free baseline.
//! Measures what the fault machinery itself costs and what drops, delays
//! and a mid-run crash do to time-to-convergence.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_bench::paper;
use fap_obs::NoopRecorder;
use fap_runtime::{ChaosPlan, ExchangeScheme, SimRun};

const ALPHA: f64 = 0.19;

fn plans() -> Vec<(&'static str, ChaosPlan)> {
    vec![
        ("zero_fault", ChaosPlan::new(42)),
        (
            "lossy_10pct",
            ChaosPlan::new(42).with_drop(0.1).with_staleness_bound(2).with_retries(1),
        ),
        (
            "hostile",
            ChaosPlan::new(42)
                .with_drop(0.25)
                .with_duplication(0.1)
                .with_delay(0.3, 2)
                .with_staleness_bound(2)
                .with_retries(2),
        ),
        (
            "crash_rejoin",
            ChaosPlan::new(42)
                .with_drop(0.1)
                .with_staleness_bound(2)
                .with_retries(1)
                .crash(5, 2)
                .rejoin(15, 2),
        ),
    ]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_chaos");
    let problem = paper::ring_problem();

    // The fault-free reference point: the plain round executor.
    group.bench_function("round_executor_baseline", |b| {
        b.iter(|| {
            let r = fap_runtime::DistributedRun::new(&problem, ExchangeScheme::Broadcast, ALPHA)
                .with_epsilon(paper::EPSILON)
                .with_max_rounds(100_000)
                .run(black_box(&paper::START))
                .expect("run succeeds");
            assert!(r.converged);
            r.rounds
        });
    });

    for (label, plan) in plans() {
        group.bench_function(label, |b| {
            b.iter(|| {
                let r = SimRun::new(&problem, ExchangeScheme::Broadcast, ALPHA)
                    .with_epsilon(paper::EPSILON)
                    .with_max_rounds(100_000)
                    .with_chaos(black_box(plan.clone()))
                    .run(black_box(&paper::START), &mut NoopRecorder)
                    .expect("run succeeds");
                assert!(r.converged);
                (r.rounds, r.faults.dropped)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
