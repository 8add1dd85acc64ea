//! The hysteresis fixed-point property, end to end: a tracking optimizer
//! with any positive movement penalty η must be *anchor-transparent* —
//! when the workload does not drift, the tracked allocation is exactly
//! the unpenalized optimum (the Huber-smoothed penalty's gradient
//! vanishes at the anchor), re-solves terminate immediately, and no
//! fragment mass moves. On random topologies and workloads, not fixtures.
//! CI runs this suite in release mode alongside the drift bench check.

use fap::prelude::*;
use proptest::prelude::*;

/// Builds a random solvable problem from a seed.
fn random_problem(seed: u64, n: usize) -> SingleFileProblem {
    let graph = topology::random_connected(n, 0.5, 1.0..4.0, seed).unwrap();
    let pattern = AccessPattern::random(n, 0.1..0.5, seed + 1).unwrap();
    SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.8, 1.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero drift ⇒ zero movement: re-tracking the SAME problem under any
    /// η > 0 stays at the unpenalized optimum within 1e-12, spends no
    /// iterations, and reports (essentially) no movement. Hysteresis may
    /// only dampen *responses to change*, never distort the destination.
    #[test]
    fn zero_drift_fixed_point_is_the_unpenalized_optimum(
        seed in 0u64..200,
        n in 3usize..9,
        eta in 1e-4f64..0.5,
    ) {
        let problem = random_problem(seed, n);
        let optimizer = ResourceDirectedOptimizer::new(StepSize::Fixed(0.03))
            .with_epsilon(1e-9)
            .with_max_iterations(300_000);
        let initial = vec![1.0 / n as f64; n];
        let cold = optimizer.run(&problem, &initial, &mut NoopRecorder).unwrap();
        prop_assert!(cold.converged);

        let mut tracker = TrackingOptimizer::new(optimizer, eta).unwrap();
        let first = tracker.track(&problem, &initial, &mut NoopRecorder).unwrap();
        prop_assert!(first.converged);
        prop_assert!(!first.warm, "epoch 0 solves cold");
        prop_assert!(
            (first.true_utility - cold.final_utility).abs() <= 1e-12,
            "the first tracked epoch is the cold solve: {} vs {}",
            first.true_utility, cold.final_utility
        );

        let second = tracker.track(&problem, &initial, &mut NoopRecorder).unwrap();
        prop_assert!(second.warm && second.converged);
        prop_assert!(
            second.iterations == 0,
            "an already-optimal anchor must certify before any step, took {}",
            second.iterations
        );
        prop_assert!(second.movement <= 1e-12, "moved {}", second.movement);
        prop_assert!(
            (second.true_utility - cold.final_utility).abs() <= 1e-12,
            "tracked fixed point drifted: {} vs cold {} at eta {}",
            second.true_utility, cold.final_utility, eta
        );
        for (tracked, anchor) in second.allocation.iter().zip(&first.allocation) {
            prop_assert!(
                (tracked - anchor).abs() <= 1e-12,
                "allocation moved under zero drift: {} vs {}", tracked, anchor
            );
        }
    }
}
