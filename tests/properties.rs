//! Workspace-level property tests: the paper's Theorem 1 (feasibility),
//! Theorem 2 (monotonicity), and optimality claims, on randomized networks
//! and workloads rather than fixtures.

use fap::prelude::*;
use proptest::prelude::*;

/// Builds a random solvable problem from a seed.
fn random_problem(seed: u64, n: usize, k: f64) -> SingleFileProblem {
    let graph = topology::random_connected(n, 0.5, 1.0..4.0, seed).unwrap();
    let pattern = AccessPattern::random(n, 0.1..0.5, seed + 1).unwrap();
    SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.8, k).unwrap()
}

/// A random start on the simplex (deterministic per seed).
fn random_start(seed: u64, n: usize) -> Vec<f64> {
    // A crude but deterministic spread: weights i+1 rotated by seed.
    let mut w: Vec<f64> = (0..n).map(|i| ((i as u64 + seed) % n as u64 + 1) as f64).collect();
    let sum: f64 = w.iter().sum();
    for v in w.iter_mut() {
        *v /= sum;
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorems 1 & 2 on random problems: every iterate feasible, cost
    /// strictly monotone for a conservative step size.
    #[test]
    fn feasibility_and_monotonicity(seed in 0u64..500, n in 3usize..9, k in 0.2f64..2.0) {
        let p = random_problem(seed, n, k);
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.02))
            .with_epsilon(1e-6)
            .with_recorded_allocations()
            .with_max_iterations(100_000)
            .run(&p, &random_start(seed, n), &mut NoopRecorder)
            .unwrap();
        prop_assert!(s.trace.is_cost_monotone_decreasing(1e-9));
        for x in s.trace.recorded_allocations() {
            prop_assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-7);
            prop_assert!(x.iter().all(|v| *v >= -1e-9));
        }
    }

    /// The decentralized algorithm lands on the water-filling optimum
    /// regardless of the starting allocation (§5.1: the initial allocation
    /// "will in no way effect the optimality of the final allocation").
    #[test]
    fn optimum_is_start_independent(seed in 0u64..200, n in 3usize..8) {
        let p = random_problem(seed, n, 1.0);
        let exact = reference::solve(&p).unwrap();
        for start_seed in [seed, seed + 7] {
            let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.04))
                .with_epsilon(1e-8)
                .with_max_iterations(300_000)
                .run(&p, &random_start(start_seed, n), &mut NoopRecorder)
                .unwrap();
            prop_assert!(s.converged);
            prop_assert!((s.final_cost() - exact.cost).abs() < 1e-4,
                "cost {} vs exact {}", s.final_cost(), exact.cost);
        }
    }

    /// The distributed protocol (message passing, local marginals only)
    /// reproduces the centralized trajectory exactly on random problems.
    #[test]
    fn protocol_equals_centralized(seed in 0u64..200, n in 3usize..8) {
        let p = random_problem(seed, n, 1.0);
        let x0 = random_start(seed, n);
        let a = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.05)
            .with_epsilon(1e-6)
            .with_max_rounds(100_000)
            .run(&x0)
            .unwrap();
        let b = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-6)
            .with_max_iterations(100_000)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        prop_assert_eq!(a.allocation, b.allocation);
        prop_assert_eq!(a.rounds, b.iterations);
    }

    /// Dynamic step sizing (the appendix remark) converges on random
    /// problems and never breaks monotonicity.
    #[test]
    fn dynamic_step_is_safe(seed in 0u64..200, n in 3usize..8) {
        let p = random_problem(seed, n, 1.0);
        let s = ResourceDirectedOptimizer::new(StepSize::Dynamic { safety: 0.8, max: 5.0 })
            .with_epsilon(1e-7)
            .with_max_iterations(50_000)
            .run(&p, &random_start(seed, n), &mut NoopRecorder)
            .unwrap();
        prop_assert!(s.converged);
        prop_assert!(s.trace.is_cost_monotone_decreasing(1e-8));
    }

    /// Feasibility under arbitrary chaos (Theorem 1 on a faulty network):
    /// whatever the channel drops, delays or duplicates, and whoever
    /// crashes or rejoins, every iterate the simulator visits stays on the
    /// simplex.
    #[test]
    fn chaos_iterates_stay_feasible(
        seed in 0u64..500,
        n in 3usize..7,
        drop in 0.0f64..0.5,
        dup in 0.0f64..0.3,
        delay_prob in 0.0f64..0.5,
        max_delay in 1u32..4,
        staleness in 0u32..5,
        retries in 0u32..3,
        crash_round in 1usize..30,
    ) {
        let p = random_problem(seed, n, 1.0);
        let mut plan = ChaosPlan::new(seed)
            .with_drop(drop)
            .with_duplication(dup)
            .with_delay(delay_prob, max_delay)
            .with_staleness_bound(staleness)
            .with_retries(retries);
        // Every other case also kills (and later revives) one agent.
        if seed % 2 == 0 {
            let victim = (seed as usize) % n;
            plan = plan.crash(crash_round, victim).rejoin(crash_round + 10, victim);
        }
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.05)
            .with_epsilon(1e-6)
            .with_max_rounds(2_000)
            .with_chaos(plan)
            .run(&random_start(seed, n), &mut NoopRecorder)
            .unwrap();
        for it in &r.iterates {
            let sum: f64 = it.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "iterate sum {sum}");
            prop_assert!(it.iter().all(|v| *v >= -1e-9), "negative fragment in {it:?}");
        }
    }

    /// Theorem 2 survives the faults it can survive: across every round
    /// whose step used only fresh reports and whose successor saw no
    /// crash/rejoin, utility does not decrease.
    #[test]
    fn chaos_clean_rounds_never_lose_utility(
        seed in 0u64..500,
        n in 3usize..7,
        drop in 0.0f64..0.4,
        staleness in 0u32..4,
        retries in 0u32..3,
    ) {
        let p = random_problem(seed, n, 1.0);
        let plan = ChaosPlan::new(seed)
            .with_drop(drop)
            .with_staleness_bound(staleness)
            .with_retries(retries);
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.02)
            .with_epsilon(1e-6)
            .with_max_rounds(2_000)
            .with_chaos(plan)
            .run(&random_start(seed, n), &mut NoopRecorder)
            .unwrap();
        let records = r.trace.records();
        for k in 0..r.rounds {
            if r.fresh_rounds[k] && !r.membership_rounds[k + 1] {
                prop_assert!(
                    records[k + 1].utility >= records[k].utility - 1e-9,
                    "clean round {k} lost utility: {} -> {}",
                    records[k].utility,
                    records[k + 1].utility,
                );
            }
        }
    }

    /// Ring coverage/cost invariants under random feasible multi-copy
    /// allocations: the solver never loses or creates file mass.
    #[test]
    fn ring_solver_preserves_copies(seed in 0u64..100, n in 4usize..8) {
        let copies = 2.0;
        let link_costs: Vec<f64> = (0..n).map(|i| 1.0 + ((i as u64 + seed) % 3) as f64).collect();
        let ring = VirtualRing::new(link_costs, vec![0.2; n], vec![2.0; n], copies, 1.0).unwrap();
        let mut start = vec![0.0; n];
        start[seed as usize % n] = copies;
        let s = RingSolver::new(0.05)
            .with_max_iterations(400)
            .solve(&ring, &start, &mut NoopRecorder)
            .unwrap();
        let total: f64 = s.final_allocation.iter().sum();
        prop_assert!((total - copies).abs() < 1e-6);
        prop_assert!(s.final_allocation.iter().all(|v| *v >= -1e-9));
        prop_assert!(s.best_cost <= s.cost_series[0] + 1e-12);
    }
}
