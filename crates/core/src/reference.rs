//! Centralized closed-form reference solver.
//!
//! The paper's objective is convex, so its optimum is characterized by the
//! KKT conditions derived in §5.3: all nodes with `x_i > 0` share a common
//! marginal cost `q`, and nodes at `x_i = 0` have marginal cost at least
//! `q`. For M/M/1 nodes the marginal cost
//! `∂C/∂x_i = C_i + k μ_i/(μ_i − λ x_i)²` inverts in closed form, giving a
//! water-filling solution: bisect on the common level `q` until the
//! allocation sums to one. This is the ground truth the decentralized
//! algorithm is tested against throughout the workspace.

use serde::{Deserialize, Serialize};

use fap_queue::Mm1Delay;

use crate::error::CoreError;
use crate::single::SingleFileProblem;

/// The optimum computed by the centralized solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceSolution {
    /// The optimal allocation.
    pub allocation: Vec<f64>,
    /// The common marginal cost `q` (the Lagrange multiplier of
    /// `Σ x_i = 1`).
    pub multiplier: f64,
    /// The optimal cost `C(x*)`.
    pub cost: f64,
}

/// Solves the single-file M/M/1 problem exactly by water-filling.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] when `k = 0` (the objective is
/// then linear and the optimum is the degenerate all-at-the-cheapest-node
/// allocation — use [`crate::baseline::best_single_node`] instead) and
/// [`CoreError::Econ`] if the final allocation fails to evaluate.
pub fn solve(problem: &SingleFileProblem<Mm1Delay>) -> Result<ReferenceSolution, CoreError> {
    let k = problem.k();
    if k == 0.0 {
        return Err(CoreError::InvalidParameter(
            "k = 0 makes the objective linear; the optimum is integral".into(),
        ));
    }
    let n = problem.node_count();
    let lambda = problem.total_rate();
    let costs = problem.access_costs();
    let mus: Vec<f64> = problem.delays().iter().map(Mm1Delay::service_rate).collect();

    // x_i(q): the allocation at which node i's marginal cost equals q.
    let x_of = |i: usize, q: f64| -> f64 {
        let floor = costs[i] + k / mus[i]; // marginal cost at x = 0
        if q <= floor {
            0.0
        } else {
            (mus[i] - (k * mus[i] / (q - costs[i])).sqrt()) / lambda
        }
    };
    let total_of = |q: f64| -> f64 { (0..n).map(|i| x_of(i, q)).sum() };

    // Bracket q: at the smallest zero-allocation level the total is 0; grow
    // until the total reaches 1 (guaranteed since Σ μ_i > λ).
    let mut lo = (0..n).map(|i| costs[i] + k / mus[i]).fold(f64::INFINITY, f64::min);
    let mut hi = lo.max(1.0) * 2.0;
    let mut guard = 0;
    while total_of(hi) < 1.0 {
        hi *= 2.0;
        guard += 1;
        if guard > 200 {
            return Err(CoreError::InvalidParameter(
                "failed to bracket the water-filling level".into(),
            ));
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if total_of(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let q = 0.5 * (lo + hi);
    let mut allocation: Vec<f64> = (0..n).map(|i| x_of(i, q)).collect();
    // Remove the bisection residue so the result is exactly feasible.
    let sum: f64 = allocation.iter().sum();
    let positive = allocation.iter().filter(|x| **x > 0.0).count().max(1);
    let correction = (1.0 - sum) / positive as f64;
    for x in allocation.iter_mut() {
        if *x > 0.0 {
            *x += correction;
        }
    }
    let cost = problem.cost_of(&allocation)?;
    Ok(ReferenceSolution { allocation, multiplier: q, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_econ::problem::AllocationProblem;
    use fap_econ::{ResourceDirectedOptimizer, StepSize};
    use fap_net::{topology, AccessPattern};
    use fap_obs::NoopRecorder;
    use proptest::prelude::*;

    #[test]
    fn symmetric_ring_waterfills_to_even_split() {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        let p = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
        let r = solve(&p).unwrap();
        for x in &r.allocation {
            assert!((x - 0.25).abs() < 1e-9, "{:?}", r.allocation);
        }
        assert!((r.cost - 1.8).abs() < 1e-9);
        // Multiplier = common marginal cost = 1 + 1.5/1.25² = 1.96.
        assert!((r.multiplier - (1.0 + 1.5 / (1.25 * 1.25))).abs() < 1e-6);
    }

    #[test]
    fn rejects_zero_k() {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        let p = SingleFileProblem::mm1(&graph, &pattern, 1.5, 0.0).unwrap();
        assert!(matches!(solve(&p), Err(CoreError::InvalidParameter(_))));
    }

    #[test]
    fn expensive_node_gets_nothing() {
        // Node 0 is so costly to reach that the optimum excludes it.
        let p = SingleFileProblem::from_parts(
            vec![50.0, 0.0, 0.0],
            1.0,
            vec![fap_queue::Mm1Delay::new(1.5).unwrap(); 3],
            1.0,
        )
        .unwrap();
        let r = solve(&p).unwrap();
        assert_eq!(r.allocation[0], 0.0);
        assert!((r.allocation[1] - 0.5).abs() < 1e-9);
        assert!((r.allocation[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn matches_decentralized_algorithm() {
        let graph = topology::random_connected(6, 0.4, 1.0..4.0, 11).unwrap();
        let pattern = AccessPattern::random(6, 0.1..0.4, 11).unwrap();
        let p =
            SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.5, 0.8).unwrap();
        let r = solve(&p).unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-9)
            .with_max_iterations(200_000)
            .run(&p, &[1.0 / 6.0; 6], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        assert!((s.final_cost() - r.cost).abs() < 1e-5, "{} vs {}", s.final_cost(), r.cost);
        for (a, b) in s.allocation.iter().zip(&r.allocation) {
            assert!((a - b).abs() < 1e-3, "{:?} vs {:?}", s.allocation, r.allocation);
        }
    }

    #[test]
    fn heterogeneous_rates_waterfill_correctly() {
        let graph = topology::full_mesh(3, 1.0).unwrap();
        let pattern = AccessPattern::uniform(3, 1.0).unwrap();
        let p =
            SingleFileProblem::mm1_heterogeneous(&graph, &pattern, &[4.0, 2.0, 2.0], 1.0).unwrap();
        let r = solve(&p).unwrap();
        assert!((r.allocation.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(r.allocation[0] > r.allocation[1]);
        // Marginal costs equal at the optimum (for positive entries).
        let mut g = vec![0.0; 3];
        p.marginal_utilities(&r.allocation, &mut g).unwrap();
        for (gi, xi) in g.iter().zip(&r.allocation) {
            if *xi > 0.0 {
                assert!((-gi - r.multiplier).abs() < 1e-5);
            }
        }
    }

    proptest! {
        /// The water-filling solution is feasible, satisfies the KKT
        /// conditions, and is no worse than a basket of heuristic feasible
        /// allocations.
        #[test]
        fn waterfilling_is_optimal(seed in 0u64..40, n in 3usize..8, k in 0.2f64..2.0) {
            let graph = topology::random_connected(n, 0.5, 1.0..3.0, seed).unwrap();
            let pattern = AccessPattern::random(n, 0.1..0.5, seed + 1).unwrap();
            let p = SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.6, k).unwrap();
            let r = solve(&p).unwrap();
            let sum: f64 = r.allocation.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(r.allocation.iter().all(|x| *x >= 0.0));

            let mut g = vec![0.0; n];
            p.marginal_utilities(&r.allocation, &mut g).unwrap();
            for (gi, xi) in g.iter().zip(&r.allocation) {
                let mc = -gi;
                if *xi > 1e-9 {
                    prop_assert!((mc - r.multiplier).abs() < 1e-4);
                } else {
                    prop_assert!(mc >= r.multiplier - 1e-6);
                }
            }

            // No feasible comparison point beats it.
            let even = vec![1.0 / n as f64; n];
            prop_assert!(r.cost <= p.cost_of(&even).unwrap() + 1e-9);
            for i in 0..n {
                // Whole file at node i, when stable.
                let mut conc = vec![0.0; n];
                conc[i] = 1.0;
                if let Ok(c) = p.cost_of(&conc) {
                    prop_assert!(r.cost <= c + 1e-9);
                }
            }
        }
    }
}
