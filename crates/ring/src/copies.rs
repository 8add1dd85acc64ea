//! How many copies are optimal? (paper §8.2, future work)
//!
//! "The most salient issue is: how many copies are optimal for the system?
//! i.e. what is the best value of m? … Furthermore, the cost of storage and
//! copy maintenance will affect the optimal number of copies."
//!
//! [`sweep_copies`] answers the question the way the paper frames it: for
//! each candidate `m`, solve the allocation problem (access + delay cost)
//! and add a per-copy storage/maintenance cost `σ·m`; the optimum trades
//! shorter ring walks against the standing cost of holding more copies.

use serde::{Deserialize, Serialize};

use fap_obs::NoopRecorder;

use crate::error::RingError;
use crate::layout::VirtualRing;
use crate::solver::RingSolver;

/// The outcome at one candidate copy count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CopySweepPoint {
    /// Copy count `m` evaluated.
    pub copies: f64,
    /// Best access + delay cost the solver found.
    pub access_cost: f64,
    /// `access_cost + per_copy_cost · m` — the figure of merit.
    pub total_cost: f64,
    /// The best allocation found.
    pub allocation: Vec<f64>,
    /// Whether the solver's halting rule fired (as opposed to the cap).
    pub converged: bool,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CopySweep {
    /// One point per candidate `m`, in input order.
    pub points: Vec<CopySweepPoint>,
    /// Index into [`CopySweep::points`] of the total-cost minimizer.
    pub best: usize,
}

impl CopySweep {
    /// The winning point.
    pub fn best_point(&self) -> &CopySweepPoint {
        &self.points[self.best]
    }
}

/// Sweeps candidate copy counts on a ring family sharing `link_costs`,
/// `lambdas`, `mus` and `k`, charging `per_copy_cost` per copy held.
///
/// Each candidate starts from the even split `m/N` (the natural warm
/// start; the §7.3 solver handles the rest).
///
/// # Errors
///
/// Returns [`RingError::InvalidParameter`] for an empty candidate list, a
/// negative per-copy cost, or invalid ring parameters, and propagates
/// solver failures.
#[allow(clippy::too_many_arguments)]
pub fn sweep_copies(
    link_costs: &[f64],
    lambdas: &[f64],
    mus: &[f64],
    k: f64,
    per_copy_cost: f64,
    candidates: &[f64],
    solver: &RingSolver,
) -> Result<CopySweep, RingError> {
    if candidates.is_empty() {
        return Err(RingError::InvalidParameter("no candidate copy counts".into()));
    }
    if !per_copy_cost.is_finite() || per_copy_cost < 0.0 {
        return Err(RingError::InvalidParameter(format!(
            "per-copy cost {per_copy_cost} must be non-negative"
        )));
    }
    let n = link_costs.len();
    let mut points = Vec::with_capacity(candidates.len());
    for &m in candidates {
        let ring =
            VirtualRing::new(link_costs.to_vec(), lambdas.to_vec(), mus.to_vec(), m, k)?;
        let start = vec![m / n as f64; n];
        let solution = solver.solve(&ring, &start, &mut NoopRecorder)?;
        points.push(CopySweepPoint {
            copies: m,
            access_cost: solution.best_cost,
            total_cost: solution.best_cost + per_copy_cost * m,
            allocation: solution.best_allocation,
            converged: solution.converged,
        });
    }
    let best = points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.total_cost.total_cmp(&b.total_cost))
        .map(|(i, _)| i)
        .expect("candidates are non-empty");
    Ok(CopySweep { points, best })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> RingSolver {
        RingSolver::new(0.05).with_max_iterations(2_000)
    }

    /// An 8-node ring with expensive links: extra copies cut the walks.
    fn expensive_links() -> Vec<f64> {
        vec![3.0; 8]
    }

    #[test]
    fn access_cost_decreases_with_more_copies() {
        let sweep = sweep_copies(
            &expensive_links(),
            &[0.2; 8],
            &[2.0; 8],
            1.0,
            0.0,
            &[1.0, 2.0, 4.0],
            &solver(),
        )
        .unwrap();
        let costs: Vec<f64> = sweep.points.iter().map(|p| p.access_cost).collect();
        assert!(costs[1] < costs[0], "{costs:?}");
        assert!(costs[2] < costs[1], "{costs:?}");
        // Free copies: more is never worse, so the max candidate wins.
        assert_eq!(sweep.best, 2);
    }

    #[test]
    fn expensive_storage_prefers_one_copy() {
        let sweep = sweep_copies(
            &[0.5; 8], // cheap links: extra copies barely help
            &[0.2; 8],
            &[2.0; 8],
            1.0,
            10.0, // very expensive copies
            &[1.0, 2.0, 3.0],
            &solver(),
        )
        .unwrap();
        assert_eq!(sweep.best_point().copies, 1.0);
    }

    #[test]
    fn moderate_storage_finds_an_interior_optimum() {
        // Expensive links argue for copies; a moderate per-copy cost should
        // stop the sweep somewhere strictly between the extremes.
        let sweep = sweep_copies(
            &[6.0; 8],
            &[0.2; 8],
            &[2.0; 8],
            1.0,
            2.0,
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &solver(),
        )
        .unwrap();
        let best = sweep.best_point().copies;
        assert!(best > 1.0 && best < 5.0, "best m = {best}; points: {:?}",
            sweep.points.iter().map(|p| (p.copies, p.total_cost)).collect::<Vec<_>>());
    }

    #[test]
    fn validates_inputs() {
        let s = solver();
        assert!(sweep_copies(&[1.0; 4], &[0.2; 4], &[2.0; 4], 1.0, 0.5, &[], &s).is_err());
        assert!(
            sweep_copies(&[1.0; 4], &[0.2; 4], &[2.0; 4], 1.0, -1.0, &[1.0], &s).is_err()
        );
        assert!(
            sweep_copies(&[1.0; 4], &[0.2; 4], &[2.0; 4], 1.0, 0.5, &[0.5], &s).is_err(),
            "m < 1 is not a valid system"
        );
    }

    #[test]
    fn total_cost_accounts_for_storage() {
        let sweep = sweep_copies(
            &[2.0; 4],
            &[0.2; 4],
            &[2.0; 4],
            1.0,
            0.7,
            &[1.0, 2.0],
            &solver(),
        )
        .unwrap();
        for p in &sweep.points {
            assert!((p.total_cost - (p.access_cost + 0.7 * p.copies)).abs() < 1e-12);
        }
    }
}
