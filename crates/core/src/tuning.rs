//! Choosing the delay weight `k` (paper §8.2).
//!
//! "The value of the parameter k … decides the relative importance of each
//! term in the cost function. For a practical application of the above
//! algorithm, it is important to have a rationale for choosing the value of
//! k. Certainly, system designers require a suitable framework in which to
//! choose values for the various parameters such as k."
//!
//! This module provides that framework two ways:
//!
//! * [`k_sweep`] — the exploratory view: for each candidate `k`, solve the
//!   problem exactly and report the communication cost, the mean access
//!   delay, and how spread-out the allocation is, exposing the §4
//!   concentrate-vs-fragment dial quantitatively;
//! * [`k_for_delay_budget`] — the prescriptive view: the smallest `k` whose
//!   optimal allocation meets a mean-delay budget, found by bisection
//!   (delay at the optimum decreases monotonically in `k`).

use serde::{Deserialize, Serialize};

use fap_net::{AccessPattern, CostProvider};
#[cfg(test)]
use fap_net::CostMatrix;
use fap_queue::{DelayModel, Mm1Delay};

use crate::error::CoreError;
use crate::reference;
use crate::single::SingleFileProblem;

/// The optimum's decomposition at one value of `k`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KSweepPoint {
    /// The delay weight evaluated.
    pub k: f64,
    /// Mean communication cost per access, `Σ C_i x_i`.
    pub communication: f64,
    /// Mean access delay, `Σ x_i T_i(λ x_i)`.
    pub mean_delay: f64,
    /// Spread of the allocation: `max_i x_i − min_i x_i` (0 = perfectly
    /// even).
    pub allocation_spread: f64,
    /// The optimal allocation at this `k`.
    pub allocation: Vec<f64>,
}

/// Sweeps candidate delay weights on the network described by `costs`,
/// `pattern` and the uniform M/M/1 rate `mu`, solving each exactly.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for an empty or non-positive
/// candidate list, plus any model-construction error.
pub fn k_sweep(
    costs: &(impl CostProvider + ?Sized),
    pattern: &AccessPattern,
    mu: f64,
    candidates: &[f64],
) -> Result<Vec<KSweepPoint>, CoreError> {
    if candidates.is_empty() {
        return Err(CoreError::InvalidParameter("no candidate k values".into()));
    }
    if candidates.iter().any(|k| !k.is_finite() || *k <= 0.0) {
        return Err(CoreError::InvalidParameter("candidate k values must be positive".into()));
    }
    candidates
        .iter()
        .map(|&k| {
            let problem = SingleFileProblem::mm1_with_provider(costs, pattern, mu, k)?;
            let solution = reference::solve(&problem)?;
            Ok(decompose(&problem, k, solution.allocation))
        })
        .collect()
}

/// The smallest `k` (within `tolerance`) whose optimal allocation has mean
/// access delay at most `delay_budget`, searched on `[k_lo, k_hi]`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the bracket is invalid, the
/// budget is non-positive, or the budget is unreachable even at `k_hi`
/// (delay at the optimum decreases in `k` toward the balanced-allocation
/// floor; a budget below that floor cannot be met by tuning `k`).
pub fn k_for_delay_budget(
    costs: &(impl CostProvider + ?Sized),
    pattern: &AccessPattern,
    mu: f64,
    delay_budget: f64,
    k_lo: f64,
    k_hi: f64,
    tolerance: f64,
) -> Result<KSweepPoint, CoreError> {
    if !(k_lo > 0.0 && k_hi > k_lo) {
        return Err(CoreError::InvalidParameter(format!("bracket [{k_lo}, {k_hi}]")));
    }
    if !delay_budget.is_finite() || delay_budget <= 0.0 {
        return Err(CoreError::InvalidParameter(format!("delay budget {delay_budget}")));
    }
    if !tolerance.is_finite() || tolerance <= 0.0 {
        return Err(CoreError::InvalidParameter(format!("tolerance {tolerance}")));
    }
    let delay_at = |k: f64| -> Result<KSweepPoint, CoreError> {
        let problem = SingleFileProblem::mm1_with_provider(costs, pattern, mu, k)?;
        let solution = reference::solve(&problem)?;
        Ok(decompose(&problem, k, solution.allocation))
    };
    let at_hi = delay_at(k_hi)?;
    if at_hi.mean_delay > delay_budget {
        return Err(CoreError::InvalidParameter(format!(
            "budget {delay_budget} unreachable: even k = {k_hi} gives mean delay {}",
            at_hi.mean_delay
        )));
    }
    if delay_at(k_lo)?.mean_delay <= delay_budget {
        return delay_at(k_lo); // already satisfied at the cheapest weighting
    }
    let (mut lo, mut hi) = (k_lo, k_hi);
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if delay_at(mid)?.mean_delay <= delay_budget {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    delay_at(hi)
}

/// Splits an allocation's cost into its communication and delay components.
fn decompose(
    problem: &SingleFileProblem<Mm1Delay>,
    k: f64,
    allocation: Vec<f64>,
) -> KSweepPoint {
    let lambda = problem.total_rate();
    let mut communication = 0.0;
    let mut mean_delay = 0.0;
    for (i, &x) in allocation.iter().enumerate() {
        communication += problem.access_costs()[i] * x;
        mean_delay += x * problem.delays()[i].response_time_unchecked(lambda * x);
    }
    let max = allocation.iter().copied().fold(f64::MIN, f64::max);
    let min = allocation.iter().copied().fold(f64::MAX, f64::min);
    KSweepPoint { k, communication, mean_delay, allocation_spread: max - min, allocation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_batch::Parallelism;
    use fap_net::topology;
    use fap_obs::NoopRecorder;

    /// An asymmetric network where communication argues for concentration
    /// at the hub and delay argues for spreading.
    fn star_setup() -> (CostMatrix, AccessPattern) {
        let graph = topology::star(5, 1.0).unwrap();
        let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        (costs, AccessPattern::uniform(5, 1.0).unwrap())
    }

    #[test]
    fn growing_k_trades_communication_for_delay() {
        let (costs, pattern) = star_setup();
        let sweep = k_sweep(&costs, &pattern, 1.5, &[0.1, 0.5, 2.0, 8.0]).unwrap();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].mean_delay <= pair[0].mean_delay + 1e-9,
                "delay must fall as k grows: {pair:?}"
            );
            assert!(
                pair[1].communication >= pair[0].communication - 1e-9,
                "communication must rise as k grows"
            );
            assert!(
                pair[1].allocation_spread <= pair[0].allocation_spread + 1e-9,
                "allocation must even out as k grows"
            );
        }
    }

    #[test]
    fn sweep_validates_inputs() {
        let (costs, pattern) = star_setup();
        assert!(k_sweep(&costs, &pattern, 1.5, &[]).is_err());
        assert!(k_sweep(&costs, &pattern, 1.5, &[0.0]).is_err());
        assert!(k_sweep(&costs, &pattern, 1.5, &[-1.0]).is_err());
    }

    #[test]
    fn delay_budget_is_met_tightly() {
        let (costs, pattern) = star_setup();
        // The achievable range: delay at tiny k (concentrated) down to the
        // even-split floor.
        let floor = k_sweep(&costs, &pattern, 1.5, &[100.0]).unwrap()[0].mean_delay;
        let loose = k_sweep(&costs, &pattern, 1.5, &[0.05]).unwrap()[0].mean_delay;
        let budget = 0.5 * (floor + loose);
        let chosen =
            k_for_delay_budget(&costs, &pattern, 1.5, budget, 0.05, 100.0, 1e-4).unwrap();
        assert!(chosen.mean_delay <= budget + 1e-9);
        // Tight: a slightly smaller k would miss the budget.
        let slack = k_sweep(&costs, &pattern, 1.5, &[chosen.k * 0.9]).unwrap()[0].mean_delay;
        assert!(slack > budget - 1e-4, "chosen k is not minimal: {} vs {budget}", slack);
    }

    #[test]
    fn unreachable_budget_is_an_error() {
        let (costs, pattern) = star_setup();
        // Even split gives delay 1/(μ − λ/5) = 1/1.3 ≈ 0.769; demand less.
        assert!(matches!(
            k_for_delay_budget(&costs, &pattern, 1.5, 0.5, 0.05, 100.0, 1e-4),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn already_satisfied_budget_returns_the_cheap_end() {
        let (costs, pattern) = star_setup();
        let chosen = k_for_delay_budget(&costs, &pattern, 1.5, 10.0, 0.05, 100.0, 1e-4).unwrap();
        assert!((chosen.k - 0.05).abs() < 1e-12);
    }
}
