//! The neighbors-only (gossip) variant (paper §8.2, future work).
//!
//! The paper's base algorithm needs every agent to learn the network-wide
//! average marginal utility each iteration. §8.2 asks for "algorithms based
//! on marginal utility that maintain the attractive properties of
//! feasibility, monotonicity and rapid convergence and yet execute with a
//! 'neighbours-only' restriction on communication".
//!
//! This module implements the natural such algorithm: every agent exchanges
//! its marginal utility only with its graph neighbors and performs the
//! pairwise transfers
//!
//! ```text
//! Δx_i = α Σ_{j ∈ N(i)} (g_i − g_j)
//! ```
//!
//! — resource flows across each link toward the endpoint with the higher
//! marginal utility. Because each pair `(i, j)` contributes `+α(g_i − g_j)`
//! to `i` and the exact opposite to `j`, feasibility (`Σ Δx_i = 0`) holds
//! identically — Theorem 1 survives the communication restriction. On a connected
//! neighborhood the fixed points are exactly the equal-marginal allocations,
//! so the algorithm converges to the same optimum as the full-information
//! iteration, at the cost of more iterations (diffusion instead of averaging)
//! but far fewer messages per iteration.

use fap_obs::{Recorder, Value};
use serde::{Deserialize, Serialize};

use crate::convergence::marginal_spread;
use crate::error::EconError;
use crate::problem::AllocationProblem;
use crate::resource_directed::{emit_run_end, Solution, Termination};
use crate::trace::{IterationRecord, Trace};

/// A symmetric neighbor relation over `n` agents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Neighborhood {
    adjacency: Vec<Vec<usize>>,
}

impl Neighborhood {
    /// Builds a neighborhood from undirected edges.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for out-of-range endpoints,
    /// self-loops, duplicate edges, or a disconnected relation (gossip only
    /// reaches the global optimum on connected graphs).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, EconError> {
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n || b >= n {
                return Err(EconError::InvalidParameter(format!(
                    "edge ({a}, {b}) out of range for {n} agents"
                )));
            }
            if a == b {
                return Err(EconError::InvalidParameter(format!("self-loop at agent {a}")));
            }
            if adjacency[a].contains(&b) {
                return Err(EconError::InvalidParameter(format!("duplicate edge ({a}, {b})")));
            }
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        let nbhd = Neighborhood { adjacency };
        if !nbhd.is_connected() {
            return Err(EconError::InvalidParameter("neighborhood is disconnected".into()));
        }
        Ok(nbhd)
    }

    /// A ring neighborhood (each agent talks to its two ring neighbors).
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for `n < 3`.
    pub fn ring(n: usize) -> Result<Self, EconError> {
        if n < 3 {
            return Err(EconError::InvalidParameter(format!("ring needs ≥ 3 agents, got {n}")));
        }
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Neighborhood::from_edges(n, &edges)
    }

    /// The complete neighborhood (gossip degenerates to full information).
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for `n < 2`.
    pub fn complete(n: usize) -> Result<Self, EconError> {
        if n < 2 {
            return Err(EconError::InvalidParameter(format!(
                "complete neighborhood needs ≥ 2 agents, got {n}"
            )));
        }
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Neighborhood::from_edges(n, &edges)
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the neighborhood has no agents.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// The neighbors of `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn neighbors(&self, agent: usize) -> &[usize] {
        &self.adjacency[agent]
    }

    /// Messages exchanged per iteration: each agent sends its marginal
    /// utility to every neighbor (`Σ_i deg(i)` messages).
    pub fn messages_per_iteration(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// The largest agent degree.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    fn is_connected(&self) -> bool {
        let n = self.adjacency.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for &j in &self.adjacency[i] {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// The neighbors-only decentralized optimizer.
///
/// # Example
///
/// ```
/// use fap_econ::{problems::SeparableQuadratic, GossipOptimizer, Neighborhood};
/// use fap_obs::NoopRecorder;
///
/// let p = SeparableQuadratic::new(vec![1.0; 4], vec![0.4, 0.3, 0.2, 0.1], 1.0)?;
/// let nbhd = Neighborhood::ring(4)?;
/// let s = GossipOptimizer::new(nbhd, 0.05)
///     .with_epsilon(1e-7)
///     .run(&p, &[1.0, 0.0, 0.0, 0.0], &mut NoopRecorder)?;
/// assert!(s.converged);
/// // Only 8 messages per iteration on the 4-ring, versus 12 for broadcast.
/// # Ok::<(), fap_econ::EconError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GossipOptimizer {
    neighborhood: Neighborhood,
    alpha: f64,
    epsilon: f64,
    max_iterations: usize,
    record_allocations: bool,
}

impl GossipOptimizer {
    /// Creates a gossip optimizer over `neighborhood` with step size
    /// `alpha`. Defaults: ε = 10⁻³, 100 000-iteration cap (diffusion needs
    /// more iterations than global averaging).
    pub fn new(neighborhood: Neighborhood, alpha: f64) -> Self {
        GossipOptimizer {
            neighborhood,
            alpha,
            epsilon: 1e-3,
            max_iterations: 100_000,
            record_allocations: false,
        }
    }

    /// Sets the convergence tolerance on the global marginal spread.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the iteration cap.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Records the allocation at every iteration.
    #[must_use]
    pub fn with_recorded_allocations(mut self) -> Self {
        self.record_allocations = true;
        self
    }

    /// The neighborhood this optimizer gossips over.
    pub fn neighborhood(&self) -> &Neighborhood {
        &self.neighborhood
    }

    /// Runs the optimizer from the feasible `initial` allocation, recording
    /// per-iteration `iter` events (utility, spread, messages),
    /// `gossip.iterations` / `gossip.messages` counters, and the same
    /// `run_end` event the broadcast optimizer emits into `recorder`, so
    /// `fap report` reads gossip runs too. Virtual time is the iteration
    /// counter; the recorder never changes the result.
    ///
    /// Non-negativity is maintained by uniformly scaling back any step that
    /// would drive an agent negative (scaling preserves the pairwise
    /// antisymmetry and hence feasibility).
    ///
    /// # Errors
    ///
    /// Returns [`EconError::DimensionMismatch`] if the problem and
    /// neighborhood disagree on the agent count, [`EconError::Infeasible`]
    /// for an infeasible start, or [`EconError::InvalidParameter`] for a
    /// non-positive α or ε.
    pub fn run<P: AllocationProblem + ?Sized>(
        &self,
        problem: &P,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<Solution, EconError> {
        let n = problem.dimension();
        if self.neighborhood.len() != n {
            return Err(EconError::DimensionMismatch { expected: n, got: self.neighborhood.len() });
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(EconError::InvalidParameter(format!("alpha {}", self.alpha)));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(EconError::InvalidParameter(format!("epsilon {}", self.epsilon)));
        }
        problem.check_feasible(initial, crate::problem::feasibility_tolerance(n), true)?;

        let mut x = initial.to_vec();
        let mut g = vec![0.0; n];
        let mut trace = Trace::new();
        let mut iterations = 0usize;
        let messages_per_iteration = self.neighborhood.messages_per_iteration() as u64;

        loop {
            let utility = problem.utility(&x)?;
            problem.marginal_utilities(&x, &mut g)?;
            // Convergence: equal marginals among agents holding resource,
            // plus complementary slackness at the boundary (an agent pinned
            // at zero may have a *lower* marginal utility at the optimum).
            let interior: Vec<bool> = x.iter().map(|&v| v > 1e-6).collect();
            let spread = marginal_spread(&g, &interior);
            let kkt = {
                let count = interior.iter().filter(|a| **a).count();
                if count == 0 {
                    true
                } else {
                    let avg: f64 = g
                        .iter()
                        .zip(&interior)
                        .filter(|(_, a)| **a)
                        .map(|(gi, _)| gi)
                        .sum::<f64>()
                        / count as f64;
                    g.iter()
                        .zip(&interior)
                        .all(|(gi, a)| *a || *gi <= avg + self.epsilon)
                }
            };

            trace.push(IterationRecord {
                iteration: iterations,
                utility,
                spread,
                alpha: self.alpha,
                active_count: n,
            });
            if self.record_allocations {
                trace.record_allocation(&x);
            }

            // Telemetry on iteration/virtual time; derived work is gated
            // behind `is_enabled` so the NoopRecorder path costs nothing.
            recorder.set_time(iterations as u64);
            if recorder.is_enabled() {
                recorder.incr("gossip.iterations", 1);
                recorder.incr("gossip.messages", messages_per_iteration);
                recorder.emit(
                    "iter",
                    &[
                        ("iteration", Value::U64(iterations as u64)),
                        ("utility", Value::F64(utility)),
                        ("spread", Value::F64(spread)),
                        ("alpha", Value::F64(self.alpha)),
                        ("messages", Value::U64(messages_per_iteration)),
                    ],
                );
            }

            if spread < self.epsilon && kkt {
                emit_run_end(recorder, iterations, Termination::MarginalSpread, true, utility, spread);
                return Ok(Solution {
                    allocation: x,
                    iterations,
                    termination: Termination::MarginalSpread,
                    converged: true,
                    final_utility: utility,
                    trace,
                });
            }
            if iterations >= self.max_iterations {
                emit_run_end(recorder, iterations, Termination::MaxIterations, false, utility, spread);
                return Ok(Solution {
                    allocation: x,
                    iterations,
                    termination: Termination::MaxIterations,
                    converged: false,
                    final_utility: utility,
                    trace,
                });
            }

            // Pairwise diffusion step: on each edge, α(g_hi − g_lo) flows
            // from the low-marginal endpoint to the high-marginal one. Each
            // losing endpoint's outgoing flows carry a per-agent scale
            // factor so an agent never sheds more than it holds; scaling a
            // flow adjusts both endpoints, preserving Σ Δx = 0 exactly.
            let mut scale = vec![1.0f64; n];
            let mut deltas = vec![0.0; n];
            for _pass in 0..(2 * n + 2) {
                deltas.iter_mut().for_each(|d| *d = 0.0);
                for i in 0..n {
                    for &j in self.neighborhood.neighbors(i) {
                        if j > i {
                            // Flow from the lower-marginal to the
                            // higher-marginal endpoint.
                            let (gain, lose) = if g[i] >= g[j] { (i, j) } else { (j, i) };
                            let flow = self.alpha * (g[gain] - g[lose]) * scale[lose];
                            deltas[gain] += flow;
                            deltas[lose] -= flow;
                        }
                    }
                }
                let violator = (0..n)
                    .filter(|&i| x[i] + deltas[i] < -1e-15)
                    .min_by(|&a, &b| (x[a] + deltas[a]).total_cmp(&(x[b] + deltas[b])));
                let Some(v) = violator else { break };
                // Shrink v's outgoing flows so it lands exactly on zero:
                // delta_v = inflow_v − outflow_v, want delta_v = −x_v.
                let outflow: f64 = self
                    .neighborhood
                    .neighbors(v)
                    .iter()
                    .filter(|&&j| g[j] > g[v])
                    .map(|&j| self.alpha * (g[j] - g[v]) * scale[v])
                    .sum();
                if outflow <= 0.0 {
                    break; // numerical corner; the final clamp below holds
                }
                let inflow = deltas[v] + outflow;
                scale[v] *= ((inflow + x[v]) / outflow).clamp(0.0, 1.0);
            }
            for (xi, d) in x.iter_mut().zip(&deltas) {
                *xi = (*xi + d).max(0.0);
            }
            iterations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::NoopRecorder;
    use crate::problems::SeparableQuadratic;
    use crate::resource_directed::ResourceDirectedOptimizer;
    use crate::step_size::StepSize;

    fn quad4() -> SeparableQuadratic {
        SeparableQuadratic::new(vec![1.0; 4], vec![0.4, 0.3, 0.2, 0.1], 1.0).unwrap()
    }

    #[test]
    fn neighborhood_validates() {
        assert!(Neighborhood::from_edges(3, &[(0, 3)]).is_err());
        assert!(Neighborhood::from_edges(3, &[(1, 1)]).is_err());
        assert!(Neighborhood::from_edges(3, &[(0, 1), (0, 1)]).is_err());
        // Disconnected: agent 3 isolated.
        assert!(Neighborhood::from_edges(4, &[(0, 1), (1, 2)]).is_err());
        assert!(Neighborhood::ring(2).is_err());
        assert!(Neighborhood::complete(1).is_err());
    }

    #[test]
    fn ring_and_complete_message_counts() {
        let ring = Neighborhood::ring(6).unwrap();
        assert_eq!(ring.messages_per_iteration(), 12);
        assert_eq!(ring.max_degree(), 2);
        let complete = Neighborhood::complete(6).unwrap();
        assert_eq!(complete.messages_per_iteration(), 30);
    }

    #[test]
    fn gossip_converges_to_global_optimum_on_ring() {
        let p = quad4();
        let s = GossipOptimizer::new(Neighborhood::ring(4).unwrap(), 0.05)
            .with_epsilon(1e-8)
            .run(&p, &[1.0, 0.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        for (xi, ei) in s.allocation.iter().zip(p.analytic_optimum()) {
            assert!((xi - ei).abs() < 1e-6, "{:?}", s.allocation);
        }
    }

    #[test]
    fn gossip_preserves_feasibility_every_iteration() {
        let p = quad4();
        let s = GossipOptimizer::new(Neighborhood::ring(4).unwrap(), 0.08)
            .with_recorded_allocations()
            .with_epsilon(1e-7)
            .run(&p, &[0.0, 0.0, 0.0, 1.0], &mut NoopRecorder)
            .unwrap();
        for x in s.trace.recorded_allocations() {
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(x.iter().all(|v| *v >= -1e-9));
        }
    }

    #[test]
    fn gossip_needs_more_iterations_but_fewer_messages_than_broadcast() {
        // The §8.2 trade-off, measured.
        let p = SeparableQuadratic::new(
            vec![1.0; 8],
            vec![0.3, 0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.2],
            1.0,
        )
        .unwrap();
        let x0 = {
            let mut v = vec![0.0; 8];
            v[0] = 1.0;
            v
        };
        let ring = Neighborhood::ring(8).unwrap();
        let ring_msgs = ring.messages_per_iteration();
        let gossip =
            GossipOptimizer::new(ring, 0.05).with_epsilon(1e-6).run(&p, &x0, &mut NoopRecorder)
                .unwrap();
        let broadcast = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-6)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        assert!(gossip.converged && broadcast.converged);
        assert!(gossip.iterations > broadcast.iterations);
        assert!(ring_msgs < 8 * 7, "ring gossip should use fewer messages per iteration");
        // Same optimum.
        for (a, b) in gossip.allocation.iter().zip(&broadcast.allocation) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn complete_neighborhood_matches_full_information_fixed_points() {
        let p = quad4();
        let s = GossipOptimizer::new(Neighborhood::complete(4).unwrap(), 0.02)
            .with_epsilon(1e-8)
            .run(&p, &[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        for (xi, ei) in s.allocation.iter().zip(p.analytic_optimum()) {
            assert!((xi - ei).abs() < 1e-6);
        }
    }

    #[test]
    fn observed_run_is_bit_identical_to_plain_run() {
        let p = quad4();
        let nbhd = Neighborhood::ring(4).unwrap();
        let opt = GossipOptimizer::new(nbhd, 0.05).with_epsilon(1e-8);
        let plain = opt.run(&p, &[1.0, 0.0, 0.0, 0.0], &mut NoopRecorder).unwrap();
        let mut tele = fap_obs::Telemetry::manual();
        let observed = opt.run(&p, &[1.0, 0.0, 0.0, 0.0], &mut tele).unwrap();
        assert_eq!(plain, observed);
    }

    #[test]
    fn telemetry_records_iterations_messages_and_run_end() {
        let p = quad4();
        let nbhd = Neighborhood::ring(4).unwrap();
        let msgs = nbhd.messages_per_iteration() as u64;
        let opt = GossipOptimizer::new(nbhd, 0.05).with_epsilon(1e-8);
        let mut tele = fap_obs::Telemetry::manual();
        let s = opt.run(&p, &[1.0, 0.0, 0.0, 0.0], &mut tele).unwrap();
        assert!(s.converged);
        // Counters track evaluation passes: `iterations` diffusion steps
        // plus the final pass that detects convergence (the econ
        // convention — see the `econ.iterations` tests).
        let passes = s.iterations as u64 + 1;
        assert_eq!(tele.registry().counter("gossip.iterations"), passes);
        assert_eq!(tele.registry().counter("gossip.messages"), passes * msgs);
        let run_end = tele.events().iter().find(|e| e.name() == "run_end").unwrap();
        let fields: Vec<_> = run_end.fields().to_vec();
        assert!(fields
            .iter()
            .any(|(k, v)| *k == "iterations" && *v == Value::U64(s.iterations as u64)));
        assert!(fields.iter().any(|(k, v)| *k == "converged" && *v == Value::Bool(true)));
    }

    #[test]
    fn rejects_mismatched_dimension_and_bad_params() {
        let p = quad4();
        let nbhd = Neighborhood::ring(5).unwrap();
        assert!(matches!(
            GossipOptimizer::new(nbhd, 0.05).run(&p, &[0.25; 4], &mut NoopRecorder),
            Err(EconError::DimensionMismatch { .. })
        ));
        let nbhd = Neighborhood::ring(4).unwrap();
        assert!(matches!(
            GossipOptimizer::new(nbhd.clone(), 0.0).run(&p, &[0.25; 4], &mut NoopRecorder),
            Err(EconError::InvalidParameter(_))
        ));
        assert!(matches!(
            GossipOptimizer::new(nbhd, 0.05).with_epsilon(-1.0)
                .run(&p, &[0.25; 4], &mut NoopRecorder),
            Err(EconError::InvalidParameter(_))
        ));
    }
}
