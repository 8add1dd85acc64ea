//! The deterministic round-based protocol executor.
//!
//! Each round executes §5.2 exactly: agents evaluate their marginal
//! utilities locally, the marginals and fragments are disseminated per the
//! configured [`ExchangeScheme`], every participant performs the identical
//! reallocation computation (the §5.2 step with its set-A boundary
//! handling), and each agent applies only its own `Δx_i`. Termination is
//! the paper's ε-criterion, checked by whoever holds all the marginals.

use serde::{Deserialize, Serialize};

use fap_econ::projection::{compute_step, BoundaryRule};
use fap_econ::{marginal_spread, Trace};
use fap_econ::trace::IterationRecord;

use crate::error::RuntimeError;
use crate::local::LocalObjective;
use crate::message::MessageStats;
use crate::scheme::{ExchangeScheme, MessageCounting};

/// The outcome of a distributed protocol run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The final allocation (agent `i`'s fragment at index `i`).
    pub allocation: Vec<f64>,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the ε-criterion terminated the run.
    pub converged: bool,
    /// System-wide utility at the final allocation.
    pub final_utility: f64,
    /// Message accounting for the whole run.
    pub messages: MessageStats,
    /// Per-round history (utility, spread, active set size).
    pub trace: Trace,
}

impl RunReport {
    /// Final cost `−U`.
    pub fn final_cost(&self) -> f64 {
        -self.final_utility
    }
}

/// A configurable distributed run of the protocol.
///
/// # Example
///
/// Run the paper's §6 experiment as an actual message-exchanging protocol
/// and check both the optimum and the message bill:
///
/// ```
/// use fap_core::SingleFileProblem;
/// use fap_net::{topology, AccessPattern};
/// use fap_runtime::{DistributedRun, ExchangeScheme, MessageCounting};
///
/// let graph = topology::ring(4, 1.0)?;
/// let pattern = AccessPattern::uniform(4, 1.0)?;
/// let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;
/// let report = DistributedRun::new(&problem, ExchangeScheme::Broadcast, 0.19)
///     .with_epsilon(1e-3)
///     .run(&[0.8, 0.1, 0.1, 0.0])?;
/// assert!(report.converged);
/// for x in &report.allocation {
///     assert!((x - 0.25).abs() < 1e-2);
/// }
/// // Broadcast over point-to-point links: n(n−1) = 12 messages per round.
/// assert_eq!(report.messages.per_round, 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistributedRun<'a, O> {
    objective: &'a O,
    scheme: ExchangeScheme,
    counting: MessageCounting,
    alpha: f64,
    epsilon: f64,
    boundary: BoundaryRule,
    max_rounds: usize,
    total_resource: f64,
    /// `(loss probability, seed)` when lossy messaging is enabled.
    message_loss: Option<(f64, u64)>,
}

impl<'a, O: LocalObjective> DistributedRun<'a, O> {
    /// Creates a run of `objective` under `scheme` with step size `alpha`.
    /// Defaults: ε = 10⁻³, clamp-to-zero boundary rule, 10 000-round cap,
    /// point-to-point message counting, total resource 1.
    pub fn new(objective: &'a O, scheme: ExchangeScheme, alpha: f64) -> Self {
        DistributedRun {
            objective,
            scheme,
            counting: MessageCounting::PointToPoint,
            alpha,
            epsilon: 1e-3,
            boundary: BoundaryRule::ClampToZero,
            max_rounds: 10_000,
            total_resource: 1.0,
            message_loss: None,
        }
    }

    /// Sets the termination tolerance ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the boundary rule.
    #[must_use]
    pub fn with_boundary(mut self, boundary: BoundaryRule) -> Self {
        self.boundary = boundary;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets how messages are counted.
    #[must_use]
    pub fn with_counting(mut self, counting: MessageCounting) -> Self {
        self.counting = counting;
        self
    }

    /// Enables lossy messaging: each round, each agent's report is lost
    /// with probability `loss` (deterministically per `seed`). An agent
    /// whose report was lost is skipped that round — the others reallocate
    /// among themselves (feasibility is unharmed: the transfers still sum
    /// to zero) and termination is only declared on rounds where every
    /// report arrived.
    #[must_use]
    pub fn with_message_loss(mut self, loss: f64, seed: u64) -> Self {
        self.message_loss = Some((loss, seed));
        self
    }

    /// Runs the protocol from the feasible `initial` fragments.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for bad configuration or
    /// an infeasible start, and propagates local objective failures.
    pub fn run(&self, initial: &[f64]) -> Result<RunReport, RuntimeError> {
        let n = self.objective.agent_count();
        self.validate(initial, n)?;

        let mut x = initial.to_vec();
        let weights = vec![1.0; n];
        let mut messages = MessageStats::default();
        let per_round = self.scheme.messages_per_round(n, self.counting);
        let mut trace = Trace::new();
        let mut rounds = 0usize;

        loop {
            // §5.2 step (a): each agent evaluates its marginal locally …
            let mut g = vec![0.0; n];
            let mut utility = 0.0;
            for i in 0..n {
                g[i] = self.objective.local_marginal(i, x[i])?;
                utility += self.objective.local_utility(i, x[i])?;
            }
            // … and the marginals and fragments are exchanged — possibly
            // losing some reports on the way.
            messages.record_round(per_round);
            let heard = self.delivery_mask(n, rounds);
            let all_heard = heard.iter().all(|h| *h);

            // §5.2 step (b): everyone computes the same reallocation over
            // the agents that were heard from this round.
            let outcome = if all_heard {
                compute_step(&x, &g, &weights, self.alpha, self.boundary)
            } else {
                let idx: Vec<usize> = (0..n).filter(|&i| heard[i]).collect();
                let sub_x: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
                let sub_g: Vec<f64> = idx.iter().map(|&i| g[i]).collect();
                let sub_w = vec![1.0; idx.len()];
                let sub = compute_step(&sub_x, &sub_g, &sub_w, self.alpha, self.boundary);
                let mut deltas = vec![0.0; n];
                let mut active = vec![false; n];
                for (slot, &i) in idx.iter().enumerate() {
                    deltas[i] = sub.deltas[slot];
                    active[i] = sub.active[slot];
                }
                fap_econ::projection::StepOutcome { deltas, active, scale: sub.scale }
            };
            let spread = marginal_spread(&g, &outcome.active);
            trace.push(IterationRecord {
                iteration: rounds,
                utility,
                spread,
                alpha: self.alpha,
                active_count: outcome.active_count(),
            });

            let converged = all_heard
                && spread < self.epsilon
                && self.boundary_consistent(&x, &g, &outcome.active);
            if converged || rounds >= self.max_rounds {
                return Ok(RunReport {
                    allocation: x,
                    rounds,
                    converged,
                    final_utility: utility,
                    messages,
                    trace,
                });
            }

            // §5.2 step (c): each agent applies its own Δx_i.
            for (xi, d) in x.iter_mut().zip(&outcome.deltas) {
                *xi += d;
            }
            rounds += 1;
        }
    }

    fn validate(&self, initial: &[f64], n: usize) -> Result<(), RuntimeError> {
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(RuntimeError::InvalidParameter(format!("alpha {}", self.alpha)));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(RuntimeError::InvalidParameter(format!("epsilon {}", self.epsilon)));
        }
        if initial.len() != n {
            return Err(RuntimeError::InvalidParameter(format!(
                "{} fragments for {n} agents",
                initial.len()
            )));
        }
        let sum: f64 = initial.iter().sum();
        if (sum - self.total_resource).abs() > 1e-9
            || initial.iter().any(|v| !v.is_finite() || *v < 0.0)
        {
            return Err(RuntimeError::InvalidParameter(format!(
                "initial fragments must be non-negative and sum to {}, got {sum}",
                self.total_resource
            )));
        }
        if let Some((loss, _)) = self.message_loss {
            if !(0.0..1.0).contains(&loss) {
                return Err(RuntimeError::InvalidParameter(format!(
                    "message loss probability {loss} outside [0, 1)"
                )));
            }
        }
        if let ExchangeScheme::Central { coordinator } = self.scheme {
            if coordinator >= n {
                return Err(RuntimeError::InvalidParameter(format!(
                    "coordinator {coordinator} out of range for {n} agents"
                )));
            }
        }
        Ok(())
    }

    /// Which agents' reports arrived this round (all, unless lossy
    /// messaging is enabled; then a deterministic SplitMix64 draw per
    /// agent-round).
    fn delivery_mask(&self, n: usize, round: usize) -> Vec<bool> {
        match self.message_loss {
            None => vec![true; n],
            Some((loss, seed)) => (0..n)
                .map(|i| {
                    let mut z = seed
                        .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                    u >= loss
                })
                .collect(),
        }
    }

    /// Complementary slackness for agents outside the active set, as in the
    /// centralized engine.
    fn boundary_consistent(&self, x: &[f64], g: &[f64], active: &[bool]) -> bool {
        boundary_consistent(x, g, active, self.epsilon)
    }
}

/// Complementary slackness for agents outside the active set: every frozen
/// agent must sit at the boundary (`x_i ≈ 0`) with a marginal no better than
/// the active average. Shared by the round executor and the chaos simulator
/// so both declare convergence identically.
pub(crate) fn boundary_consistent(x: &[f64], g: &[f64], active: &[bool], epsilon: f64) -> bool {
    if active.iter().all(|a| *a) {
        return true;
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..g.len() {
        if active[i] {
            sum += g[i];
            count += 1;
        }
    }
    if count == 0 {
        return true;
    }
    let avg = sum / count as f64;
    (0..g.len()).all(|i| active[i] || (x[i] <= 1e-6 && g[i] <= avg + epsilon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_core::SingleFileProblem;
    use fap_econ::{ResourceDirectedOptimizer, StepSize};
    use fap_net::{topology, AccessPattern};
    use fap_obs::NoopRecorder;

    fn paper_problem() -> SingleFileProblem {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
    }

    #[test]
    fn distributed_run_matches_centralized_optimizer_exactly() {
        // The protocol executes the same arithmetic as the centralized
        // engine, so trajectories agree to the last bit.
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let distributed = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.19)
            .with_epsilon(1e-6)
            .run(&x0)
            .unwrap();
        let centralized = ResourceDirectedOptimizer::new(StepSize::Fixed(0.19))
            .with_epsilon(1e-6)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        assert!(distributed.converged && centralized.converged);
        assert_eq!(distributed.allocation, centralized.allocation);
        assert_eq!(distributed.rounds, centralized.iterations);
    }

    #[test]
    fn central_and_broadcast_compute_identical_allocations() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let a = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.3).run(&x0).unwrap();
        let b = DistributedRun::new(&p, ExchangeScheme::Central { coordinator: 2 }, 0.3)
            .run(&x0)
            .unwrap();
        assert_eq!(a.allocation, b.allocation);
        // …but their message bills differ on point-to-point links.
        assert_eq!(a.messages.per_round, 12);
        assert_eq!(b.messages.per_round, 6);
    }

    #[test]
    fn lan_counting_equalizes_schemes() {
        let p = paper_problem();
        let x0 = [0.25; 4];
        let a = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.3)
            .with_counting(MessageCounting::BroadcastMedium)
            .run(&x0)
            .unwrap();
        let b = DistributedRun::new(&p, ExchangeScheme::Central { coordinator: 0 }, 0.3)
            .with_counting(MessageCounting::BroadcastMedium)
            .run(&x0)
            .unwrap();
        assert_eq!(a.messages.per_round, 4);
        assert_eq!(b.messages.per_round, 4);
    }

    #[test]
    fn message_total_is_rounds_times_per_round() {
        let p = paper_problem();
        let r = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.19)
            .with_epsilon(1e-6)
            .run(&[0.8, 0.1, 0.1, 0.0])
            .unwrap();
        assert_eq!(r.messages.total, r.messages.per_round * r.messages.rounds);
        assert_eq!(r.messages.rounds as usize, r.rounds + 1);
    }

    #[test]
    fn utility_improves_monotonically_with_small_alpha() {
        let p = paper_problem();
        let r = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.05)
            .with_epsilon(1e-7)
            .run(&[1.0, 0.0, 0.0, 0.0])
            .unwrap();
        assert!(r.converged);
        assert!(r.trace.is_cost_monotone_decreasing(1e-10));
    }

    #[test]
    fn validates_configuration() {
        let p = paper_problem();
        assert!(DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.0).run(&[0.25; 4]).is_err());
        assert!(DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_epsilon(0.0)
            .run(&[0.25; 4])
            .is_err());
        assert!(DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.1).run(&[0.5; 4]).is_err());
        assert!(DistributedRun::new(&p, ExchangeScheme::Central { coordinator: 9 }, 0.1)
            .run(&[0.25; 4])
            .is_err());
    }

    #[test]
    fn lossless_configuration_is_unchanged_by_the_loss_plumbing() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let plain = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.19)
            .with_epsilon(1e-6)
            .run(&x0)
            .unwrap();
        let zero_loss = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.19)
            .with_epsilon(1e-6)
            .with_message_loss(0.0, 5)
            .run(&x0)
            .unwrap();
        assert_eq!(plain.allocation, zero_loss.allocation);
        assert_eq!(plain.rounds, zero_loss.rounds);
    }

    #[test]
    fn protocol_survives_heavy_message_loss() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let reliable = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_epsilon(1e-6)
            .run(&x0)
            .unwrap();
        let lossy = DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_epsilon(1e-6)
            .with_message_loss(0.3, 42)
            .with_max_rounds(100_000)
            .run(&x0)
            .unwrap();
        assert!(lossy.converged);
        assert!(lossy.rounds >= reliable.rounds, "loss cannot speed things up");
        for (a, b) in lossy.allocation.iter().zip(&reliable.allocation) {
            assert!((a - b).abs() < 1e-3, "{:?} vs {:?}", lossy.allocation, reliable.allocation);
        }
        // Feasibility survives every dropped report.
        let sum: f64 = lossy.allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loss_probability_is_validated() {
        let p = paper_problem();
        assert!(DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_message_loss(1.0, 0)
            .run(&[0.25; 4])
            .is_err());
        assert!(DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_message_loss(-0.1, 0)
            .run(&[0.25; 4])
            .is_err());
    }

    #[test]
    fn lossy_runs_are_deterministic_per_seed() {
        let p = paper_problem();
        let run = |seed: u64| {
            DistributedRun::new(&p, ExchangeScheme::Broadcast, 0.1)
                .with_epsilon(1e-6)
                .with_message_loss(0.25, seed)
                .with_max_rounds(100_000)
                .run(&[0.8, 0.1, 0.1, 0.0])
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.rounds, b.rounds);
        let c = run(10);
        assert!(a.rounds != c.rounds || a.allocation != c.allocation);
    }

    #[test]
    fn round_cap_reports_honestly() {
        let p = paper_problem();
        let r = DistributedRun::new(&p, ExchangeScheme::Broadcast, 1e-6)
            .with_epsilon(1e-9)
            .with_max_rounds(5)
            .run(&[1.0, 0.0, 0.0, 0.0])
            .unwrap();
        assert!(!r.converged);
        assert_eq!(r.rounds, 5);
    }
}
