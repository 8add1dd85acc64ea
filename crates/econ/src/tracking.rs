//! Online reallocation under workload drift (paper §8's "adaptive scheme").
//!
//! The paper treats re-optimization as an offline batch job; a serving
//! system must instead *track* a drifting workload. This module supplies
//! the optimization half of that loop:
//!
//! * [`HysteresisProblem`] — wraps any [`AllocationProblem`] and subtracts a
//!   movement cost `η·‖x − a‖₁` anchored at the previous allocation `a`, so
//!   re-solves don't thrash fragments back and forth when the workload
//!   wiggles. The kink of `|·|` is Huber-smoothed over a small width `μ`
//!   (a raw subgradient step oscillates in an `O(α·η)` band around the
//!   kink and the ε-criterion can never certify); at the anchor the
//!   penalty's value and gradient are both exactly zero, so the wrapper is
//!   transparent there — which is what makes the zero-drift fixed point
//!   *exact*: a warm start at an anchor that is already optimal terminates
//!   immediately, at the anchor.
//! * [`TrackingOptimizer`] — consumes a stream of per-epoch problems (same
//!   agents, drifted rates), re-solving each incrementally: the first epoch
//!   runs cold, every later epoch is warm-started from — and hysteresis-
//!   anchored at — the previous epoch's allocation via
//!   [`OptimizerScratch::start_from`]. Reported utilities are always the
//!   *true* (unpenalized) ones, so regret accounting is honest.
//! * [`MigrationPlanner`] — turns two successive allocations into a
//!   deterministic, bounded-bandwidth copy schedule: which fragment mass
//!   moves from which node to which, in rounds that each move at most the
//!   configured bandwidth.
//!
//! The runtime control loop (`fap_runtime::drift`) drives this against
//! seeded λ-trajectories and computes regret versus the per-epoch
//! clairvoyant optimum.

use fap_obs::Recorder;

use crate::error::EconError;
use crate::problem::{check_dimension, AllocationProblem};
use crate::resource_directed::{OptimizerScratch, ResourceDirectedOptimizer, Solution};

/// Default Huber-smoothing width `μ` for the hysteresis penalty.
///
/// Within `μ` of the anchor the penalty is quadratic (`d²/2μ` per
/// coordinate), outside it exactly `|d| − μ/2`; gradients are continuous
/// everywhere and *zero at the anchor*, so an already-optimal anchor still
/// terminates immediately. The width trades approximation error (≤ `η·μ/2`
/// per coordinate) against iteration stability: a fixed-step solve is
/// stable when `μ ≳ α·η`, so callers pairing a large η with a large step
/// should widen it via [`HysteresisProblem::with_smoothing`].
pub const DEFAULT_HYSTERESIS_SMOOTHING: f64 = 1e-2;

/// A movement-cost wrapper: maximizes `U(x) − η·Σ huber_μ(x_i − a_i)` for
/// an inner utility `U`, anchor `a` and hysteresis weight `η`, where
/// `huber_μ` is the Huber-smoothed absolute value (quadratic within `μ` of
/// the kink, linear outside).
///
/// At the anchor the wrapper is transparent — same utility, same marginals
/// — and far from it each coordinate's marginal shifts by exactly `∓η`,
/// the paper-style "price" of moving a fragment. Curvatures gain the
/// penalty's `−η/μ` inside the smoothing zone.
#[derive(Debug)]
pub struct HysteresisProblem<'a, P: ?Sized> {
    inner: &'a P,
    anchor: &'a [f64],
    eta: f64,
    mu: f64,
}

impl<'a, P: AllocationProblem + ?Sized> HysteresisProblem<'a, P> {
    /// Wraps `inner` with a movement cost `eta` anchored at `anchor`,
    /// smoothed over [`DEFAULT_HYSTERESIS_SMOOTHING`].
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a negative or non-finite
    /// `eta` and [`EconError::DimensionMismatch`] when the anchor's length
    /// differs from the problem dimension.
    pub fn new(inner: &'a P, anchor: &'a [f64], eta: f64) -> Result<Self, EconError> {
        if !eta.is_finite() || eta < 0.0 {
            return Err(EconError::InvalidParameter(format!(
                "hysteresis weight {eta} must be non-negative and finite"
            )));
        }
        check_dimension(inner.dimension(), anchor)?;
        Ok(HysteresisProblem { inner, anchor, eta, mu: DEFAULT_HYSTERESIS_SMOOTHING })
    }

    /// Overrides the Huber-smoothing width `μ`.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a non-positive or
    /// non-finite width.
    pub fn with_smoothing(mut self, mu: f64) -> Result<Self, EconError> {
        if !mu.is_finite() || mu <= 0.0 {
            return Err(EconError::InvalidParameter(format!(
                "smoothing width {mu} must be positive and finite"
            )));
        }
        self.mu = mu;
        Ok(self)
    }

    /// The hysteresis weight `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The Huber-smoothing width `μ`.
    pub fn smoothing(&self) -> f64 {
        self.mu
    }

    /// The anchor allocation `a`.
    pub fn anchor(&self) -> &[f64] {
        self.anchor
    }
}

impl<P: AllocationProblem + ?Sized> AllocationProblem for HysteresisProblem<'_, P> {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn total_resource(&self) -> f64 {
        self.inner.total_resource()
    }

    fn utility(&self, x: &[f64]) -> Result<f64, EconError> {
        let base = self.inner.utility(x)?;
        let mut movement = 0.0;
        for (xi, ai) in x.iter().zip(self.anchor) {
            let d = (xi - ai).abs();
            movement += if d <= self.mu { d * d / (2.0 * self.mu) } else { d - self.mu / 2.0 };
        }
        Ok(base - self.eta * movement)
    }

    fn marginal_utilities(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
        self.inner.marginal_utilities(x, out)?;
        for ((g, xi), ai) in out.iter_mut().zip(x).zip(self.anchor) {
            let d = xi - ai;
            *g -= self.eta * (d / self.mu).clamp(-1.0, 1.0);
        }
        Ok(())
    }

    fn curvatures(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
        self.inner.curvatures(x, out)?;
        for ((h, xi), ai) in out.iter_mut().zip(x).zip(self.anchor) {
            if (xi - ai).abs() < self.mu {
                *h -= self.eta / self.mu;
            }
        }
        Ok(())
    }
}

/// The result of one tracked epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedEpoch {
    /// The epoch index (0 for the cold first solve).
    pub epoch: usize,
    /// The allocation the tracker committed to for this epoch.
    pub allocation: Vec<f64>,
    /// The *true* (unpenalized) utility of [`TrackedEpoch::allocation`]
    /// under this epoch's problem.
    pub true_utility: f64,
    /// Utility of the objective actually optimized — equals
    /// [`TrackedEpoch::true_utility`] minus the movement penalty (and
    /// exactly equal on the cold first epoch).
    pub penalized_utility: f64,
    /// `‖x − a‖₁`: total fragment mass moved relative to the anchor
    /// (the previous epoch's allocation; the starting allocation on
    /// epoch 0).
    pub movement: f64,
    /// Iterations the re-solve took.
    pub iterations: usize,
    /// Whether the re-solve met a convergence criterion.
    pub converged: bool,
    /// Whether this epoch was warm-started (false only for epoch 0).
    pub warm: bool,
}

/// An incremental re-solver for a drifting sequence of allocation problems.
///
/// Feed it one problem per epoch (same agents, drifted parameters) via
/// [`TrackingOptimizer::track`]; it solves epoch 0 cold and every later
/// epoch as a warm-started solve of the [`HysteresisProblem`] anchored at
/// the previous epoch's allocation. With hysteresis `η = 0` tracking
/// degrades gracefully to plain warm-started re-solving.
///
/// # Example
///
/// ```
/// use fap_econ::problems::SeparableQuadratic;
/// use fap_econ::{ResourceDirectedOptimizer, StepSize, TrackingOptimizer};
/// use fap_obs::NoopRecorder;
///
/// let optimizer = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-9);
/// let mut tracker = TrackingOptimizer::new(optimizer, 0.01)?;
/// let initial = vec![1.0 / 3.0; 3];
/// for epoch in 0..3 {
///     // Drift the targets a little each epoch.
///     let drift = 0.02 * epoch as f64;
///     let problem = SeparableQuadratic::new(
///         vec![1.0; 3],
///         vec![0.5 + drift, 0.3, 0.2 - drift],
///         1.0,
///     )?;
///     let tracked = tracker.track(&problem, &initial, &mut NoopRecorder)?;
///     assert!(tracked.converged);
///     assert_eq!(tracked.warm, epoch > 0);
/// }
/// # Ok::<(), fap_econ::EconError>(())
/// ```
#[derive(Debug)]
pub struct TrackingOptimizer {
    optimizer: ResourceDirectedOptimizer,
    eta: f64,
    mu: f64,
    scratch: OptimizerScratch,
    previous: Option<Vec<f64>>,
    epochs: usize,
}

impl TrackingOptimizer {
    /// Creates a tracker running `optimizer` per epoch with hysteresis
    /// weight `eta`.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a negative or non-finite
    /// `eta`.
    pub fn new(optimizer: ResourceDirectedOptimizer, eta: f64) -> Result<Self, EconError> {
        if !eta.is_finite() || eta < 0.0 {
            return Err(EconError::InvalidParameter(format!(
                "hysteresis weight {eta} must be non-negative and finite"
            )));
        }
        Ok(TrackingOptimizer {
            optimizer,
            eta,
            mu: DEFAULT_HYSTERESIS_SMOOTHING,
            scratch: OptimizerScratch::new(),
            previous: None,
            epochs: 0,
        })
    }

    /// Overrides the penalty's Huber-smoothing width `μ` (see
    /// [`HysteresisProblem::with_smoothing`]).
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a non-positive or
    /// non-finite width.
    pub fn with_smoothing(mut self, mu: f64) -> Result<Self, EconError> {
        if !mu.is_finite() || mu <= 0.0 {
            return Err(EconError::InvalidParameter(format!(
                "smoothing width {mu} must be positive and finite"
            )));
        }
        self.mu = mu;
        Ok(self)
    }

    /// The hysteresis weight `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The penalty's Huber-smoothing width `μ`.
    pub fn smoothing(&self) -> f64 {
        self.mu
    }

    /// The number of epochs tracked so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The allocation the tracker is currently anchored at, if any.
    pub fn current(&self) -> Option<&[f64]> {
        self.previous.as_deref()
    }

    /// Forgets all tracking state; the next epoch solves cold again.
    pub fn reset(&mut self) {
        self.previous = None;
        self.epochs = 0;
        self.scratch.clear_warm_start();
    }

    /// Tracks one epoch: solves `problem`, warm-started from and
    /// hysteresis-anchored at the previous epoch's allocation (cold from
    /// `initial` on the first epoch or after [`TrackingOptimizer::reset`]),
    /// recording the `econ.*` instruments of
    /// [`ResourceDirectedOptimizer::run`] into `recorder`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResourceDirectedOptimizer::run`].
    pub fn track<P: AllocationProblem + ?Sized>(
        &mut self,
        problem: &P,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<TrackedEpoch, EconError> {
        let epoch = self.epochs;
        let (solution, anchor, warm) = match self.previous.take() {
            None => {
                let solution =
                    self.optimizer.run_with_scratch(problem, initial, &mut self.scratch, recorder)?;
                (solution, initial.to_vec(), false)
            }
            Some(anchor) => {
                let penalized =
                    HysteresisProblem::new(problem, &anchor, self.eta)?.with_smoothing(self.mu)?;
                self.scratch.start_from(&anchor);
                let solution = self.optimizer
                    .run_with_scratch(&penalized, &anchor, &mut self.scratch, recorder)?;
                (solution, anchor, true)
            }
        };
        let Solution { allocation, iterations, converged, final_utility, .. } = solution;
        let true_utility =
            if warm { problem.utility(&allocation)? } else { final_utility };
        let movement = l1_distance(&allocation, &anchor);
        self.previous = Some(allocation.clone());
        self.epochs = epoch + 1;
        Ok(TrackedEpoch {
            epoch,
            allocation,
            true_utility,
            penalized_utility: final_utility,
            movement,
            iterations,
            converged,
            warm,
        })
    }
}

/// `‖a − b‖₁` over equal-length slices.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// One scheduled copy: move `amount` of fragment mass from node `from` to
/// node `to`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MigrationStep {
    /// Source node (its allocation decreased).
    pub from: usize,
    /// Destination node (its allocation increased).
    pub to: usize,
    /// Fragment mass moved.
    pub amount: f64,
}

/// A bounded-bandwidth copy schedule between two allocations.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MigrationPlan {
    /// Rounds of concurrent copies; each round moves at most the planner's
    /// bandwidth in total.
    pub rounds: Vec<Vec<MigrationStep>>,
    /// Total fragment mass moved (`‖next − prev‖₁ / 2`).
    pub total_moved: f64,
}

impl MigrationPlan {
    /// Number of bandwidth-bounded rounds.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Number of individual copy steps across all rounds.
    pub fn step_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Mass below which an allocation delta is not worth scheduling a copy.
const MIGRATION_EPSILON: f64 = 1e-12;

/// Plans bounded-bandwidth migrations between successive allocations.
///
/// The planner is deterministic: sources (nodes whose allocation shrank)
/// and sinks (nodes whose allocation grew) are matched greedily in node
/// order, and the resulting transfer list is sliced into rounds of at most
/// `bandwidth` total mass — a transfer larger than the remaining round
/// budget is split across rounds.
#[derive(Debug, Clone)]
pub struct MigrationPlanner {
    bandwidth: f64,
}

impl MigrationPlanner {
    /// Creates a planner moving at most `bandwidth` fragment mass per round.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a non-positive or
    /// non-finite bandwidth.
    pub fn new(bandwidth: f64) -> Result<Self, EconError> {
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(EconError::InvalidParameter(format!(
                "migration bandwidth {bandwidth} must be positive and finite"
            )));
        }
        Ok(MigrationPlanner { bandwidth })
    }

    /// Per-round bandwidth.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Plans the copies that transform `prev` into `next`.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::DimensionMismatch`] when the allocations have
    /// different lengths.
    pub fn plan(&self, prev: &[f64], next: &[f64]) -> Result<MigrationPlan, EconError> {
        check_dimension(prev.len(), next)?;
        // Outstanding deficits and surpluses, in node order.
        let mut sources: Vec<(usize, f64)> = Vec::new();
        let mut sinks: Vec<(usize, f64)> = Vec::new();
        for (i, (p, n)) in prev.iter().zip(next).enumerate() {
            let d = n - p;
            if d < -MIGRATION_EPSILON {
                sources.push((i, -d));
            } else if d > MIGRATION_EPSILON {
                sinks.push((i, d));
            }
        }

        let mut plan = MigrationPlan::default();
        let mut round: Vec<MigrationStep> = Vec::new();
        let mut headroom = self.bandwidth;
        let (mut si, mut ti) = (0, 0);
        while si < sources.len() && ti < sinks.len() {
            let (from, available) = sources[si];
            let (to, needed) = sinks[ti];
            let amount = available.min(needed).min(headroom);
            round.push(MigrationStep { from, to, amount });
            plan.total_moved += amount;
            sources[si].1 -= amount;
            sinks[ti].1 -= amount;
            headroom -= amount;
            if sources[si].1 <= MIGRATION_EPSILON {
                si += 1;
            }
            if sinks[ti].1 <= MIGRATION_EPSILON {
                ti += 1;
            }
            if headroom <= MIGRATION_EPSILON && (si < sources.len() && ti < sinks.len()) {
                plan.rounds.push(std::mem::take(&mut round));
                headroom = self.bandwidth;
            }
        }
        if !round.is_empty() {
            plan.rounds.push(round);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::NoopRecorder;
    use crate::problems::SeparableQuadratic;
    use crate::step_size::StepSize;

    fn quad(targets: Vec<f64>) -> SeparableQuadratic {
        SeparableQuadratic::new(vec![1.0; targets.len()], targets, 1.0).unwrap()
    }

    fn optimizer() -> ResourceDirectedOptimizer {
        ResourceDirectedOptimizer::new(StepSize::Fixed(0.1))
            .with_epsilon(1e-10)
            .with_max_iterations(200_000)
    }

    #[test]
    fn hysteresis_is_transparent_at_the_anchor() {
        let p = quad(vec![0.5, 0.3, 0.2]);
        let anchor = [0.4, 0.35, 0.25];
        let h = HysteresisProblem::new(&p, &anchor, 0.7).unwrap();
        assert_eq!(h.utility(&anchor).unwrap(), p.utility(&anchor).unwrap());
        let mut gp = vec![0.0; 3];
        let mut gh = vec![0.0; 3];
        p.marginal_utilities(&anchor, &mut gp).unwrap();
        h.marginal_utilities(&anchor, &mut gh).unwrap();
        assert_eq!(gp, gh);
    }

    #[test]
    fn hysteresis_penalizes_movement_symmetrically() {
        let p = quad(vec![0.5, 0.3, 0.2]);
        let anchor = [1.0 / 3.0; 3];
        let eta = 0.25;
        let h = HysteresisProblem::new(&p, &anchor, eta).unwrap();
        let x = [0.5, 1.0 / 3.0, 1.0 / 6.0];
        // Both moved coordinates sit far outside the smoothing zone, where
        // the Huber penalty is exactly |d| − μ/2.
        let mu = h.smoothing();
        let penalty = (x[0] - anchor[0]).abs() - mu / 2.0 + (x[2] - anchor[2]).abs() - mu / 2.0;
        let expected = p.utility(&x).unwrap() - eta * penalty;
        assert!((h.utility(&x).unwrap() - expected).abs() < 1e-15);
        // Marginals shift by −η above the anchor, +η below it.
        let mut gp = vec![0.0; 3];
        let mut gh = vec![0.0; 3];
        p.marginal_utilities(&x, &mut gp).unwrap();
        h.marginal_utilities(&x, &mut gh).unwrap();
        assert_eq!(gh[0], gp[0] - eta);
        assert_eq!(gh[1], gp[1]);
        assert_eq!(gh[2], gp[2] + eta);
    }

    #[test]
    fn hysteresis_rejects_bad_parameters() {
        let p = quad(vec![0.5, 0.5]);
        let anchor = [0.5, 0.5];
        assert!(HysteresisProblem::new(&p, &anchor, -0.1).is_err());
        assert!(HysteresisProblem::new(&p, &anchor, f64::NAN).is_err());
        assert!(HysteresisProblem::new(&p, &[0.5], 0.1).is_err());
    }

    #[test]
    fn first_epoch_is_cold_then_warm() {
        let mut tracker = TrackingOptimizer::new(optimizer(), 0.01).unwrap();
        let initial = vec![1.0 / 3.0; 3];
        let first = tracker.track(&quad(vec![0.5, 0.3, 0.2]), &initial, &mut NoopRecorder).unwrap();
        assert_eq!(first.epoch, 0);
        assert!(!first.warm);
        assert!(first.converged);
        assert_eq!(first.true_utility, first.penalized_utility);
        let second =
            tracker.track(&quad(vec![0.45, 0.35, 0.2]), &initial, &mut NoopRecorder).unwrap();
        assert_eq!(second.epoch, 1);
        assert!(second.warm);
        assert!(second.converged);
        // Moving costs utility: the penalized objective is below the true one.
        assert!(second.penalized_utility <= second.true_utility + 1e-15);
        assert!(second.movement > 0.0);
    }

    #[test]
    fn recording_never_changes_the_tracked_epochs() {
        let epochs = [quad(vec![0.5, 0.3, 0.2]), quad(vec![0.45, 0.35, 0.2])];
        let initial = vec![1.0 / 3.0; 3];
        let mut plain = TrackingOptimizer::new(optimizer(), 0.01).unwrap();
        let mut observed = TrackingOptimizer::new(optimizer(), 0.01).unwrap();
        let mut tele = fap_obs::Telemetry::manual();
        for p in &epochs {
            let a = plain.track(p, &initial, &mut NoopRecorder).unwrap();
            let b = observed.track(p, &initial, &mut tele).unwrap();
            assert_eq!(a, b);
        }
        assert!(tele.registry().counter("econ.iterations") > 0);
    }

    #[test]
    fn zero_drift_keeps_the_allocation_fixed() {
        let p = quad(vec![0.5, 0.3, 0.2]);
        let mut tracker = TrackingOptimizer::new(optimizer(), 0.5).unwrap();
        let initial = vec![1.0 / 3.0; 3];
        let first = tracker.track(&p, &initial, &mut NoopRecorder).unwrap();
        let second = tracker.track(&p, &initial, &mut NoopRecorder).unwrap();
        assert_eq!(second.iterations, 0, "anchor already optimal: no steps");
        for (a, b) in first.allocation.iter().zip(&second.allocation) {
            assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
        }
        assert!((second.true_utility - first.true_utility).abs() <= 1e-12);
    }

    #[test]
    fn hysteresis_dampens_movement() {
        let a = quad(vec![0.5, 0.3, 0.2]);
        let b = quad(vec![0.4, 0.35, 0.25]);
        let initial = vec![1.0 / 3.0; 3];
        let movement = |eta: f64, mu: f64| {
            let mut tracker =
                TrackingOptimizer::new(optimizer(), eta).unwrap().with_smoothing(mu).unwrap();
            tracker.track(&a, &initial, &mut NoopRecorder).unwrap();
            tracker.track(&b, &initial, &mut NoopRecorder).unwrap().movement
        };
        // The quadratic's marginal slope is 2·k_i = 2: a penalty of η damps
        // each coordinate's move by η/2, and once η exceeds half the inner
        // marginal spread at the anchor (0.1 here) the penalized optimum
        // collapses into the smoothing zone — the allocation stays pinned
        // within O(μ) of the anchor. Stability needs μ ≳ α·η.
        let free = movement(0.0, 1e-2);
        let damped = movement(0.05, 1e-2);
        let frozen = movement(0.5, 5e-2);
        assert!(damped < free, "η must dampen movement: {damped} vs {free}");
        assert!(frozen < damped, "a dominating η pins the allocation: {frozen} vs {damped}");
        assert!(frozen < 0.06, "dominating η residual {frozen}");
    }

    #[test]
    fn reset_forgets_the_anchor() {
        let mut tracker = TrackingOptimizer::new(optimizer(), 0.1).unwrap();
        let initial = vec![1.0 / 3.0; 3];
        tracker.track(&quad(vec![0.5, 0.3, 0.2]), &initial, &mut NoopRecorder).unwrap();
        assert!(tracker.current().is_some());
        tracker.reset();
        assert_eq!(tracker.epochs(), 0);
        let again = tracker.track(&quad(vec![0.5, 0.3, 0.2]), &initial, &mut NoopRecorder).unwrap();
        assert!(!again.warm);
    }

    #[test]
    fn migration_plan_matches_deltas_and_respects_bandwidth() {
        let prev = [0.6, 0.3, 0.1, 0.0];
        let next = [0.2, 0.3, 0.25, 0.25];
        let planner = MigrationPlanner::new(0.15).unwrap();
        let plan = planner.plan(&prev, &next).unwrap();
        // Total moved is half the L1 distance (each unit leaves one node and
        // enters another).
        assert!((plan.total_moved - l1_distance(&prev, &next) / 2.0).abs() < 1e-12);
        // Each round within bandwidth.
        for round in &plan.rounds {
            let moved: f64 = round.iter().map(|s| s.amount).sum();
            assert!(moved <= 0.15 + 1e-12, "round moved {moved}");
        }
        // Applying the plan transforms prev into next.
        let mut state = prev.to_vec();
        for round in &plan.rounds {
            for step in round {
                state[step.from] -= step.amount;
                state[step.to] += step.amount;
            }
        }
        for (s, n) in state.iter().zip(&next) {
            assert!((s - n).abs() < 1e-12);
        }
        // ceil(0.4 / 0.15) = 3 rounds.
        assert_eq!(plan.round_count(), 3);
    }

    #[test]
    fn migration_plan_is_deterministic_and_ordered() {
        let prev = [0.5, 0.0, 0.5, 0.0];
        let next = [0.0, 0.5, 0.0, 0.5];
        let planner = MigrationPlanner::new(1.0).unwrap();
        let a = planner.plan(&prev, &next).unwrap();
        let b = planner.plan(&prev, &next).unwrap();
        assert_eq!(a, b);
        // Greedy in node order: node 0 fills node 1 first.
        assert_eq!(a.rounds[0][0], MigrationStep { from: 0, to: 1, amount: 0.5 });
        assert_eq!(a.rounds[0][1], MigrationStep { from: 2, to: 3, amount: 0.5 });
    }

    #[test]
    fn identical_allocations_need_no_migration() {
        let x = [0.25; 4];
        let plan = MigrationPlanner::new(0.1).unwrap().plan(&x, &x).unwrap();
        assert_eq!(plan.round_count(), 0);
        assert_eq!(plan.total_moved, 0.0);
    }

    #[test]
    fn migration_planner_rejects_bad_input() {
        assert!(MigrationPlanner::new(0.0).is_err());
        assert!(MigrationPlanner::new(f64::NEG_INFINITY).is_err());
        let planner = MigrationPlanner::new(0.1).unwrap();
        assert!(planner.plan(&[0.5, 0.5], &[1.0]).is_err());
    }
}
