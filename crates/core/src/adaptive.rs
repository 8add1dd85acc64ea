//! Adaptive reallocation under drifting access statistics (paper §8).
//!
//! "One can easily envision a system where the algorithm is run occasionally
//! at night (or whenever the system is lightly loaded) to gradually improve
//! the allocation. The possibility also exists of using the algorithm to
//! adaptively change the file allocation as the nodal file access
//! characteristics change dynamically."
//!
//! [`AdaptiveAllocator`] keeps the current allocation between epochs: when
//! access statistics change it rebuilds the objective and warm-starts the
//! decentralized iteration from the current allocation (which remains
//! feasible — feasibility does not depend on the workload). Because every
//! iteration produces a feasible, better allocation, an epoch may be stopped
//! after any budget of iterations and the intermediate allocation deployed.

use fap_batch::Parallelism;
use fap_econ::{ResourceDirectedOptimizer, Solution, StepSize};
use fap_net::{AccessPattern, CostMatrix, Graph};
use fap_obs::NoopRecorder;

use crate::error::CoreError;
use crate::single::SingleFileProblem;

/// Maintains a file allocation across workload epochs.
///
/// # Example
///
/// ```
/// use fap_core::AdaptiveAllocator;
/// use fap_econ::StepSize;
/// use fap_net::{topology, AccessPattern, NodeId};
///
/// let graph = topology::ring(4, 1.0)?;
/// let mut alloc = AdaptiveAllocator::new(&graph, 1.5, 1.0, StepSize::Fixed(0.1))?;
///
/// // Epoch 1: uniform traffic → even spread.
/// alloc.observe(AccessPattern::uniform(4, 1.0)?)?;
/// let s = alloc.reoptimize(1_000)?;
/// assert!(s.converged);
///
/// // Epoch 2: node 2 becomes hot → its share grows, warm-started.
/// alloc.observe(AccessPattern::hotspot(4, 1.0, NodeId::new(2), 0.7)?)?;
/// let s = alloc.reoptimize(1_000)?;
/// assert!(s.converged);
/// assert!(alloc.allocation()[2] > 0.25);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveAllocator {
    costs: CostMatrix,
    mu: f64,
    k: f64,
    step: StepSize,
    epsilon: f64,
    pattern: Option<AccessPattern>,
    allocation: Vec<f64>,
    epochs: usize,
}

impl AdaptiveAllocator {
    /// Creates an allocator for `graph` with M/M/1 nodes of rate `mu`,
    /// delay weight `k`, and the given step policy. The initial allocation
    /// is the even split.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] for a disconnected graph and
    /// [`CoreError::InvalidParameter`] for invalid parameters.
    pub fn new(graph: &Graph, mu: f64, k: f64, step: StepSize) -> Result<Self, CoreError> {
        if !mu.is_finite() || mu <= 0.0 {
            return Err(CoreError::InvalidParameter(format!("mu {mu}")));
        }
        if !k.is_finite() || k < 0.0 {
            return Err(CoreError::InvalidParameter(format!("k {k}")));
        }
        step.validate()?;
        let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)?;
        let n = costs.node_count();
        Ok(AdaptiveAllocator {
            costs,
            mu,
            k,
            step,
            epsilon: 1e-6,
            pattern: None,
            allocation: vec![1.0 / n as f64; n],
            epochs: 0,
        })
    }

    /// Sets the convergence tolerance used by each epoch (default `1e-6`).
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Records the latest measured access statistics; the next
    /// [`AdaptiveAllocator::reoptimize`] call uses them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the pattern's node count
    /// differs from the network's.
    pub fn observe(&mut self, pattern: AccessPattern) -> Result<(), CoreError> {
        if pattern.node_count() != self.costs.node_count() {
            return Err(CoreError::InvalidParameter(format!(
                "pattern covers {} nodes, network has {}",
                pattern.node_count(),
                self.costs.node_count()
            )));
        }
        self.pattern = Some(pattern);
        Ok(())
    }

    /// Runs one optimization epoch (at most `iteration_budget` steps) from
    /// the current allocation against the most recently observed workload,
    /// and adopts the result.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if no workload has been
    /// observed yet, plus any model/optimizer error.
    pub fn reoptimize(&mut self, iteration_budget: usize) -> Result<Solution, CoreError> {
        let pattern = self.pattern.as_ref().ok_or_else(|| {
            CoreError::InvalidParameter("no access pattern observed yet".into())
        })?;
        let problem =
            SingleFileProblem::mm1_with_costs(&self.costs, pattern, self.mu, self.k)?;
        let solution = ResourceDirectedOptimizer::new(self.step.clone())
            .with_epsilon(self.epsilon)
            .with_max_iterations(iteration_budget)
            .run(&problem, &self.allocation, &mut NoopRecorder)?;
        self.allocation.clone_from(&solution.allocation);
        self.epochs += 1;
        Ok(solution)
    }

    /// The current (deployable) allocation.
    pub fn allocation(&self) -> &[f64] {
        &self.allocation
    }

    /// Number of completed optimization epochs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::{topology, NodeId};

    fn allocator() -> AdaptiveAllocator {
        let graph = topology::ring(4, 1.0).unwrap();
        AdaptiveAllocator::new(&graph, 1.5, 1.0, StepSize::Fixed(0.1)).unwrap()
    }

    #[test]
    fn starts_even_and_requires_an_observation() {
        let mut a = allocator();
        assert_eq!(a.allocation(), &[0.25; 4]);
        assert!(matches!(a.reoptimize(100), Err(CoreError::InvalidParameter(_))));
    }

    #[test]
    fn tracks_a_moving_hotspot() {
        let mut a = allocator().with_epsilon(1e-7);
        a.observe(AccessPattern::uniform(4, 1.0).unwrap()).unwrap();
        a.reoptimize(10_000).unwrap();
        let even = a.allocation().to_vec();
        for v in &even {
            assert!((v - 0.25).abs() < 1e-3);
        }

        a.observe(AccessPattern::hotspot(4, 1.0, NodeId::new(2), 0.8).unwrap()).unwrap();
        let s = a.reoptimize(10_000).unwrap();
        assert!(s.converged);
        let hot = a.allocation().to_vec();
        assert!(hot[2] > 0.26, "{hot:?}");

        // Hotspot moves on.
        a.observe(AccessPattern::hotspot(4, 1.0, NodeId::new(0), 0.8).unwrap()).unwrap();
        a.reoptimize(10_000).unwrap();
        assert!(a.allocation()[0] > a.allocation()[2]);
        assert_eq!(a.epochs(), 3);
    }

    #[test]
    fn warm_start_converges_faster_than_cold_start() {
        let graph = topology::ring(6, 1.0).unwrap();
        let mut a =
            AdaptiveAllocator::new(&graph, 1.5, 1.0, StepSize::Fixed(0.1)).unwrap().with_epsilon(1e-8);
        a.observe(AccessPattern::hotspot(6, 1.0, NodeId::new(1), 0.5).unwrap()).unwrap();
        a.reoptimize(100_000).unwrap();

        // Small drift: warm start should take far fewer iterations than the
        // same optimization from the even split.
        let drifted = AccessPattern::hotspot(6, 1.0, NodeId::new(1), 0.55).unwrap();
        a.observe(drifted.clone()).unwrap();
        let warm = a.reoptimize(100_000).unwrap();

        let mut cold_alloc =
            AdaptiveAllocator::new(&graph, 1.5, 1.0, StepSize::Fixed(0.1)).unwrap().with_epsilon(1e-8);
        cold_alloc.observe(drifted).unwrap();
        let cold = cold_alloc.reoptimize(100_000).unwrap();

        assert!(warm.converged && cold.converged);
        assert!(warm.iterations < cold.iterations, "{} vs {}", warm.iterations, cold.iterations);
    }

    #[test]
    fn budgeted_epochs_still_improve() {
        // §8's "run at night": a tiny budget still yields a feasible, better
        // allocation.
        let mut a = allocator();
        a.observe(AccessPattern::hotspot(4, 1.0, NodeId::new(3), 0.9).unwrap()).unwrap();
        let s = a.reoptimize(3).unwrap();
        assert!(!s.converged);
        assert!(s.trace.records()[0].utility < s.final_utility);
        let sum: f64 = a.allocation().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_mismatched_pattern() {
        let mut a = allocator();
        assert!(a.observe(AccessPattern::uniform(5, 1.0).unwrap()).is_err());
    }

    #[test]
    fn validates_construction() {
        let graph = topology::ring(4, 1.0).unwrap();
        assert!(AdaptiveAllocator::new(&graph, 0.0, 1.0, StepSize::Fixed(0.1)).is_err());
        assert!(AdaptiveAllocator::new(&graph, 1.5, -1.0, StepSize::Fixed(0.1)).is_err());
        assert!(AdaptiveAllocator::new(&graph, 1.5, 1.0, StepSize::Fixed(0.0)).is_err());
    }
}
