//! Microeconomic resource-allocation algorithms.
//!
//! This crate implements the optimization machinery of Kurose & Simha,
//! *A Microeconomic Approach to Optimal File Allocation* (ICDCS 1986),
//! generically over any [`AllocationProblem`] — a concave utility over a
//! fixed amount of a divisible resource spread across `N` agents
//! (`Σ x_i = total`, `x_i ≥ 0`).
//!
//! The algorithms:
//!
//! * [`ResourceDirectedOptimizer`] — the paper's decentralized
//!   *resource-directed* (Heal-style) iteration: each agent computes its
//!   marginal utility, the agents average them, and the allocation moves
//!   toward agents with above-average marginal utility
//!   (`Δx_i = α (∂U/∂x_i − avg)`), with the paper's §5.2 "set A" procedure
//!   available to keep allocations non-negative. Feasibility is preserved
//!   exactly at every iteration and utility increases monotonically for
//!   suitable step sizes (paper Theorems 1–4).
//! * [`SecondOrderOptimizer`] — the §8.2 future-work variant using second
//!   derivative information (curvature-scaled steps), which is resilient to
//!   rescaling of the problem and tolerant of step-size choice.
//! * [`GossipOptimizer`] — the §8.2 "neighbours-only" variant: agents
//!   exchange marginal utilities only with graph neighbors; feasibility is
//!   still exact by pairwise-symmetric transfers.
//! * [`PriceDirectedOptimizer`] — the §2 *price-directed* (tâtonnement)
//!   baseline, included to demonstrate the drawbacks the paper lists:
//!   intermediate infeasibility and non-monotone utility.
//!
//! # Example
//!
//! Equalize marginal utilities of a separable quadratic utility:
//!
//! ```
//! use fap_econ::{problems::SeparableQuadratic, AllocationProblem,
//!                ResourceDirectedOptimizer, StepSize};
//! use fap_obs::NoopRecorder;
//!
//! // U(x) = -Σ (x_i - t_i)², total resource 1.
//! let problem = SeparableQuadratic::new(vec![1.0, 1.0, 1.0], vec![0.6, 0.3, 0.3], 1.0)?;
//! let optimizer = ResourceDirectedOptimizer::new(StepSize::Fixed(0.2)).with_epsilon(1e-7);
//! let solution = optimizer.run(&problem, &[1.0, 0.0, 0.0], &mut NoopRecorder)?;
//! assert!(solution.converged);
//! // Optimum shifts each target down equally to satisfy Σ x = 1.
//! let expected = [0.6 - 0.2 / 3.0, 0.3 - 0.2 / 3.0, 0.3 - 0.2 / 3.0];
//! for (xi, ei) in solution.allocation.iter().zip(expected) {
//!     assert!((xi - ei).abs() < 1e-4);
//! }
//! # Ok::<(), fap_econ::EconError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod convergence;
pub mod error;
pub mod gossip;
pub mod noise;
pub mod price_directed;
pub mod problem;
pub mod problems;
pub mod projection;
pub mod resource_directed;
pub mod second_order;
pub mod step_size;
pub mod trace;
pub mod tracking;

pub use convergence::{marginal_spread, OscillationDetector};
pub use error::EconError;
pub use gossip::{GossipOptimizer, Neighborhood};
pub use noise::NoisyProblem;
pub use price_directed::{DemandFunction, PriceDirectedOptimizer, PriceSolution};
pub use problem::AllocationProblem;
pub use projection::{project_onto_simplex, BoundaryRule, StepWorkspace};
pub use resource_directed::{OptimizerScratch, ResourceDirectedOptimizer, Solution, Termination};
pub use second_order::SecondOrderOptimizer;
pub use step_size::StepSize;
pub use trace::{IterationRecord, Trace};
pub use tracking::{
    HysteresisProblem, MigrationPlan, MigrationPlanner, MigrationStep, TrackedEpoch,
    TrackingOptimizer,
};
