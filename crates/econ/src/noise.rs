//! Robustness to marginal-utility estimation error (paper §8).
//!
//! "The performance of such an adaptive scheme … would crucially depend on
//! the ability of all nodes to accurately estimate the values for changing
//! system parameters i.e. compute the partial derivatives required by the
//! algorithm. We note that recent developments in the area of perturbation
//! analysis may provide an accurate means for estimating these partial
//! derivatives."
//!
//! In a deployed system the marginals come from measurement, not formulas.
//! [`NoisyProblem`] wraps any [`AllocationProblem`] and perturbs each
//! reported marginal utility by a deterministic pseudo-random relative
//! error, letting the tests and benches quantify how much estimation error
//! the algorithm tolerates: the iteration still drives the allocation into
//! a neighborhood of the optimum whose radius scales with the noise level.

use std::cell::Cell;

use crate::error::EconError;
use crate::problem::{check_dimension, AllocationProblem};

/// A wrapper injecting bounded relative noise into marginal utilities.
///
/// The utility and curvature pass through exactly (so traces report true
/// costs); only the *reported marginals* — the quantities real nodes would
/// estimate — are perturbed. Noise is deterministic for a given seed and
/// call sequence (SplitMix64 over a call counter), so experiments are
/// reproducible.
///
/// # Example
///
/// ```
/// use fap_econ::noise::NoisyProblem;
/// use fap_econ::problems::SeparableQuadratic;
/// use fap_econ::{AllocationProblem, ResourceDirectedOptimizer, StepSize};
/// use fap_obs::NoopRecorder;
///
/// let exact = SeparableQuadratic::new(vec![1.0; 3], vec![0.5, 0.3, 0.2], 1.0)?;
/// let noisy = NoisyProblem::new(&exact, 0.05, 7)?; // ±5% marginal error
/// let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
///     .with_max_iterations(500)
///     .run(&noisy, &[1.0, 0.0, 0.0], &mut NoopRecorder)?;
/// // The true cost still lands close to the optimum (0 for this problem).
/// assert!(exact.cost(&s.allocation)? < 1e-3);
/// # Ok::<(), fap_econ::EconError>(())
/// ```
#[derive(Debug)]
pub struct NoisyProblem<'a, P> {
    inner: &'a P,
    relative_level: f64,
    counter: Cell<u64>,
    seed: u64,
}

impl<'a, P: AllocationProblem> NoisyProblem<'a, P> {
    /// Wraps `inner`, perturbing each marginal by a uniform relative error
    /// in `[−relative_level, +relative_level]`.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a negative or non-finite
    /// level.
    pub fn new(inner: &'a P, relative_level: f64, seed: u64) -> Result<Self, EconError> {
        if !relative_level.is_finite() || relative_level < 0.0 {
            return Err(EconError::InvalidParameter(format!(
                "noise level {relative_level} must be non-negative"
            )));
        }
        Ok(NoisyProblem { inner, relative_level, counter: Cell::new(0), seed })
    }

    /// The configured relative noise level.
    pub fn relative_level(&self) -> f64 {
        self.relative_level
    }

    /// A uniform variate in `[−1, 1]` from SplitMix64 over the call counter.
    fn unit_noise(&self, lane: u64) -> f64 {
        let n = self.counter.get();
        self.counter.set(n + 1);
        let mut z = self
            .seed
            .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Map the top 53 bits to [0, 1), then to [−1, 1].
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

impl<P: AllocationProblem> AllocationProblem for NoisyProblem<'_, P> {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn total_resource(&self) -> f64 {
        self.inner.total_resource()
    }

    fn utility(&self, x: &[f64]) -> Result<f64, EconError> {
        self.inner.utility(x)
    }

    fn marginal_utilities(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
        check_dimension(self.dimension(), out)?;
        self.inner.marginal_utilities(x, out)?;
        for (i, g) in out.iter_mut().enumerate() {
            *g *= 1.0 + self.relative_level * self.unit_noise(i as u64);
        }
        Ok(())
    }

    fn curvatures(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
        self.inner.curvatures(x, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::NoopRecorder;
    use crate::problems::SeparableQuadratic;
    use crate::resource_directed::ResourceDirectedOptimizer;
    use crate::step_size::StepSize;

    fn quad() -> SeparableQuadratic {
        SeparableQuadratic::new(vec![1.0, 2.0, 4.0], vec![0.5, 0.4, 0.3], 1.0).unwrap()
    }

    #[test]
    fn zero_noise_is_transparent() {
        let p = quad();
        let noisy = NoisyProblem::new(&p, 0.0, 1).unwrap();
        let x = [0.3, 0.3, 0.4];
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        p.marginal_utilities(&x, &mut a).unwrap();
        noisy.marginal_utilities(&x, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(p.utility(&x).unwrap(), noisy.utility(&x).unwrap());
    }

    #[test]
    fn rejects_invalid_level() {
        let p = quad();
        assert!(NoisyProblem::new(&p, -0.1, 0).is_err());
        assert!(NoisyProblem::new(&p, f64::NAN, 0).is_err());
    }

    #[test]
    fn noise_is_bounded_and_seed_dependent() {
        let p = quad();
        let x = [0.3, 0.3, 0.4];
        let mut exact = vec![0.0; 3];
        p.marginal_utilities(&x, &mut exact).unwrap();
        let noisy = NoisyProblem::new(&p, 0.1, 3).unwrap();
        let mut g = vec![0.0; 3];
        for _ in 0..50 {
            noisy.marginal_utilities(&x, &mut g).unwrap();
            for (gi, ei) in g.iter().zip(&exact) {
                assert!((gi - ei).abs() <= 0.1 * ei.abs() + 1e-15);
            }
        }
        // Different seeds perturb differently.
        let a = NoisyProblem::new(&p, 0.1, 1).unwrap();
        let b = NoisyProblem::new(&p, 0.1, 2).unwrap();
        let mut ga = vec![0.0; 3];
        let mut gb = vec![0.0; 3];
        a.marginal_utilities(&x, &mut ga).unwrap();
        b.marginal_utilities(&x, &mut gb).unwrap();
        assert_ne!(ga, gb);
    }

    #[test]
    fn same_seed_and_sequence_reproduce_exactly() {
        let p = quad();
        let x = [0.5, 0.25, 0.25];
        let run = |seed: u64| {
            let noisy = NoisyProblem::new(&p, 0.2, seed).unwrap();
            let mut g = vec![0.0; 3];
            let mut history = Vec::new();
            for _ in 0..5 {
                noisy.marginal_utilities(&x, &mut g).unwrap();
                history.push(g.clone());
            }
            history
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn optimizer_reaches_optimum_neighborhood_under_noise() {
        let p = quad();
        let exact = p.analytic_optimum();
        for (level, tolerance) in [(0.02, 5e-3), (0.10, 3e-2)] {
            let noisy = NoisyProblem::new(&p, level, 11).unwrap();
            let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
                .with_max_iterations(2_000)
                .run(&noisy, &[1.0, 0.0, 0.0], &mut NoopRecorder)
                .unwrap();
            // The true cost gap shrinks to a noise-sized neighborhood.
            let gap = p.cost(&s.allocation).unwrap() - p.cost(&exact).unwrap();
            assert!(gap >= -1e-9);
            assert!(gap < tolerance, "level {level}: gap {gap}");
        }
    }

    #[test]
    fn heavier_noise_leaves_a_larger_residual() {
        let p = quad();
        let exact = p.analytic_optimum();
        let residual = |level: f64| {
            let noisy = NoisyProblem::new(&p, level, 5).unwrap();
            let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
                .with_max_iterations(2_000)
                .run(&noisy, &[1.0, 0.0, 0.0], &mut NoopRecorder)
                .unwrap();
            p.cost(&s.allocation).unwrap() - p.cost(&exact).unwrap()
        };
        assert!(residual(0.2) > residual(0.01));
    }
}
