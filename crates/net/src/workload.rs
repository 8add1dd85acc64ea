//! Access workloads.
//!
//! Each node `i` generates file accesses according to a Poisson process with
//! rate `λ_i` (paper §4). An [`AccessPattern`] holds the vector of rates and
//! provides the derived quantities the model needs (`λ = Σ λ_i`, per-node
//! shares). Generators cover the uniform workload of the paper's
//! experiments plus skewed and randomized workloads for the richer examples.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::graph::NodeId;

/// Per-node Poisson access rates `λ_i` with `λ_i ≥ 0` and `Σ λ_i > 0`.
///
/// # Example
///
/// ```
/// use fap_net::AccessPattern;
///
/// let w = AccessPattern::uniform(4, 1.0)?; // paper §6: λ = 1 split evenly
/// assert_eq!(w.total_rate(), 1.0);
/// assert_eq!(w.rate(fap_net::NodeId::new(2)), 0.25);
/// # Ok::<(), fap_net::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessPattern {
    lambdas: Vec<f64>,
}

impl AccessPattern {
    /// Creates a pattern from explicit per-node rates.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] if any rate is negative or
    /// non-finite, if the vector is empty, or if all rates are zero.
    pub fn new(lambdas: Vec<f64>) -> Result<Self, NetError> {
        if lambdas.is_empty() {
            return Err(NetError::InvalidWorkload("no nodes".into()));
        }
        for (i, &l) in lambdas.iter().enumerate() {
            if !l.is_finite() || l < 0.0 {
                return Err(NetError::InvalidWorkload(format!("rate {l} at node {i}")));
            }
        }
        if lambdas.iter().sum::<f64>() <= 0.0 {
            return Err(NetError::InvalidWorkload("total access rate is zero".into()));
        }
        Ok(AccessPattern { lambdas })
    }

    /// Splits a total network rate `λ` evenly over `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] for `n = 0` or a non-positive
    /// total rate.
    pub fn uniform(n: usize, total_rate: f64) -> Result<Self, NetError> {
        if n == 0 {
            return Err(NetError::InvalidWorkload("no nodes".into()));
        }
        if !total_rate.is_finite() || total_rate <= 0.0 {
            return Err(NetError::InvalidWorkload(format!("total rate {total_rate}")));
        }
        AccessPattern::new(vec![total_rate / n as f64; n])
    }

    /// A hotspot workload: node `hot` generates `hot_share` of the total
    /// rate, the rest is split evenly among the other nodes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] for invalid shares or rates and
    /// [`NetError::NodeOutOfRange`] for a hot node outside `0..n`.
    pub fn hotspot(n: usize, total_rate: f64, hot: NodeId, hot_share: f64) -> Result<Self, NetError> {
        if hot.index() >= n {
            return Err(NetError::NodeOutOfRange { node: hot.index(), node_count: n });
        }
        if !(0.0..=1.0).contains(&hot_share) {
            return Err(NetError::InvalidWorkload(format!("hot share {hot_share}")));
        }
        if !total_rate.is_finite() || total_rate <= 0.0 {
            return Err(NetError::InvalidWorkload(format!("total rate {total_rate}")));
        }
        let mut lambdas = if n > 1 {
            vec![total_rate * (1.0 - hot_share) / (n - 1) as f64; n]
        } else {
            vec![0.0; n]
        };
        lambdas[hot.index()] = if n > 1 {
            total_rate * hot_share
        } else {
            total_rate
        };
        AccessPattern::new(lambdas)
    }

    /// A Zipf-skewed workload: node `i` receives rate proportional to
    /// `1 / (i + 1)^exponent`, scaled so the rates sum to `total_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] for `n = 0`, a non-positive
    /// total rate, or a negative exponent.
    pub fn zipf(n: usize, total_rate: f64, exponent: f64) -> Result<Self, NetError> {
        if n == 0 {
            return Err(NetError::InvalidWorkload("no nodes".into()));
        }
        if !exponent.is_finite() || exponent < 0.0 {
            return Err(NetError::InvalidWorkload(format!("zipf exponent {exponent}")));
        }
        if !total_rate.is_finite() || total_rate <= 0.0 {
            return Err(NetError::InvalidWorkload(format!("total rate {total_rate}")));
        }
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(exponent)).collect();
        let sum: f64 = weights.iter().sum();
        AccessPattern::new(weights.into_iter().map(|w| total_rate * w / sum).collect())
    }

    /// A random workload: each node's rate is drawn uniformly from
    /// `rate_range`; deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] for `n = 0` or a range that is
    /// empty or includes negative rates.
    pub fn random(n: usize, rate_range: std::ops::Range<f64>, seed: u64) -> Result<Self, NetError> {
        if n == 0 {
            return Err(NetError::InvalidWorkload("no nodes".into()));
        }
        if rate_range.start < 0.0 || rate_range.end <= rate_range.start {
            return Err(NetError::InvalidWorkload(format!("rate range {rate_range:?}")));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        AccessPattern::new((0..n).map(|_| rng.random_range(rate_range.clone())).collect())
    }

    /// Number of nodes covered by this pattern.
    pub fn node_count(&self) -> usize {
        self.lambdas.len()
    }

    /// Rejects a pattern that does not cover exactly `nodes` nodes.
    pub(crate) fn check_node_count(&self, nodes: usize) -> Result<(), NetError> {
        if self.node_count() == nodes {
            Ok(())
        } else {
            Err(NetError::InvalidWorkload(format!(
                "workload covers {} nodes but the cost substrate covers {nodes}",
                self.node_count()
            )))
        }
    }

    /// The access rate `λ_i` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.lambdas[node.index()]
    }

    /// All per-node rates, indexed by node.
    pub fn rates(&self) -> &[f64] {
        &self.lambdas
    }

    /// The network-wide access rate `λ = Σ_i λ_i`.
    pub fn total_rate(&self) -> f64 {
        self.lambdas.iter().sum()
    }

    /// The share `λ_i / λ` of total traffic generated by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn share(&self, node: NodeId) -> f64 {
        self.rate(node) / self.total_rate()
    }

    /// Returns a copy with `node`'s rate replaced, for modeling drifting
    /// access statistics (paper §8: adaptive reallocation).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NodeOutOfRange`] for a bad node and
    /// [`NetError::InvalidWorkload`] if the change would make the workload
    /// invalid.
    pub fn with_rate(&self, node: NodeId, rate: f64) -> Result<Self, NetError> {
        if node.index() >= self.lambdas.len() {
            return Err(NetError::NodeOutOfRange {
                node: node.index(),
                node_count: self.lambdas.len(),
            });
        }
        let mut lambdas = self.lambdas.clone();
        lambdas[node.index()] = rate;
        AccessPattern::new(lambdas)
    }

    /// Returns a copy with every rate multiplied by `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] if `factor` is non-positive or
    /// non-finite.
    pub fn scaled(&self, factor: f64) -> Result<Self, NetError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(NetError::InvalidWorkload(format!("scale factor {factor}")));
        }
        AccessPattern::new(self.lambdas.iter().map(|l| l * factor).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_splits_rate() {
        let w = AccessPattern::uniform(4, 2.0).unwrap();
        assert_eq!(w.rates(), &[0.5, 0.5, 0.5, 0.5]);
        assert!((w.total_rate() - 2.0).abs() < 1e-12);
        assert!((w.share(NodeId::new(1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn new_rejects_bad_rates() {
        assert!(AccessPattern::new(vec![]).is_err());
        assert!(AccessPattern::new(vec![1.0, -0.5]).is_err());
        assert!(AccessPattern::new(vec![0.0, 0.0]).is_err());
        assert!(AccessPattern::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn hotspot_gives_requested_share() {
        let w = AccessPattern::hotspot(5, 10.0, NodeId::new(2), 0.6).unwrap();
        assert!((w.rate(NodeId::new(2)) - 6.0).abs() < 1e-12);
        assert!((w.total_rate() - 10.0).abs() < 1e-12);
        assert!((w.rate(NodeId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_single_node_takes_everything() {
        let w = AccessPattern::hotspot(1, 3.0, NodeId::new(0), 0.5).unwrap();
        assert_eq!(w.rates(), &[3.0]);
    }

    #[test]
    fn hotspot_validates() {
        assert!(AccessPattern::hotspot(3, 1.0, NodeId::new(5), 0.5).is_err());
        assert!(AccessPattern::hotspot(3, 1.0, NodeId::new(0), 1.5).is_err());
        assert!(AccessPattern::hotspot(3, -1.0, NodeId::new(0), 0.5).is_err());
    }

    #[test]
    fn zipf_is_decreasing_and_sums_to_total() {
        let w = AccessPattern::zipf(6, 4.0, 1.0).unwrap();
        assert!((w.total_rate() - 4.0).abs() < 1e-12);
        for i in 1..6 {
            assert!(w.rate(NodeId::new(i)) < w.rate(NodeId::new(i - 1)));
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let w = AccessPattern::zipf(4, 1.0, 0.0).unwrap();
        for i in 0..4 {
            assert!((w.rate(NodeId::new(i)) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn random_is_deterministic() {
        let a = AccessPattern::random(6, 0.5..2.0, 7).unwrap();
        let b = AccessPattern::random(6, 0.5..2.0, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn with_rate_replaces_one_rate() {
        let w = AccessPattern::uniform(3, 3.0).unwrap();
        let w2 = w.with_rate(NodeId::new(1), 5.0).unwrap();
        assert_eq!(w2.rates(), &[1.0, 5.0, 1.0]);
        // original untouched
        assert_eq!(w.rates(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn scaled_preserves_shares() {
        let w = AccessPattern::new(vec![1.0, 3.0]).unwrap();
        let s = w.scaled(2.0).unwrap();
        assert!((s.total_rate() - 8.0).abs() < 1e-12);
        assert!((s.share(NodeId::new(1)) - w.share(NodeId::new(1))).abs() < 1e-12);
        assert!(w.scaled(0.0).is_err());
    }

    proptest! {
        /// Shares always sum to one for valid patterns.
        #[test]
        fn shares_sum_to_one(rates in proptest::collection::vec(0.01f64..10.0, 1..20)) {
            let w = AccessPattern::new(rates).unwrap();
            let total: f64 = (0..w.node_count()).map(|i| w.share(NodeId::new(i))).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
