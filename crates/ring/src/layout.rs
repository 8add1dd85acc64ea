//! The virtual-ring model.
//!
//! A virtual ring is "constructed from an arbitrary network by imposing an
//! ordering on the nodes and establishing a protocol of communication that
//! embeds this ordering" (§7.2): node `i` communicates directly only with
//! node `i + 1 (mod N)`. File accesses travel forward around the ring, so
//! the cost for node `i` to reach node `j` is the sum of the link costs
//! along the forward path.

use serde::{Deserialize, Serialize};

use crate::error::RingError;

/// An `N`-node unidirectional virtual ring holding `m` copies of one file.
///
/// `link_costs[i]` is the cost of the directed link `i → (i+1) mod N`;
/// `lambdas[i]` the Poisson access rate generated at node `i`; `mus[i]` the
/// M/M/1 service rate at node `i`; `copies` the (real-valued) total amount
/// of file in the system (`Σ x_i = copies`); `k` the delay weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualRing {
    link_costs: Vec<f64>,
    lambdas: Vec<f64>,
    mus: Vec<f64>,
    copies: f64,
    k: f64,
}

impl VirtualRing {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidParameter`] for fewer than 3 nodes,
    /// mismatched vector lengths, negative link costs or rates, non-positive
    /// service rates, `copies < 1`, or negative `k`.
    pub fn new(
        link_costs: Vec<f64>,
        lambdas: Vec<f64>,
        mus: Vec<f64>,
        copies: f64,
        k: f64,
    ) -> Result<Self, RingError> {
        let n = link_costs.len();
        if n < 3 {
            return Err(RingError::InvalidParameter(format!("ring needs ≥ 3 nodes, got {n}")));
        }
        if lambdas.len() != n || mus.len() != n {
            return Err(RingError::InvalidParameter(format!(
                "{n} links, {} rates, {} service rates",
                lambdas.len(),
                mus.len()
            )));
        }
        if link_costs.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(RingError::InvalidParameter("link costs must be non-negative".into()));
        }
        if lambdas.iter().any(|l| !l.is_finite() || *l < 0.0)
            || lambdas.iter().sum::<f64>() <= 0.0
        {
            return Err(RingError::InvalidParameter(
                "access rates must be non-negative with a positive total".into(),
            ));
        }
        if mus.iter().any(|m| !m.is_finite() || *m <= 0.0) {
            return Err(RingError::InvalidParameter("service rates must be positive".into()));
        }
        if !copies.is_finite() || copies < 1.0 {
            return Err(RingError::InvalidParameter(format!(
                "copies {copies} must be at least 1 (a full file must exist)"
            )));
        }
        if !k.is_finite() || k < 0.0 {
            return Err(RingError::InvalidParameter(format!("delay weight k = {k}")));
        }
        Ok(VirtualRing { link_costs, lambdas, mus, copies, k })
    }

    /// Builds the ring over an arbitrary network's cost substrate: the
    /// §7.2 construction "imposes an ordering on the nodes" — here the
    /// provider's node order — and prices each virtual link `i → i+1
    /// (mod N)` at the substrate's cheapest-path cost between those
    /// nodes. Runs on any [`fap_net::CostProvider`]: exact with the
    /// dense matrix, hub-estimated with the landmark oracle — which is
    /// what lets ring problems ride the sparse substrate at node counts
    /// where the dense matrix no longer fits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VirtualRing::new`] (the derived link costs
    /// are finite and non-negative by the provider contract, but the
    /// ring still needs ≥ 3 nodes, matching vectors, and valid
    /// `copies`/`k`).
    pub fn from_provider(
        costs: &(impl fap_net::CostProvider + ?Sized),
        lambdas: Vec<f64>,
        mus: Vec<f64>,
        copies: f64,
        k: f64,
    ) -> Result<Self, RingError> {
        let n = costs.node_count();
        let link_costs: Vec<f64> = (0..n)
            .map(|i| {
                costs.cost(fap_net::NodeId::new(i), fap_net::NodeId::new((i + 1) % n))
            })
            .collect();
        VirtualRing::new(link_costs, lambdas, mus, copies, k)
    }

    /// Number of nodes `N`.
    pub fn node_count(&self) -> usize {
        self.link_costs.len()
    }

    /// The number of copies `m` (`Σ x_i = m`).
    pub fn copies(&self) -> f64 {
        self.copies
    }

    /// The delay weight `k`.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Per-node access rates.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Per-node service rates.
    pub fn mus(&self) -> &[f64] {
        &self.mus
    }

    /// Per-link costs (`link_costs[i]` is `i → i+1`).
    pub fn link_costs(&self) -> &[f64] {
        &self.link_costs
    }

    /// The forward-path cost from `from` to `to` (0 when equal).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn forward_cost(&self, from: usize, to: usize) -> f64 {
        let n = self.node_count();
        assert!(from < n && to < n, "node out of range");
        let mut cost = 0.0;
        let mut at = from;
        while at != to {
            cost += self.link_costs[at];
            at = (at + 1) % n;
        }
        cost
    }

    /// Validates an allocation's shape and feasibility (`Σ x_i = copies`,
    /// `x_i ≥ 0`).
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Model`] on violation.
    pub fn check_allocation(&self, x: &[f64]) -> Result<(), RingError> {
        if x.len() != self.node_count() {
            return Err(RingError::Model(format!(
                "allocation has {} entries for {} nodes",
                x.len(),
                self.node_count()
            )));
        }
        if x.iter().any(|v| !v.is_finite() || *v < -1e-9) {
            return Err(RingError::Model("allocation entries must be non-negative".into()));
        }
        let sum: f64 = x.iter().sum();
        if (sum - self.copies).abs() > 1e-6 {
            return Err(RingError::Model(format!(
                "allocation sums to {sum}, expected {} copies",
                self.copies
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::Parallelism;
    use fap_obs::NoopRecorder;

    #[test]
    fn validates_construction() {
        assert!(VirtualRing::new(vec![1.0; 2], vec![1.0; 2], vec![1.0; 2], 1.0, 1.0).is_err());
        assert!(VirtualRing::new(vec![1.0; 4], vec![1.0; 3], vec![1.0; 4], 1.0, 1.0).is_err());
        assert!(VirtualRing::new(vec![-1.0, 1.0, 1.0], vec![1.0; 3], vec![1.0; 3], 1.0, 1.0)
            .is_err());
        assert!(VirtualRing::new(vec![1.0; 3], vec![0.0; 3], vec![1.0; 3], 1.0, 1.0).is_err());
        assert!(VirtualRing::new(vec![1.0; 3], vec![1.0; 3], vec![0.0; 3], 1.0, 1.0).is_err());
        assert!(VirtualRing::new(vec![1.0; 3], vec![1.0; 3], vec![1.0; 3], 0.5, 1.0).is_err());
        assert!(VirtualRing::new(vec![1.0; 3], vec![1.0; 3], vec![1.0; 3], 1.0, -1.0).is_err());
        assert!(VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).is_ok());
    }

    #[test]
    fn forward_cost_accumulates_around_the_ring() {
        let ring =
            VirtualRing::new(vec![2.0, 3.0, 4.0, 5.0], vec![1.0; 4], vec![10.0; 4], 1.0, 1.0)
                .unwrap();
        assert_eq!(ring.forward_cost(0, 0), 0.0);
        assert_eq!(ring.forward_cost(0, 1), 2.0);
        assert_eq!(ring.forward_cost(0, 3), 9.0);
        // Wrapping: 3 → 0 uses only the last link; 1 → 0 wraps 3+4+5.
        assert_eq!(ring.forward_cost(3, 0), 5.0);
        assert_eq!(ring.forward_cost(1, 0), 12.0);
    }

    #[test]
    fn from_provider_prices_links_at_substrate_costs() {
        // A physical 5-ring with unit links: the dense substrate prices
        // every virtual forward link at the direct-hop cost.
        let g = fap_net::topology::ring(5, 2.0).unwrap();
        let costs = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let ring =
            VirtualRing::from_provider(&costs, vec![1.0; 5], vec![2.0; 5], 1.0, 1.0).unwrap();
        assert_eq!(ring.link_costs(), &[2.0; 5]);
        // The sparse oracle serves the same construction; its ALT bound
        // never undercuts the true cheapest path.
        let oracle = fap_net::LandmarkOracle::build(&g, 2, 1).unwrap();
        let sparse =
            VirtualRing::from_provider(&oracle, vec![1.0; 5], vec![2.0; 5], 1.0, 1.0).unwrap();
        for (s, d) in sparse.link_costs().iter().zip(ring.link_costs()) {
            assert!(s >= d);
        }
        // Too few nodes still fails ring validation.
        let tiny = fap_net::topology::full_mesh(2, 1.0).unwrap()
            .shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert!(VirtualRing::from_provider(&tiny, vec![1.0; 2], vec![2.0; 2], 1.0, 1.0).is_err());
    }

    #[test]
    fn check_allocation_enforces_copies() {
        let ring = VirtualRing::new(vec![1.0; 4], vec![1.0; 4], vec![5.0; 4], 2.0, 1.0).unwrap();
        assert!(ring.check_allocation(&[0.5; 4]).is_ok());
        assert!(ring.check_allocation(&[0.25; 4]).is_err()); // sums to 1 ≠ 2
        assert!(ring.check_allocation(&[2.5, -0.5, 0.0, 0.0]).is_err());
        assert!(ring.check_allocation(&[0.5; 3]).is_err());
        // More than a whole file at one node is allowed (§7.2: "a node can
        // be allocated more than a whole file, if that is what is cheaper
        // for the system").
        assert!(ring.check_allocation(&[1.7, 0.3, 0.0, 0.0]).is_ok());
    }
}
