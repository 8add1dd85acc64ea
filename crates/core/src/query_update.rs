//! Query/update cost splitting (paper §5.4).
//!
//! "Different costs for queries and updates can be easily taken into account
//! by splitting the cost function into two separate costs … and weighting
//! these costs appropriately." Queries and updates form two access streams
//! with their own rates and their own per-unit communication weights (an
//! update response typically carries less data than a query response, or
//! vice versa); both streams queue at the same servers.
//!
//! The blended model is still an instance of [`SingleFileProblem`]: the
//! communication term becomes
//! `C_i = w_q·(λ_q/λ)·C_i^q + w_u·(λ_u/λ)·C_i^u` with `λ = λ_q + λ_u`
//! the total queueing load.

use fap_batch::Parallelism;
use fap_net::{AccessPattern, CostMatrix, Graph};
use fap_obs::NoopRecorder;
use fap_queue::Mm1Delay;

use crate::error::CoreError;
use crate::single::SingleFileProblem;

/// Builder for a query/update-weighted single-file problem.
///
/// # Example
///
/// ```
/// use fap_core::query_update::QueryUpdateModel;
/// use fap_net::{topology, AccessPattern};
///
/// let graph = topology::ring(4, 1.0)?;
/// let queries = AccessPattern::uniform(4, 0.8)?;
/// let updates = AccessPattern::uniform(4, 0.2)?;
/// let problem = QueryUpdateModel::new(queries, updates)
///     .with_query_weight(1.0)
///     .with_update_weight(2.5) // updates are costlier to ship
///     .build_mm1(&graph, 1.5, 1.0)?;
/// assert_eq!(problem.node_count(), 4);
/// assert!((problem.total_rate() - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QueryUpdateModel {
    queries: AccessPattern,
    updates: AccessPattern,
    query_weight: f64,
    update_weight: f64,
}

impl QueryUpdateModel {
    /// Creates the model from separate query and update access patterns
    /// (both weights default to 1, recovering the unsplit model).
    pub fn new(queries: AccessPattern, updates: AccessPattern) -> Self {
        QueryUpdateModel { queries, updates, query_weight: 1.0, update_weight: 1.0 }
    }

    /// Sets the per-access communication weight of queries.
    #[must_use]
    pub fn with_query_weight(mut self, weight: f64) -> Self {
        self.query_weight = weight;
        self
    }

    /// Sets the per-access communication weight of updates.
    #[must_use]
    pub fn with_update_weight(mut self, weight: f64) -> Self {
        self.update_weight = weight;
        self
    }

    /// Builds the blended [`SingleFileProblem`] over `graph` with M/M/1
    /// nodes of rate `mu`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for mismatched pattern sizes
    /// or negative weights, plus the conditions of
    /// [`SingleFileProblem::from_parts`].
    pub fn build_mm1(
        &self,
        graph: &Graph,
        mu: f64,
        k: f64,
    ) -> Result<SingleFileProblem<Mm1Delay>, CoreError> {
        let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)?;
        self.build_with_costs(&costs, mu, k)
    }

    /// Builds the blended problem from a pre-computed cost matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueryUpdateModel::build_mm1`].
    pub fn build_with_costs(
        &self,
        costs: &CostMatrix,
        mu: f64,
        k: f64,
    ) -> Result<SingleFileProblem<Mm1Delay>, CoreError> {
        let n = costs.node_count();
        if self.queries.node_count() != n || self.updates.node_count() != n {
            return Err(CoreError::InvalidParameter(format!(
                "query pattern covers {} nodes, update pattern {}, network has {n}",
                self.queries.node_count(),
                self.updates.node_count()
            )));
        }
        if !(self.query_weight.is_finite()
            && self.query_weight >= 0.0
            && self.update_weight.is_finite()
            && self.update_weight >= 0.0)
        {
            return Err(CoreError::InvalidParameter(
                "query/update weights must be non-negative".into(),
            ));
        }
        let cq = costs.systemwide_access_costs(&self.queries)?;
        let cu = costs.systemwide_access_costs(&self.updates)?;
        let lq = self.queries.total_rate();
        let lu = self.updates.total_rate();
        let total = lq + lu;
        // Blend per-access communication costs by stream share and weight;
        // the queueing term sees the combined Poisson stream.
        let blended: Vec<f64> = cq
            .iter()
            .zip(&cu)
            .map(|(q, u)| (self.query_weight * lq * q + self.update_weight * lu * u) / total)
            .collect();
        let delay = Mm1Delay::new(mu)?;
        SingleFileProblem::from_parts(blended, total, vec![delay; n], k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fap_net::{topology, NodeId};

    #[test]
    fn unit_weights_match_plain_model() {
        let graph = topology::ring(4, 1.0).unwrap();
        let q = AccessPattern::uniform(4, 0.6).unwrap();
        let u = AccessPattern::uniform(4, 0.4).unwrap();
        let split = QueryUpdateModel::new(q, u).build_mm1(&graph, 1.5, 1.0).unwrap();
        let plain = SingleFileProblem::mm1(
            &graph,
            &AccessPattern::uniform(4, 1.0).unwrap(),
            1.5,
            1.0,
        )
        .unwrap();
        for (a, b) in split.access_costs().iter().zip(plain.access_costs()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((split.total_rate() - plain.total_rate()).abs() < 1e-12);
    }

    #[test]
    fn heavier_updates_pull_file_toward_update_sources() {
        // Queries come uniformly; updates come overwhelmingly from node 0.
        // As the update weight grows, the optimum shifts toward node 0.
        let graph = topology::line(4, 1.0).unwrap();
        let q = AccessPattern::uniform(4, 0.5).unwrap();
        let u = AccessPattern::hotspot(4, 0.5, NodeId::new(0), 0.97).unwrap();
        let light = QueryUpdateModel::new(q.clone(), u.clone())
            .with_update_weight(0.1)
            .build_mm1(&graph, 1.5, 0.2)
            .unwrap();
        let heavy = QueryUpdateModel::new(q, u)
            .with_update_weight(8.0)
            .build_mm1(&graph, 1.5, 0.2)
            .unwrap();
        let x_light = reference::solve(&light).unwrap().allocation;
        let x_heavy = reference::solve(&heavy).unwrap().allocation;
        assert!(
            x_heavy[0] > x_light[0],
            "update weighting should pull the file to node 0: {x_light:?} vs {x_heavy:?}"
        );
    }

    #[test]
    fn rejects_mismatched_patterns_and_bad_weights() {
        let graph = topology::ring(4, 1.0).unwrap();
        let q = AccessPattern::uniform(4, 0.5).unwrap();
        let u3 = AccessPattern::uniform(3, 0.5).unwrap();
        assert!(QueryUpdateModel::new(q.clone(), u3).build_mm1(&graph, 1.5, 1.0).is_err());
        let u = AccessPattern::uniform(4, 0.5).unwrap();
        assert!(QueryUpdateModel::new(q, u)
            .with_query_weight(-1.0)
            .build_mm1(&graph, 1.5, 1.0)
            .is_err());
    }

    #[test]
    fn queueing_load_is_the_combined_stream() {
        let graph = topology::ring(4, 1.0).unwrap();
        let q = AccessPattern::uniform(4, 0.9).unwrap();
        let u = AccessPattern::uniform(4, 0.3).unwrap();
        let p = QueryUpdateModel::new(q, u)
            .with_update_weight(0.0) // free updates still queue
            .build_mm1(&graph, 1.5, 1.0)
            .unwrap();
        assert!((p.total_rate() - 1.2).abs() < 1e-12);
    }
}
