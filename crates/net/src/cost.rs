//! Communication-cost matrices and system-wide access costs.

use fap_batch::Matrix;
use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::graph::NodeId;
use crate::workload::AccessPattern;

/// An `N × N` matrix of communication costs `c_ij`: the cost of transmitting
/// a file request from node `i` to node `j` and the response back (paper §4).
///
/// Invariants: square, `c_ii = 0`, all entries finite and non-negative.
/// Usually produced by [`crate::Graph::shortest_path_matrix`], but can be
/// built directly from measured costs via [`CostMatrix::from_rows`].
/// Storage is a flat row-major [`Matrix`], so a row (`c_i·`) is one
/// contiguous cache-friendly slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMatrix {
    matrix: Matrix,
}

impl CostMatrix {
    /// Builds a cost matrix from rows `rows[i][j] = c_ij`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NegativeCost`] if any entry is negative or
    /// non-finite, and [`NetError::NodeOutOfRange`] if the matrix is not
    /// square. Diagonal entries must be zero.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, NetError> {
        let n = rows.len();
        let mut costs = Vec::with_capacity(n * n);
        for row in &rows {
            if row.len() != n {
                return Err(NetError::NodeOutOfRange { node: row.len(), node_count: n });
            }
            costs.extend_from_slice(row);
        }
        CostMatrix::from_matrix(Matrix::from_vec(n, n, costs))
    }

    /// Builds a cost matrix from an already-flat [`Matrix`], validating the
    /// [`CostMatrix`] invariants.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CostMatrix::from_rows`].
    pub fn from_matrix(matrix: Matrix) -> Result<Self, NetError> {
        if matrix.rows() != matrix.cols() {
            return Err(NetError::NodeOutOfRange {
                node: matrix.cols(),
                node_count: matrix.rows(),
            });
        }
        for i in 0..matrix.rows() {
            for (j, &c) in matrix.row(i).iter().enumerate() {
                if !c.is_finite() || c < 0.0 {
                    return Err(NetError::NegativeCost { from: i, to: j, cost: c });
                }
                if i == j && c != 0.0 {
                    return Err(NetError::NegativeCost { from: i, to: j, cost: c });
                }
            }
        }
        Ok(CostMatrix { matrix })
    }

    /// Number of nodes covered by the matrix.
    pub fn node_count(&self) -> usize {
        self.matrix.rows()
    }

    /// Cheapest-path cost `c_ij` from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn cost(&self, from: NodeId, to: NodeId) -> f64 {
        assert!(
            from.index() < self.node_count() && to.index() < self.node_count(),
            "node out of range"
        );
        self.matrix.get(from.index(), to.index())
    }

    /// Row `from` of the matrix: the costs `c_{from,·}` to every destination.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn row(&self, from: NodeId) -> &[f64] {
        self.matrix.row(from.index())
    }

    /// The underlying flat matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// The largest entry of the matrix.
    pub fn max_cost(&self) -> f64 {
        self.matrix.as_slice().iter().copied().fold(0.0, f64::max)
    }

    /// Computes the system-wide average communication cost `C_i` of directing
    /// an access to each node `i` (paper §4):
    ///
    /// ```text
    /// C_i = Σ_j (λ_j / λ) · c_ji
    /// ```
    ///
    /// i.e. the workload-weighted average cost, over all requesting nodes
    /// `j`, of reaching node `i`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's node count differs from the matrix dimension.
    pub fn systemwide_access_costs(&self, pattern: &AccessPattern) -> Vec<f64> {
        let n = self.node_count();
        assert_eq!(
            pattern.node_count(),
            n,
            "workload covers {} nodes but cost matrix covers {n}",
            pattern.node_count(),
        );
        let total = pattern.total_rate();
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| pattern.rate(NodeId::new(j)) / total * self.cost(NodeId::new(j), NodeId::new(i)))
                    .sum()
            })
            .collect()
    }

    /// Scales every entry by `factor`, returning a new matrix.
    ///
    /// Used by the scale-resilience ablation (paper §8.2: the second
    /// derivative algorithm "is resilient to changes in the scale of the
    /// problem, such as would be caused by increasing the link costs").
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> CostMatrix {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor must be non-negative");
        let n = self.node_count();
        let scaled = self.matrix.as_slice().iter().map(|c| c * factor).collect();
        CostMatrix { matrix: Matrix::from_vec(n, n, scaled) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_batch::Parallelism;
    use fap_obs::NoopRecorder;
    use crate::topology;

    #[test]
    fn from_rows_validates_shape() {
        let err = CostMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, NetError::NodeOutOfRange { .. }));
    }

    #[test]
    fn from_rows_validates_diagonal() {
        let err = CostMatrix::from_rows(vec![vec![1.0]]).unwrap_err();
        assert!(matches!(err, NetError::NegativeCost { .. }));
    }

    #[test]
    fn from_rows_rejects_negative_and_infinite() {
        let err =
            CostMatrix::from_rows(vec![vec![0.0, -1.0], vec![1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, NetError::NegativeCost { .. }));
        let err = CostMatrix::from_rows(vec![vec![0.0, f64::INFINITY], vec![1.0, 0.0]])
            .unwrap_err();
        assert!(matches!(err, NetError::NegativeCost { .. }));
    }

    #[test]
    fn systemwide_cost_of_symmetric_ring_is_uniform() {
        // Paper §6: 4-node ring, unit link costs, uniform accesses. Each C_i
        // should be (0 + 1 + 2 + 1) / 4 = 1.
        let g = topology::ring(4, 1.0).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let w = AccessPattern::uniform(4, 1.0).unwrap();
        let c = m.systemwide_access_costs(&w);
        for ci in &c {
            assert!((ci - 1.0).abs() < 1e-12, "C_i = {ci}");
        }
    }

    #[test]
    fn systemwide_cost_weights_by_access_rate() {
        // Two nodes, cost 2 apart. All traffic from node 0.
        let m = CostMatrix::from_rows(vec![vec![0.0, 2.0], vec![2.0, 0.0]]).unwrap();
        let w = AccessPattern::new(vec![1.0, 0.0]).unwrap();
        let c = m.systemwide_access_costs(&w);
        assert_eq!(c, vec![0.0, 2.0]); // accessing node 1 always costs 2
    }

    #[test]
    fn hotspot_node_is_cheap_to_its_own_traffic() {
        let g = topology::star(5, 1.0).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        // Nearly all traffic generated at leaf node 1.
        let w = AccessPattern::new(vec![0.01, 10.0, 0.01, 0.01, 0.01]).unwrap();
        let c = m.systemwide_access_costs(&w);
        let min = c.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((c[1] - min).abs() < 1e-12, "hot node should be cheapest: {c:?}");
    }

    #[test]
    fn scaled_multiplies_every_entry() {
        let m = CostMatrix::from_rows(vec![vec![0.0, 3.0], vec![1.0, 0.0]]).unwrap();
        let s = m.scaled(2.0);
        assert_eq!(s.cost(NodeId::new(0), NodeId::new(1)), 6.0);
        assert_eq!(s.cost(NodeId::new(1), NodeId::new(0)), 2.0);
        assert_eq!(s.max_cost(), 6.0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn cost_panics_out_of_range() {
        let m = CostMatrix::from_rows(vec![vec![0.0]]).unwrap();
        let _ = m.cost(NodeId::new(0), NodeId::new(1));
    }
}
