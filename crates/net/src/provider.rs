//! The sparse cost substrate: [`CostProvider`], the abstraction every
//! consumer of pairwise communication costs goes through.
//!
//! A dense [`CostMatrix`] is O(N²) memory — ≈137 GiB of `f64` at
//! N = 131072 — and all-pairs Dijkstra is the dominant cold cost of every
//! solve. `CostProvider` decouples the solvers, the serve layer and the
//! cache from that representation: a provider only promises point costs,
//! row materialization and the workload-weighted column sums the
//! allocation model actually consumes. The dense matrix is one
//! implementation; the [`LandmarkOracle`](crate::landmark::LandmarkOracle)
//! is the sparse O(K·N) one.

use crate::cost::CostMatrix;
use crate::error::NetError;
use crate::graph::NodeId;
use crate::workload::AccessPattern;

/// A source of pairwise communication costs `c_ij` over `N` nodes.
///
/// Implementations must behave like a valid [`CostMatrix`]: `c_ii = 0`,
/// every cost finite and non-negative. They need not be exact — the
/// landmark oracle returns admissible upper-bound estimates — but they
/// must be **deterministic**: repeated queries return bit-identical
/// values, which is what lets the bench gates pin checksums on the sparse
/// path too.
///
/// Providers are queried from the serve layer's scoped worker threads, so
/// the trait requires `Send + Sync`; implementations with interior caches
/// (the oracle's row LRU) synchronize internally.
pub trait CostProvider: Send + Sync {
    /// Number of nodes covered by this provider.
    fn node_count(&self) -> usize;

    /// Cost `c_ij` of reaching `to` from `from`.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    fn cost(&self, from: NodeId, to: NodeId) -> f64;

    /// Materializes row `c_{from,·}` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range or `out.len() != node_count()`.
    fn row_into(&self, from: NodeId, out: &mut [f64]) {
        assert_eq!(out.len(), self.node_count(), "row buffer length mismatch");
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = self.cost(from, NodeId::new(j));
        }
    }

    /// Resident memory of the cost substrate itself, in bytes — the
    /// quantity the scale bench gates below 1 GiB at N = 131072. Excludes
    /// the graph; includes distance tables and any internal row caches.
    fn substrate_bytes(&self) -> usize;

    /// Computes the system-wide average access costs `C_i = Σ_j (λ_j/λ)·c_ji`
    /// for every node `i` (paper §4).
    ///
    /// The default implementation reproduces
    /// [`CostMatrix::systemwide_access_costs`] term-for-term (ascending `j`,
    /// summation folding from `0.0`), so any provider whose [`cost`] agrees
    /// bit-for-bit with a dense matrix yields bit-identical `C_i` — the
    /// anchor of the dense-path equivalence suite. Sparse providers may
    /// override with a cheaper estimator.
    ///
    /// [`cost`]: CostProvider::cost
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] if the pattern's node count
    /// differs from [`node_count`].
    ///
    /// [`node_count`]: CostProvider::node_count
    fn systemwide_access_costs(&self, pattern: &AccessPattern) -> Result<Vec<f64>, NetError> {
        let n = self.node_count();
        pattern.check_node_count(n)?;
        let total = pattern.total_rate();
        Ok((0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        pattern.rate(NodeId::new(j)) / total
                            * self.cost(NodeId::new(j), NodeId::new(i))
                    })
                    .sum()
            })
            .collect())
    }
}

impl CostProvider for CostMatrix {
    fn node_count(&self) -> usize {
        CostMatrix::node_count(self)
    }

    fn cost(&self, from: NodeId, to: NodeId) -> f64 {
        CostMatrix::cost(self, from, to)
    }

    fn row_into(&self, from: NodeId, out: &mut [f64]) {
        assert_eq!(out.len(), CostMatrix::node_count(self), "row buffer length mismatch");
        out.copy_from_slice(self.row(from));
    }

    fn substrate_bytes(&self) -> usize {
        let n = CostMatrix::node_count(self);
        n * n * std::mem::size_of::<f64>()
    }

    fn systemwide_access_costs(&self, pattern: &AccessPattern) -> Result<Vec<f64>, NetError> {
        CostMatrix::systemwide_access_costs(self, pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_batch::Parallelism;
    use fap_obs::NoopRecorder;
    use crate::topology;

    /// A provider that only implements the required methods, to exercise
    /// the trait defaults.
    struct PointwiseMirror<'a>(&'a CostMatrix);

    impl CostProvider for PointwiseMirror<'_> {
        fn node_count(&self) -> usize {
            CostMatrix::node_count(self.0)
        }
        fn cost(&self, from: NodeId, to: NodeId) -> f64 {
            CostMatrix::cost(self.0, from, to)
        }
        fn substrate_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_systemwide_costs_are_bit_identical_to_dense() {
        let g = topology::random_connected(17, 0.35, 1.0..5.0, 42).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let w = AccessPattern::random(17, 0.2..3.0, 7).unwrap();
        let dense = CostMatrix::systemwide_access_costs(&m, &w).unwrap();
        let via_default = PointwiseMirror(&m).systemwide_access_costs(&w).unwrap();
        assert_eq!(dense.len(), via_default.len());
        for (a, b) in dense.iter().zip(&via_default) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn default_row_into_matches_dense_row() {
        let g = topology::ring(6, 1.5).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let mirror = PointwiseMirror(&m);
        let mut row = vec![0.0; 6];
        for i in 0..6 {
            mirror.row_into(NodeId::new(i), &mut row);
            assert_eq!(row.as_slice(), m.row(NodeId::new(i)));
        }
    }

    #[test]
    fn dense_substrate_bytes_is_n_squared() {
        let g = topology::ring(8, 1.0).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(CostProvider::substrate_bytes(&m), 8 * 8 * 8);
    }

    #[test]
    fn provider_is_object_safe() {
        let g = topology::ring(4, 1.0).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let p: &dyn CostProvider = &m;
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.cost(NodeId::new(0), NodeId::new(2)), 2.0);
    }
}
