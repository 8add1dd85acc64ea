//! Cheapest-path routing.
//!
//! The paper routes every file access "along the shortest (least expensive)
//! path" between the requesting node and the node storing the accessed
//! portion of the file (§6). This module provides two classic all-pairs
//! algorithms over [`Graph`]:
//!
//! * [`Graph::shortest_path_matrix`] — one Dijkstra run per source,
//!   `O(N·E log N)`, fanned out over scoped threads with **bit-identical**
//!   results (each source writes one disjoint row of the flat matrix;
//!   errors are reported in source order);
//!   [`all_pairs_dijkstra_budgeted`] overrides its element budget;
//! * [`floyd_warshall`] — the `O(N³)` dynamic program, used in tests as an
//!   independent oracle for Dijkstra.
//!
//! Both produce a [`CostMatrix`] with `c_ii = 0`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use fap_batch::{Matrix, Parallelism};
use fap_obs::{NoopRecorder, Recorder};

use crate::cost::CostMatrix;
use crate::error::NetError;
use crate::graph::{Graph, NodeId};

/// A heap entry ordered by *minimum* cost (reversed for `BinaryHeap`).
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) cost: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the max-heap pops the cheapest entry first; tie-break on
        // node index for determinism.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Default element budget for dense all-pairs computations: `n·n` beyond
/// this (64 Mi elements ≈ 512 MiB of `f64`, i.e. N > 8192) returns
/// [`NetError::TooLarge`] instead of attempting the allocation. The
/// landmark oracle ([`crate::landmark::LandmarkOracle`]) has no such
/// ceiling.
pub const DEFAULT_DENSE_ELEMENT_BUDGET: u64 = 1 << 26;

/// Rejects a dense `n × n` computation whose element count exceeds
/// `budget`.
fn check_dense_budget(n: usize, budget: u64) -> Result<(), NetError> {
    let elements = (n as u128) * (n as u128);
    if elements > u128::from(budget) {
        return Err(NetError::TooLarge { nodes: n, elements, budget });
    }
    Ok(())
}

/// The one Dijkstra inner loop shared by every public entry point: writes
/// distances into `dist` (and, when given, predecessors into `pred`),
/// reusing the caller's heap so batch sweeps allocate nothing per source.
pub(crate) fn dijkstra_into(
    graph: &Graph,
    source: NodeId,
    dist: &mut [f64],
    mut pred: Option<&mut [Option<NodeId>]>,
    heap: &mut BinaryHeap<HeapEntry>,
) {
    dist.fill(f64::INFINITY);
    if let Some(p) = pred.as_deref_mut() {
        p.fill(None);
    }
    dist[source.index()] = 0.0;
    heap.clear();
    heap.push(HeapEntry { cost: 0.0, node: source });

    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue; // stale entry
        }
        for &(next, link_cost) in graph.neighbors(node) {
            let candidate = cost + link_cost;
            // Strict improvement keeps the first (deterministic) tie winner.
            if candidate < dist[next.index()] {
                dist[next.index()] = candidate;
                if let Some(p) = pred.as_deref_mut() {
                    p[next.index()] = Some(node);
                }
                heap.push(HeapEntry { cost: candidate, node: next });
            }
        }
    }
}

/// Computes cheapest-path costs from `source` to every node.
///
/// Unreachable nodes are reported as `f64::INFINITY`.
///
/// # Errors
///
/// Returns [`NetError::NodeOutOfRange`] if `source` is not a node of `graph`.
pub fn dijkstra(graph: &Graph, source: NodeId) -> Result<Vec<f64>, NetError> {
    graph.check_node(source)?;
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    dijkstra_into(graph, source, &mut dist, None, &mut BinaryHeap::new());
    Ok(dist)
}

/// Like [`dijkstra`], additionally returning each node's predecessor on its
/// cheapest path from `source` (`None` for the source and for unreachable
/// nodes). Used for route reconstruction.
///
/// # Errors
///
/// Returns [`NetError::NodeOutOfRange`] if `source` is not a node of `graph`.
#[allow(clippy::type_complexity)]
pub fn dijkstra_with_predecessors(
    graph: &Graph,
    source: NodeId,
) -> Result<(Vec<f64>, Vec<Option<NodeId>>), NetError> {
    graph.check_node(source)?;
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    dijkstra_into(graph, source, &mut dist, Some(&mut pred), &mut BinaryHeap::new());
    Ok((dist, pred))
}

/// Runs Dijkstra for the consecutive sources starting at `first`, writing
/// each result into the corresponding row of `chunk` (a flat block of
/// `len/n` rows). Returns the first disconnected pair, in source order.
fn dijkstra_rows(graph: &Graph, first: usize, chunk: &mut [f64]) -> Result<(), NetError> {
    let n = graph.node_count();
    let mut heap = BinaryHeap::new();
    for (offset, row) in chunk.chunks_mut(n).enumerate() {
        let source = NodeId::new(first + offset);
        dijkstra_into(graph, source, row, None, &mut heap);
        if let Some(bad) = row.iter().position(|d| d.is_infinite()) {
            return Err(NetError::Disconnected { from: source.index(), to: bad });
        }
    }
    Ok(())
}

/// [`Graph::shortest_path_matrix`] with an explicit element budget in
/// place of [`DEFAULT_DENSE_ELEMENT_BUDGET`] — benches that deliberately
/// run oversized dense baselines raise it; admission layers lower it.
///
/// # Errors
///
/// Same conditions as [`Graph::shortest_path_matrix`], with `budget` as the
/// [`NetError::TooLarge`] threshold.
pub fn all_pairs_dijkstra_budgeted(
    graph: &Graph,
    parallelism: Parallelism,
    budget: u64,
) -> Result<CostMatrix, NetError> {
    all_pairs_dijkstra(graph, parallelism, budget, &mut NoopRecorder)
}

/// The all-pairs Dijkstra body behind [`Graph::shortest_path_matrix`]: the
/// `budget` gate, then the sources fanned out over scoped threads, each
/// worker writing only its own contiguous block of rows. Chunk results are
/// examined in source order after the join, so the matrix and even the
/// error for a disconnected graph are bit-identical for every
/// [`Parallelism`] setting.
pub(crate) fn all_pairs_dijkstra(
    graph: &Graph,
    parallelism: Parallelism,
    budget: u64,
    recorder: &mut dyn Recorder,
) -> Result<CostMatrix, NetError> {
    check_dense_budget(graph.node_count(), budget)?;
    let n = graph.node_count();
    if n == 0 {
        return CostMatrix::from_matrix(Matrix::zeros(0, 0));
    }
    let mut matrix = Matrix::zeros(n, n);
    let threads = parallelism.threads_for(n);
    let enabled = recorder.is_enabled();
    if enabled {
        recorder.gauge("net.fanout_threads", threads as f64);
    }
    if threads <= 1 {
        let start = enabled.then(Instant::now);
        dijkstra_rows(graph, 0, matrix.as_mut_slice())?;
        if let Some(start) = start {
            recorder.observe("net.dijkstra_chunk_ns", start.elapsed().as_nanos() as f64);
        }
    } else {
        let rows_per_chunk = n.div_ceil(threads);
        let results: Vec<(Result<(), NetError>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = matrix
                .as_mut_slice()
                .chunks_mut(rows_per_chunk * n)
                .enumerate()
                .map(|(index, chunk)| {
                    scope.spawn(move || {
                        let start = enabled.then(Instant::now);
                        let result = dijkstra_rows(graph, index * rows_per_chunk, chunk);
                        let elapsed =
                            start.map_or(0, |s| s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                        (result, elapsed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("dijkstra worker panicked")).collect()
        });
        // Chunk results are examined in source order, so the error reported
        // for a disconnected graph matches the sequential sweep.
        for (result, elapsed) in results {
            if enabled {
                recorder.observe("net.dijkstra_chunk_ns", elapsed as f64);
            }
            result?;
        }
    }
    CostMatrix::from_matrix(matrix)
}

/// Computes the all-pairs cheapest-path [`CostMatrix`] via Floyd–Warshall.
///
/// Functionally identical to [`Graph::shortest_path_matrix`]; provided as an
/// independent oracle and for dense graphs where `O(N³)` is competitive.
///
/// # Errors
///
/// Returns [`NetError::Disconnected`] if any pair of nodes has no connecting
/// path, and [`NetError::TooLarge`] if `n·n` exceeds
/// [`DEFAULT_DENSE_ELEMENT_BUDGET`].
pub fn floyd_warshall(graph: &Graph) -> Result<CostMatrix, NetError> {
    floyd_warshall_budgeted(graph, DEFAULT_DENSE_ELEMENT_BUDGET)
}

/// [`floyd_warshall`] with an explicit element budget.
///
/// # Errors
///
/// Same conditions as [`floyd_warshall`], with `budget` as the
/// [`NetError::TooLarge`] threshold.
pub fn floyd_warshall_budgeted(graph: &Graph, budget: u64) -> Result<CostMatrix, NetError> {
    check_dense_budget(graph.node_count(), budget)?;
    let n = graph.node_count();
    let mut dist = Matrix::filled(n, n, f64::INFINITY);
    for i in 0..n {
        dist.set(i, i, 0.0);
    }
    for i in graph.nodes() {
        for &(j, cost) in graph.neighbors(i) {
            if cost < dist.get(i.index(), j.index()) {
                dist.set(i.index(), j.index(), cost);
            }
        }
    }
    // Snapshot row k into a buffer reused across all k: with non-negative
    // costs dist[k][·] cannot improve through k itself, so the snapshot
    // equals the in-place update.
    let mut row_k = vec![0.0; n];
    for k in 0..n {
        row_k.copy_from_slice(dist.row(k));
        for i in 0..n {
            let row_i = dist.row_mut(i);
            let dik = row_i[k];
            if dik.is_infinite() {
                continue;
            }
            for (entry, &dkj) in row_i.iter_mut().zip(&row_k) {
                let through = dik + dkj;
                if through < *entry {
                    *entry = through;
                }
            }
        }
    }
    for i in 0..n {
        if let Some(j) = dist.row(i).iter().position(|d| d.is_infinite()) {
            return Err(NetError::Disconnected { from: i, to: j });
        }
    }
    CostMatrix::from_matrix(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;

    fn line3() -> Graph {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_link(NodeId::new(1), NodeId::new(2), 2.0).unwrap();
        g
    }

    #[test]
    fn dijkstra_on_line() {
        let d = dijkstra(&line3(), NodeId::new(0)).unwrap();
        assert_eq!(d, vec![0.0, 1.0, 3.0]);
    }

    #[test]
    fn dijkstra_prefers_cheap_indirect_path() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_link(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        g.add_link(NodeId::new(0), NodeId::new(2), 10.0).unwrap();
        let d = dijkstra(&g, NodeId::new(0)).unwrap();
        assert_eq!(d[2], 2.0);
    }

    #[test]
    fn dijkstra_rejects_bad_source() {
        let err = dijkstra(&line3(), NodeId::new(7)).unwrap_err();
        assert!(matches!(err, NetError::NodeOutOfRange { .. }));
    }

    #[test]
    fn dijkstra_with_predecessors_matches_plain_dijkstra() {
        let g = topology::random_connected(9, 0.4, 1.0..4.0, 11).unwrap();
        for source in g.nodes() {
            let plain = dijkstra(&g, source).unwrap();
            let (dist, pred) = dijkstra_with_predecessors(&g, source).unwrap();
            assert_eq!(plain, dist);
            assert_eq!(pred[source.index()], None);
            // Every predecessor edge closes the distance recurrence.
            for i in g.nodes() {
                if let Some(p) = pred[i.index()] {
                    let link = g
                        .neighbors(p)
                        .iter()
                        .find(|(next, _)| *next == i)
                        .map(|(_, c)| *c)
                        .expect("predecessor is a neighbor");
                    assert!((dist[p.index()] + link - dist[i.index()]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn unreachable_node_is_infinite_in_single_source() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let d = dijkstra(&g, NodeId::new(0)).unwrap();
        assert!(d[2].is_infinite());
    }

    #[test]
    fn all_pairs_rejects_disconnected_graph() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let err = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap_err();
        assert!(matches!(err, NetError::Disconnected { .. }));
        let err = floyd_warshall(&g).unwrap_err();
        assert!(matches!(err, NetError::Disconnected { .. }));
    }

    #[test]
    fn parallel_reports_the_same_error_as_sequential() {
        // Nodes 0..5 connected, node 5 isolated: the sequential sweep fails
        // at source 0 with destination 5, and so must every fan-out.
        let mut g = Graph::new(6);
        for i in 0..4 {
            g.add_link(NodeId::new(i), NodeId::new(i + 1), 1.0).unwrap();
        }
        let expected =
            g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap_err();
        for threads in [1, 2, 3, 4, 8] {
            let err =
                g.shortest_path_matrix(Parallelism::Fixed(threads), &mut NoopRecorder).unwrap_err();
            assert_eq!(format!("{err:?}"), format!("{expected:?}"), "threads={threads}");
        }
    }

    #[test]
    fn observed_fanout_records_chunk_timings_and_matches_sequential() {
        let g = topology::random_connected(24, 0.4, 1.0..4.0, 19).unwrap();
        let seq = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let mut registry = fap_obs::MetricsRegistry::new();
        let par =
            g.shortest_path_matrix(Parallelism::Fixed(4), &mut registry).unwrap();
        for (a, b) in seq.as_matrix().as_slice().iter().zip(par.as_matrix().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(registry.gauge_value("net.fanout_threads"), Some(4.0));
        // 24 sources over 4 threads: one timing observation per chunk.
        assert_eq!(registry.histogram("net.dijkstra_chunk_ns").unwrap().count(), 4);
    }

    #[test]
    fn too_large_is_reported_before_any_allocation() {
        let g = topology::ring(64, 1.0).unwrap();
        let err =
            all_pairs_dijkstra_budgeted(&g, Parallelism::Sequential, 100).unwrap_err();
        assert!(matches!(err, NetError::TooLarge { nodes: 64, elements: 4096, budget: 100 }));
        let err = floyd_warshall_budgeted(&g, 100).unwrap_err();
        assert!(matches!(err, NetError::TooLarge { .. }));
        assert!(err.to_string().contains("landmark"));
        // Under the budget both still run.
        assert!(all_pairs_dijkstra_budgeted(&g, Parallelism::Sequential, 4096).is_ok());
        assert!(floyd_warshall_budgeted(&g, 4096).is_ok());
    }

    #[test]
    fn default_budget_admits_the_bench_grid() {
        // The committed bench grid tops out at N = 4096 on the dense path;
        // the default budget must admit it (and the element math must not
        // overflow for huge hypothetical n).
        assert!(4096u128 * 4096 <= u128::from(DEFAULT_DENSE_ELEMENT_BUDGET));
        let err = NetError::TooLarge {
            nodes: usize::MAX,
            elements: (usize::MAX as u128) * (usize::MAX as u128),
            budget: DEFAULT_DENSE_ELEMENT_BUDGET,
        };
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn ring_of_four_has_expected_distances() {
        let g = topology::ring(4, 1.0).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(1)), 1.0);
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(2)), 2.0);
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(3)), 1.0);
        assert_eq!(m.cost(NodeId::new(2), NodeId::new(2)), 0.0);
    }

    #[test]
    fn directed_ring_distances_are_asymmetric() {
        // 0 -> 1 -> 2 -> 0, unidirectional.
        let mut g = Graph::new(3);
        g.add_directed_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_directed_link(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        g.add_directed_link(NodeId::new(2), NodeId::new(0), 1.0).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(2)), 2.0);
        assert_eq!(m.cost(NodeId::new(2), NodeId::new(0)), 1.0);
    }

    #[test]
    fn floyd_warshall_matches_dijkstra_on_fixed_graphs() {
        for g in [line3(), topology::ring(6, 2.5).unwrap(), topology::full_mesh(5, 1.0).unwrap()] {
            let a = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
            let b = floyd_warshall(&g).unwrap();
            for i in g.nodes() {
                for j in g.nodes() {
                    assert!((a.cost(i, j) - b.cost(i, j)).abs() < 1e-12);
                }
            }
        }
    }

    proptest! {
        /// Dijkstra and Floyd–Warshall agree on random connected graphs, and
        /// the result satisfies the metric axioms for undirected graphs
        /// (identity, symmetry, triangle inequality).
        #[test]
        fn shortest_paths_form_a_metric(seed in 0u64..64, n in 2usize..12, p in 0.2f64..1.0) {
            let g = topology::random_connected(n, p, 1.0..5.0, seed).unwrap();
            let a = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
            let b = floyd_warshall(&g).unwrap();
            for i in g.nodes() {
                prop_assert!(a.cost(i, i) == 0.0);
                for j in g.nodes() {
                    prop_assert!((a.cost(i, j) - b.cost(i, j)).abs() < 1e-9);
                    prop_assert!((a.cost(i, j) - a.cost(j, i)).abs() < 1e-9);
                    for k in g.nodes() {
                        prop_assert!(a.cost(i, j) <= a.cost(i, k) + a.cost(k, j) + 1e-9);
                    }
                }
            }
        }

        /// The parallel fan-out is bit-identical to the sequential sweep on
        /// random connected graphs for every thread count.
        #[test]
        fn parallel_all_pairs_is_bit_identical(seed in 0u64..32, n in 2usize..14, p in 0.2f64..1.0) {
            let g = topology::random_connected(n, p, 1.0..5.0, seed).unwrap();
            let seq = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
            for threads in [1usize, 2, 3, 5] {
                let par =
                    g.shortest_path_matrix(Parallelism::Fixed(threads), &mut NoopRecorder).unwrap();
                for (a, b) in seq.as_matrix().as_slice().iter().zip(par.as_matrix().as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
