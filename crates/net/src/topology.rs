//! Topology generators.
//!
//! The paper evaluates on a four-node ring with equal link costs (§6,
//! Figure 2), fully connected networks of 4–20 nodes with unit link costs
//! (Figure 6), and four-node virtual rings with per-link costs such as
//! `(4,1,1,1)` (§7.3). This module builds those exact shapes plus a few
//! richer ones (stars, lines, grids, random connected graphs) for the
//! examples and tests.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::NetError;
use crate::graph::{Graph, NodeId};

/// Builds an undirected ring of `n ≥ 3` nodes with uniform link cost.
///
/// This is the paper's Figure 2 network when `n = 4` and `link_cost = 1`.
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for `n < 3` and
/// [`NetError::NegativeCost`] for a negative cost.
pub fn ring(n: usize, link_cost: f64) -> Result<Graph, NetError> {
    ring_with_costs(&vec![link_cost; n])
}

/// Builds an undirected ring whose `i`-th link (from node `i` to node
/// `(i + 1) mod n`) has cost `link_costs[i]`.
///
/// Used for the §7.3 experiments where one ring link is more expensive than
/// the others, e.g. costs `(4, 1, 1, 1)`.
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for fewer than 3 links and
/// [`NetError::NegativeCost`] for any negative cost.
pub fn ring_with_costs(link_costs: &[f64]) -> Result<Graph, NetError> {
    let n = link_costs.len();
    if n < 3 {
        return Err(NetError::TooFewNodes { requested: n, minimum: 3 });
    }
    let mut g = Graph::new(n);
    for (i, &cost) in link_costs.iter().enumerate() {
        g.add_link(NodeId::new(i), NodeId::new((i + 1) % n), cost)?;
    }
    Ok(g)
}

/// Builds a *unidirectional* ring: directed links `i -> (i + 1) mod n` only.
///
/// This is the communication structure of the §7 virtual-ring model, where
/// "each node will communicate (for the purpose of file access) directly with
/// one designated neighbour node".
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for fewer than 3 links and
/// [`NetError::NegativeCost`] for any negative cost.
pub fn unidirectional_ring(link_costs: &[f64]) -> Result<Graph, NetError> {
    let n = link_costs.len();
    if n < 3 {
        return Err(NetError::TooFewNodes { requested: n, minimum: 3 });
    }
    let mut g = Graph::new(n);
    for (i, &cost) in link_costs.iter().enumerate() {
        g.add_directed_link(NodeId::new(i), NodeId::new((i + 1) % n), cost)?;
    }
    Ok(g)
}

/// Builds a complete graph on `n ≥ 2` nodes with uniform link cost.
///
/// This is the Figure 6 network family ("each network of N nodes,
/// 4 ≤ N ≤ 20, is taken to be fully connected with link costs being unity").
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for `n < 2` and
/// [`NetError::NegativeCost`] for a negative cost.
pub fn full_mesh(n: usize, link_cost: f64) -> Result<Graph, NetError> {
    if n < 2 {
        return Err(NetError::TooFewNodes { requested: n, minimum: 2 });
    }
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_link(NodeId::new(i), NodeId::new(j), link_cost)?;
        }
    }
    Ok(g)
}

/// Builds a star: node 0 is the hub, nodes `1..n` are leaves.
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for `n < 2` and
/// [`NetError::NegativeCost`] for a negative cost.
pub fn star(n: usize, link_cost: f64) -> Result<Graph, NetError> {
    if n < 2 {
        return Err(NetError::TooFewNodes { requested: n, minimum: 2 });
    }
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_link(NodeId::new(0), NodeId::new(i), link_cost)?;
    }
    Ok(g)
}

/// Builds a line (path graph) of `n ≥ 2` nodes.
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for `n < 2` and
/// [`NetError::NegativeCost`] for a negative cost.
pub fn line(n: usize, link_cost: f64) -> Result<Graph, NetError> {
    if n < 2 {
        return Err(NetError::TooFewNodes { requested: n, minimum: 2 });
    }
    let mut g = Graph::new(n);
    for i in 0..n - 1 {
        g.add_link(NodeId::new(i), NodeId::new(i + 1), link_cost)?;
    }
    Ok(g)
}

/// Builds a `rows × cols` grid (4-neighbor mesh).
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] when either dimension is zero or the
/// grid has fewer than 2 nodes, and [`NetError::NegativeCost`] for a negative
/// cost.
pub fn grid(rows: usize, cols: usize, link_cost: f64) -> Result<Graph, NetError> {
    let n = rows * cols;
    if rows == 0 || cols == 0 || n < 2 {
        return Err(NetError::TooFewNodes { requested: n, minimum: 2 });
    }
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_link(id(r, c), id(r, c + 1), link_cost)?;
            }
            if r + 1 < rows {
                g.add_link(id(r, c), id(r + 1, c), link_cost)?;
            }
        }
    }
    Ok(g)
}

/// Builds a `rows × cols` torus (a grid with wrap-around links in both
/// dimensions), a common interconnect for distributed storage.
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] when either dimension is below 3 (a
/// smaller wrap-around would duplicate links) and
/// [`NetError::NegativeCost`] for a negative cost.
pub fn torus(rows: usize, cols: usize, link_cost: f64) -> Result<Graph, NetError> {
    if rows < 3 || cols < 3 {
        return Err(NetError::TooFewNodes { requested: rows.min(cols), minimum: 3 });
    }
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            g.add_link(id(r, c), id(r, (c + 1) % cols), link_cost)?;
            g.add_link(id(r, c), id((r + 1) % rows, c), link_cost)?;
        }
    }
    Ok(g)
}

/// Builds a complete `fanout`-ary tree with `depth` levels below the root
/// (node 0), modeling a hierarchical (edge/aggregation/core) network.
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for `fanout < 2` or `depth == 0`, and
/// [`NetError::NegativeCost`] for a negative cost.
pub fn balanced_tree(fanout: usize, depth: usize, link_cost: f64) -> Result<Graph, NetError> {
    if fanout < 2 || depth == 0 {
        return Err(NetError::TooFewNodes { requested: fanout, minimum: 2 });
    }
    // Node count: (fanout^(depth+1) − 1) / (fanout − 1).
    let mut count = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= fanout;
        count += level;
    }
    let mut g = Graph::new(count);
    for parent in 0..count {
        for k in 0..fanout {
            let child = parent * fanout + 1 + k;
            if child < count {
                g.add_link(NodeId::new(parent), NodeId::new(child), link_cost)?;
            }
        }
    }
    Ok(g)
}

/// Builds a random connected graph: a random spanning tree plus each extra
/// edge independently with probability `extra_edge_prob`, link costs drawn
/// uniformly from `cost_range`. Deterministic for a given `seed`.
///
/// # Errors
///
/// Returns [`NetError::TooFewNodes`] for `n < 2`,
/// [`NetError::InvalidProbability`] for a probability outside `[0, 1]`, and
/// [`NetError::NegativeCost`] if the cost range includes negative values.
pub fn random_connected(
    n: usize,
    extra_edge_prob: f64,
    cost_range: std::ops::Range<f64>,
    seed: u64,
) -> Result<Graph, NetError> {
    if n < 2 {
        return Err(NetError::TooFewNodes { requested: n, minimum: 2 });
    }
    if !(0.0..=1.0).contains(&extra_edge_prob) {
        return Err(NetError::InvalidProbability(extra_edge_prob));
    }
    if cost_range.start < 0.0 || cost_range.end <= cost_range.start {
        return Err(NetError::NegativeCost { from: 0, to: 0, cost: cost_range.start });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    // Random spanning tree: attach each node to a uniformly random earlier one.
    for i in 1..n {
        let parent = rng.random_range(0..i);
        let cost = rng.random_range(cost_range.clone());
        g.add_link(NodeId::new(parent), NodeId::new(i), cost)?;
    }
    // Extra edges.
    for i in 0..n {
        for j in (i + 1)..n {
            if g.direct_cost(NodeId::new(i), NodeId::new(j)).is_none()
                && rng.random_range(0.0..1.0) < extra_edge_prob
            {
                let cost = rng.random_range(cost_range.clone());
                g.add_link(NodeId::new(i), NodeId::new(j), cost)?;
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use fap_batch::Parallelism;
    use fap_obs::NoopRecorder;

    #[test]
    fn ring_shape() {
        let g = ring(4, 1.0).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.link_count(), 8); // 4 undirected links
        assert_eq!(g.direct_cost(NodeId::new(3), NodeId::new(0)), Some(1.0));
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn ring_rejects_too_few_nodes() {
        assert!(matches!(ring(2, 1.0), Err(NetError::TooFewNodes { .. })));
    }

    #[test]
    fn ring_with_costs_places_each_cost() {
        let g = ring_with_costs(&[4.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(4.0));
        assert_eq!(g.direct_cost(NodeId::new(1), NodeId::new(2)), Some(1.0));
        assert_eq!(g.direct_cost(NodeId::new(3), NodeId::new(0)), Some(1.0));
    }

    #[test]
    fn unidirectional_ring_is_one_way() {
        let g = unidirectional_ring(&[1.0; 4]).unwrap();
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(1.0));
        assert_eq!(g.direct_cost(NodeId::new(1), NodeId::new(0)), None);
        assert_eq!(g.link_count(), 4);
    }

    #[test]
    fn full_mesh_shape() {
        let g = full_mesh(5, 1.0).unwrap();
        assert_eq!(g.link_count(), 5 * 4); // n(n-1) directed links
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert_eq!(g.direct_cost(NodeId::new(i), NodeId::new(j)), Some(1.0));
                }
            }
        }
    }

    #[test]
    fn star_routes_leaf_to_leaf_through_hub() {
        let g = star(4, 2.0).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(m.cost(NodeId::new(1), NodeId::new(2)), 4.0);
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(3)), 2.0);
    }

    #[test]
    fn line_end_to_end_distance() {
        let g = line(5, 1.5).unwrap();
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(4)), 6.0);
    }

    #[test]
    fn grid_shape_and_distance() {
        let g = grid(3, 3, 1.0).unwrap();
        assert_eq!(g.node_count(), 9);
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        // Manhattan distance between opposite corners.
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(8)), 4.0);
    }

    #[test]
    fn grid_rejects_zero_dimension() {
        assert!(matches!(grid(0, 5, 1.0), Err(NetError::TooFewNodes { .. })));
    }

    #[test]
    fn torus_wraps_both_dimensions() {
        let g = torus(3, 4, 1.0).unwrap();
        assert_eq!(g.node_count(), 12);
        // Every node has degree 4 (two ring neighbors per dimension).
        for i in g.nodes() {
            assert_eq!(g.neighbors(i).len(), 4);
        }
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        // Opposite corner of a 3×4 torus: 1 wrap step + 2 column steps.
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(2 * 4 + 2)), 3.0);
    }

    #[test]
    fn torus_rejects_small_dimensions() {
        assert!(matches!(torus(2, 4, 1.0), Err(NetError::TooFewNodes { .. })));
    }

    #[test]
    fn balanced_tree_shape() {
        // Binary tree of depth 2: 1 + 2 + 4 = 7 nodes.
        let g = balanced_tree(2, 2, 1.0).unwrap();
        assert_eq!(g.node_count(), 7);
        let m = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        // Leaf 3 (child of 1) to leaf 5 (child of 2): up 2, down 2.
        assert_eq!(m.cost(NodeId::new(3), NodeId::new(5)), 4.0);
        // Root to any leaf: depth.
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(6)), 2.0);
    }

    #[test]
    fn balanced_tree_rejects_degenerate_parameters() {
        assert!(balanced_tree(1, 2, 1.0).is_err());
        assert!(balanced_tree(2, 0, 1.0).is_err());
    }

    #[test]
    fn random_connected_is_deterministic_per_seed() {
        let a = random_connected(8, 0.3, 1.0..4.0, 42).unwrap();
        let b = random_connected(8, 0.3, 1.0..4.0, 42).unwrap();
        assert_eq!(a, b);
        let c = random_connected(8, 0.3, 1.0..4.0, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn random_connected_rejects_bad_probability() {
        assert!(matches!(
            random_connected(4, 1.5, 1.0..2.0, 0),
            Err(NetError::InvalidProbability(_))
        ));
    }

    #[test]
    fn random_connected_rejects_bad_cost_range() {
        assert!(matches!(
            random_connected(4, 0.5, -1.0..2.0, 0),
            Err(NetError::NegativeCost { .. })
        ));
        assert!(matches!(
            random_connected(4, 0.5, 3.0..2.0, 0),
            Err(NetError::NegativeCost { .. })
        ));
    }

    proptest! {
        /// Every generated random graph is connected (all-pairs routing
        /// succeeds) and all its link costs lie within the requested range.
        #[test]
        fn random_graphs_are_connected(seed in 0u64..200, n in 2usize..16, p in 0.0f64..1.0) {
            let g = random_connected(n, p, 1.0..3.0, seed).unwrap();
            let costs = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder);
            prop_assert!(costs.is_ok());
            for i in g.nodes() {
                for &(_, cost) in g.neighbors(i) {
                    prop_assert!((1.0..3.0).contains(&cost));
                }
            }
        }
    }
}
