//! Explicit route reconstruction.
//!
//! The cost matrix of [`crate::shortest_path`] is all the *optimization*
//! needs, but the runtime simulation and the examples sometimes want the
//! actual store-and-forward paths ("the network is assumed to be logically
//! fully connected in that every node can communicate (perhaps only
//! indirectly, i.e., in a store-and-forward fashion) with every other
//! node", §4). A [`RoutingTable`] holds the cheapest-path next-hop for
//! every ordered pair, supporting path enumeration and hop counting.

use serde::{Deserialize, Serialize};

use fap_batch::Parallelism;
use fap_obs::NoopRecorder;

use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::shortest_path::dijkstra_with_predecessors;

/// All-pairs next-hop routing derived from cheapest paths.
///
/// Ties are broken deterministically (lowest predecessor index wins), so
/// routing is reproducible across runs.
///
/// # Example
///
/// ```
/// use fap_net::{topology, routing::RoutingTable, NodeId};
///
/// let graph = topology::ring(5, 1.0)?;
/// let table = RoutingTable::build(&graph)?;
/// let path = table.path(NodeId::new(0), NodeId::new(2));
/// assert_eq!(path, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
/// assert_eq!(table.hop_count(NodeId::new(0), NodeId::new(2)), 2);
/// # Ok::<(), fap_net::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTable {
    n: usize,
    /// `next_hop[s * n + d]` = the first hop on the cheapest path `s → d`;
    /// `s` itself when `s == d`.
    next_hop: Vec<NodeId>,
}

impl RoutingTable {
    /// Builds the table from cheapest paths on `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when some pair has no path.
    pub fn build(graph: &Graph) -> Result<Self, NetError> {
        let n = graph.node_count();
        let mut next_hop = vec![NodeId::new(0); n * n];
        for source in graph.nodes() {
            let (dist, pred) = dijkstra_with_predecessors(graph, source)?;
            for dest in graph.nodes() {
                if dist[dest.index()].is_infinite() {
                    return Err(NetError::Disconnected {
                        from: source.index(),
                        to: dest.index(),
                    });
                }
                // Walk predecessors back from dest until the node after
                // source.
                let mut hop = dest;
                if hop != source {
                    while pred[hop.index()] != Some(source) {
                        hop = pred[hop.index()].expect("finite distance implies a predecessor");
                    }
                } else {
                    hop = source;
                }
                next_hop[source.index() * n + dest.index()] = hop;
            }
        }
        Ok(RoutingTable { n, next_hop })
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The first hop on the cheapest path `from → to` (`from` itself when
    /// equal).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        assert!(from.index() < self.n && to.index() < self.n, "node out of range");
        self.next_hop[from.index() * self.n + to.index()]
    }

    /// The full node sequence of the cheapest path `from → to`, inclusive
    /// of both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn path(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut at = from;
        while at != to {
            at = self.next_hop(at, to);
            path.push(at);
        }
        path
    }

    /// Number of links on the cheapest path `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn hop_count(&self, from: NodeId, to: NodeId) -> usize {
        self.path(from, to).len() - 1
    }
}

/// Summary statistics of a network's cheapest-path structure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathMetrics {
    /// The largest cheapest-path cost over all ordered pairs (the network
    /// diameter in cost units).
    pub diameter: f64,
    /// The mean cheapest-path cost over distinct ordered pairs.
    pub mean_cost: f64,
    /// The largest hop count over all ordered pairs.
    pub max_hops: usize,
}

/// Computes [`PathMetrics`] for `graph`.
///
/// # Errors
///
/// Returns [`NetError::Disconnected`] when some pair has no path.
pub fn path_metrics(graph: &Graph) -> Result<PathMetrics, NetError> {
    let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)?;
    let table = RoutingTable::build(graph)?;
    let mut diameter = 0.0f64;
    let mut total = 0.0;
    let mut max_hops = 0usize;
    let mut pairs = 0usize;
    for i in graph.nodes() {
        for j in graph.nodes() {
            if i == j {
                continue;
            }
            let c = costs.cost(i, j);
            diameter = diameter.max(c);
            total += c;
            max_hops = max_hops.max(table.hop_count(i, j));
            pairs += 1;
        }
    }
    Ok(PathMetrics {
        diameter,
        mean_cost: if pairs > 0 { total / pairs as f64 } else { 0.0 },
        max_hops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;

    #[test]
    fn ring_routes_the_short_way_round() {
        let g = topology::ring(6, 1.0).unwrap();
        let t = RoutingTable::build(&g).unwrap();
        // 0 → 2 goes forward (2 hops), 0 → 4 goes backward (2 hops).
        assert_eq!(t.hop_count(NodeId::new(0), NodeId::new(2)), 2);
        assert_eq!(t.hop_count(NodeId::new(0), NodeId::new(4)), 2);
        assert_eq!(t.path(NodeId::new(0), NodeId::new(0)), vec![NodeId::new(0)]);
    }

    #[test]
    fn star_routes_through_the_hub() {
        let g = topology::star(5, 1.0).unwrap();
        let t = RoutingTable::build(&g).unwrap();
        let path = t.path(NodeId::new(1), NodeId::new(4));
        assert_eq!(path, vec![NodeId::new(1), NodeId::new(0), NodeId::new(4)]);
    }

    #[test]
    fn expensive_direct_link_is_bypassed() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_link(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        g.add_link(NodeId::new(0), NodeId::new(2), 10.0).unwrap();
        let t = RoutingTable::build(&g).unwrap();
        assert_eq!(t.next_hop(NodeId::new(0), NodeId::new(2)), NodeId::new(1));
        assert_eq!(t.hop_count(NodeId::new(0), NodeId::new(2)), 2);
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        assert!(matches!(RoutingTable::build(&g), Err(NetError::Disconnected { .. })));
        assert!(path_metrics(&g).is_err());
    }

    #[test]
    fn metrics_of_known_topologies() {
        let line = topology::line(5, 2.0).unwrap();
        let m = path_metrics(&line).unwrap();
        assert_eq!(m.diameter, 8.0);
        assert_eq!(m.max_hops, 4);

        let mesh = topology::full_mesh(6, 1.5).unwrap();
        let m = path_metrics(&mesh).unwrap();
        assert_eq!(m.diameter, 1.5);
        assert_eq!(m.max_hops, 1);
        assert!((m.mean_cost - 1.5).abs() < 1e-12);
    }

    proptest! {
        /// Path costs reconstructed hop by hop equal the cost matrix, on
        /// random connected graphs.
        #[test]
        fn path_costs_match_matrix(seed in 0u64..60, n in 2usize..10, p in 0.1f64..0.9) {
            let g = topology::random_connected(n, p, 1.0..4.0, seed).unwrap();
            let costs = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
            let t = RoutingTable::build(&g).unwrap();
            for i in g.nodes() {
                for j in g.nodes() {
                    let path = t.path(i, j);
                    prop_assert_eq!(path[0], i);
                    prop_assert_eq!(*path.last().unwrap(), j);
                    let walked: f64 = path
                        .windows(2)
                        .map(|w| g.direct_cost(w[0], w[1]).expect("path uses real links"))
                        .sum();
                    prop_assert!((walked - costs.cost(i, j)).abs() < 1e-9);
                }
            }
        }
    }
}
