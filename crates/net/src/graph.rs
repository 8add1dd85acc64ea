//! Weighted communication graphs.
//!
//! A [`Graph`] models the communication network of the paper's §4: a set of
//! `N` nodes interconnected by links with non-negative communication costs.
//! The network need only be *logically* fully connected — accesses between
//! nodes without a direct link are routed store-and-forward along the
//! cheapest path (see [`crate::shortest_path`]).

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::shortest_path;
use crate::CostMatrix;

/// Identifier of a network node.
///
/// A thin newtype over the node's index in `0..graph.node_count()`, used so
/// that node indices are not confused with other `usize` quantities
/// (iteration counts, record counts, …).
///
/// ```
/// use fap_net::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node identifier from a raw index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the raw index of this node.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed link between two nodes with a non-negative communication cost.
///
/// For undirected networks, [`Graph::add_link`] inserts the symmetric pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Communication cost of traversing the link (request + response).
    pub cost: f64,
}

impl Link {
    /// Creates a link after validating that the cost is non-negative and the
    /// endpoints differ.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NegativeCost`] for negative or non-finite costs and
    /// [`NetError::SelfLoop`] when `from == to`.
    pub fn new(from: NodeId, to: NodeId, cost: f64) -> Result<Self, NetError> {
        if cost < 0.0 || !cost.is_finite() {
            return Err(NetError::NegativeCost { from: from.index(), to: to.index(), cost });
        }
        if from == to {
            return Err(NetError::SelfLoop { node: from.index() });
        }
        Ok(Link { from, to, cost })
    }
}

/// A weighted graph of `N` nodes, stored as per-node adjacency lists.
///
/// Link costs represent the cost `c_ij` of transmitting a file request from
/// `i` to `j` *and* receiving the response (paper §4); costs are therefore a
/// property of a single directed edge, and undirected networks store both
/// directions.
///
/// # Example
///
/// ```
/// use fap_net::{Graph, NodeId};
///
/// let mut g = Graph::new(3);
/// g.add_link(NodeId::new(0), NodeId::new(1), 2.0)?;
/// g.add_link(NodeId::new(1), NodeId::new(2), 3.0)?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.link_count(), 4); // two undirected links = four directed
/// # Ok::<(), fap_net::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    node_count: usize,
    /// adjacency[i] lists (neighbor, cost) pairs for directed edges i -> n.
    adjacency: Vec<Vec<(NodeId, f64)>>,
}

impl Graph {
    /// Creates a graph with `node_count` nodes and no links.
    pub fn new(node_count: usize) -> Self {
        Graph { node_count, adjacency: vec![Vec::new(); node_count] }
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of *directed* links in the graph.
    pub fn link_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Returns an iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId::new)
    }

    /// Validates that a node identifier is within range.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NodeOutOfRange`] if `node.index() >= node_count`.
    pub fn check_node(&self, node: NodeId) -> Result<(), NetError> {
        if node.index() >= self.node_count {
            Err(NetError::NodeOutOfRange { node: node.index(), node_count: self.node_count })
        } else {
            Ok(())
        }
    }

    /// Adds an *undirected* link: both `from -> to` and `to -> from` with the
    /// same cost.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, the cost is
    /// negative, or `from == to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, cost: f64) -> Result<(), NetError> {
        self.add_directed_link(from, to, cost)?;
        self.add_directed_link(to, from, cost)
    }

    /// Adds a single *directed* link `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, the cost is
    /// negative, or `from == to`.
    pub fn add_directed_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        cost: f64,
    ) -> Result<(), NetError> {
        self.check_node(from)?;
        self.check_node(to)?;
        let link = Link::new(from, to, cost)?;
        self.adjacency[from.index()].push((link.to, link.cost));
        Ok(())
    }

    /// Re-prices every existing link between `a` and `b` (both directions,
    /// parallel links included) to `cost`, returning the previous cheapest
    /// direct cost `a -> b`.
    ///
    /// This is the topology-delta primitive behind incremental oracle
    /// updates ([`crate::incremental::GraphDelta::EdgeWeight`]): the link
    /// set is unchanged, only the price moves.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NodeOutOfRange`] / [`NetError::NegativeCost`] /
    /// [`NetError::SelfLoop`] for invalid arguments, and
    /// [`NetError::InvalidWorkload`] if no link `a -> b` exists.
    pub fn set_link_cost(&mut self, a: NodeId, b: NodeId, cost: f64) -> Result<f64, NetError> {
        self.check_node(a)?;
        self.check_node(b)?;
        let link = Link::new(a, b, cost)?;
        let old = self.direct_cost(a, b).ok_or_else(|| {
            NetError::InvalidWorkload(format!("no link {} -> {} to re-price", a.index(), b.index()))
        })?;
        for (n, c) in self.adjacency[a.index()].iter_mut() {
            if *n == b {
                *c = link.cost;
            }
        }
        for (n, c) in self.adjacency[b.index()].iter_mut() {
            if *n == a {
                *c = link.cost;
            }
        }
        Ok(old)
    }

    /// Appends a new, initially isolated node and returns its identifier
    /// (always the highest index). Link it with [`Graph::add_link`].
    pub fn push_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        self.node_count += 1;
        NodeId::new(self.node_count - 1)
    }

    /// Removes the highest-index node along with every link touching it.
    ///
    /// Only the last node is removable so that the identifiers of all
    /// remaining nodes stay valid — node departure in the delta model is
    /// therefore "swap to the end, then pop" at the caller's layer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::TooFewNodes`] on an empty graph.
    pub fn pop_node(&mut self) -> Result<(), NetError> {
        if self.node_count == 0 {
            return Err(NetError::TooFewNodes { requested: 0, minimum: 1 });
        }
        let departing = NodeId::new(self.node_count - 1);
        self.adjacency.pop();
        self.node_count -= 1;
        for list in self.adjacency.iter_mut() {
            list.retain(|(n, _)| *n != departing);
        }
        Ok(())
    }

    /// Returns the `(neighbor, cost)` pairs reachable from `node` in one hop.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range; use [`Graph::check_node`] first when
    /// the index is untrusted.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        &self.adjacency[node.index()]
    }

    /// Returns the direct link cost `from -> to`, if a direct link exists.
    ///
    /// When parallel links exist, the cheapest is returned.
    pub fn direct_cost(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.adjacency
            .get(from.index())?
            .iter()
            .filter(|(n, _)| *n == to)
            .map(|&(_, c)| c)
            .min_by(f64::total_cmp)
    }

    /// Computes the all-pairs cheapest-path cost matrix `c_ij`.
    ///
    /// This is the `c_ij` of the paper's §4: the cost of transmitting a file
    /// request from `i` to `j` plus the response, routed along the cheapest
    /// path ("the routing of the access requests between any two given nodes
    /// was taken to be along the shortest (least expensive) path", §6).
    /// `c_ii = 0`.
    ///
    /// # Errors
    ///
    /// The independent single-source runs fan out over scoped threads; the
    /// matrix is bit-identical for every [`fap_batch::Parallelism`]
    /// setting. `recorder` receives the `net.fanout_threads` gauge and one
    /// `net.dijkstra_chunk_ns` observation per worker chunk (wall-clock, in
    /// chunk order); a disabled recorder measures no timing at all.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when some pair of nodes has no
    /// connecting path — the paper's model assumes the network is logically
    /// fully connected — and [`NetError::TooLarge`] if `n·n` exceeds
    /// [`shortest_path::DEFAULT_DENSE_ELEMENT_BUDGET`].
    pub fn shortest_path_matrix(
        &self,
        parallelism: fap_batch::Parallelism,
        recorder: &mut dyn fap_obs::Recorder,
    ) -> Result<CostMatrix, NetError> {
        shortest_path::all_pairs_dijkstra(
            self,
            parallelism,
            shortest_path::DEFAULT_DENSE_ELEMENT_BUDGET,
            recorder,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_usize() {
        let id = NodeId::from(5usize);
        assert_eq!(usize::from(id), 5);
        assert_eq!(id, NodeId::new(5));
    }

    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.nodes().count(), 4);
    }

    #[test]
    fn add_link_inserts_both_directions() {
        let mut g = Graph::new(2);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.5).unwrap();
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(1.5));
        assert_eq!(g.direct_cost(NodeId::new(1), NodeId::new(0)), Some(1.5));
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn directed_link_is_one_way() {
        let mut g = Graph::new(2);
        g.add_directed_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(1.0));
        assert_eq!(g.direct_cost(NodeId::new(1), NodeId::new(0)), None);
    }

    #[test]
    fn rejects_negative_cost() {
        let mut g = Graph::new(2);
        let err = g.add_link(NodeId::new(0), NodeId::new(1), -1.0).unwrap_err();
        assert!(matches!(err, NetError::NegativeCost { .. }));
    }

    #[test]
    fn rejects_nan_cost() {
        let mut g = Graph::new(2);
        let err = g.add_link(NodeId::new(0), NodeId::new(1), f64::NAN).unwrap_err();
        assert!(matches!(err, NetError::NegativeCost { .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        let err = g.add_link(NodeId::new(1), NodeId::new(1), 1.0).unwrap_err();
        assert_eq!(err, NetError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let mut g = Graph::new(2);
        let err = g.add_link(NodeId::new(0), NodeId::new(9), 1.0).unwrap_err();
        assert!(matches!(err, NetError::NodeOutOfRange { node: 9, node_count: 2 }));
    }

    #[test]
    fn parallel_links_resolve_to_cheapest_direct_cost() {
        let mut g = Graph::new(2);
        g.add_directed_link(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        g.add_directed_link(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(2.0));
    }

    #[test]
    fn set_link_cost_reprices_both_directions_and_parallel_links() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        g.add_directed_link(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        let old = g.set_link_cost(NodeId::new(0), NodeId::new(1), 7.0).unwrap();
        assert_eq!(old, 2.0, "returns the previous cheapest direct cost");
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(7.0));
        assert_eq!(g.direct_cost(NodeId::new(1), NodeId::new(0)), Some(7.0));
        // Missing links and invalid costs are rejected without mutation.
        let err = g.set_link_cost(NodeId::new(0), NodeId::new(2), 1.0).unwrap_err();
        assert!(matches!(err, NetError::InvalidWorkload(_)));
        let err = g.set_link_cost(NodeId::new(0), NodeId::new(1), -1.0).unwrap_err();
        assert!(matches!(err, NetError::NegativeCost { .. }));
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(7.0));
    }

    #[test]
    fn push_and_pop_node_round_trip() {
        let mut g = Graph::new(2);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let snapshot = g.clone();
        let joined = g.push_node();
        assert_eq!(joined, NodeId::new(2));
        assert_eq!(g.node_count(), 3);
        g.add_link(NodeId::new(0), joined, 4.0).unwrap();
        assert_eq!(g.link_count(), 4);
        g.pop_node().unwrap();
        assert_eq!(g, snapshot, "pop removes the node and every incident link");
        let mut empty = Graph::new(0);
        assert!(matches!(empty.pop_node(), Err(NetError::TooFewNodes { .. })));
    }

    #[test]
    fn zero_cost_links_are_allowed() {
        let mut g = Graph::new(2);
        g.add_link(NodeId::new(0), NodeId::new(1), 0.0).unwrap();
        assert_eq!(g.direct_cost(NodeId::new(0), NodeId::new(1)), Some(0.0));
    }
}
