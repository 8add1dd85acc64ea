//! Error type for network-substrate operations.

use std::fmt;

/// Errors produced when constructing or querying network structures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// A node index was outside the graph's node range.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        node_count: usize,
    },
    /// A link was given a negative communication cost.
    NegativeCost {
        /// Source node of the link.
        from: usize,
        /// Destination node of the link.
        to: usize,
        /// The offending cost.
        cost: f64,
    },
    /// A topology generator was asked for fewer nodes than it supports.
    TooFewNodes {
        /// Requested node count.
        requested: usize,
        /// Minimum supported node count.
        minimum: usize,
    },
    /// Two nodes have no connecting path, so their cheapest-path cost is
    /// undefined.
    Disconnected {
        /// Source node.
        from: usize,
        /// Unreachable destination node.
        to: usize,
    },
    /// A workload parameter was invalid (e.g. a negative access rate).
    InvalidWorkload(String),
    /// A link was specified with identical endpoints.
    SelfLoop {
        /// The node that was linked to itself.
        node: usize,
    },
    /// A probability parameter was outside `[0, 1]`.
    InvalidProbability(f64),
    /// A dense all-pairs computation would exceed the element budget.
    ///
    /// Returned instead of attempting an `O(N²)` allocation that would
    /// dwarf memory at production node counts; callers wanting to scale
    /// past the budget should switch to the sparse landmark substrate.
    TooLarge {
        /// Number of nodes requested.
        nodes: usize,
        /// The `n·n` element count that was rejected.
        elements: u128,
        /// The configured element budget.
        budget: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range for graph with {node_count} nodes")
            }
            NetError::NegativeCost { from, to, cost } => {
                write!(f, "link {from} -> {to} has negative cost {cost}")
            }
            NetError::TooFewNodes { requested, minimum } => {
                write!(f, "topology requires at least {minimum} nodes, got {requested}")
            }
            NetError::Disconnected { from, to } => {
                write!(f, "no path from node {from} to node {to}")
            }
            NetError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            NetError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            NetError::InvalidProbability(p) => {
                write!(f, "probability {p} outside the unit interval")
            }
            NetError::TooLarge { nodes, elements, budget } => {
                let f64_bytes = std::mem::size_of::<f64>() as u128;
                let need = elements.saturating_mul(f64_bytes);
                let have = u128::from(*budget).saturating_mul(f64_bytes);
                write!(
                    f,
                    "dense {nodes}x{nodes} cost matrix needs {elements} elements \
                     (~{need} bytes vs the {have}-byte budget of {budget} elements); \
                     use the sparse landmark-oracle backend instead"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetError::NodeOutOfRange { node: 7, node_count: 4 };
        assert_eq!(e.to_string(), "node 7 out of range for graph with 4 nodes");
        let e = NetError::NegativeCost { from: 0, to: 1, cost: -2.0 };
        assert!(e.to_string().contains("negative cost"));
        let e = NetError::Disconnected { from: 1, to: 2 };
        assert!(e.to_string().contains("no path"));
    }

    #[test]
    fn too_large_reports_bytes_and_the_landmark_backend() {
        let e = NetError::TooLarge { nodes: 3, elements: 9, budget: 4 };
        let msg = e.to_string();
        assert!(msg.contains("~72 bytes"), "{msg}");
        assert!(msg.contains("32-byte budget"), "{msg}");
        assert!(msg.contains("landmark"), "{msg}");
        // The net crate names no CLI flag; the CLI appends its own hint.
        assert!(!msg.contains("--"), "{msg}");
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<NetError>();
    }
}
