//! Network substrate for the microeconomic file-allocation system.
//!
//! This crate provides everything the file-allocation model in
//! [`fap-core`](https://example.invalid/fap) needs to know about the
//! communication network connecting the distributed agents:
//!
//! * [`Graph`] — a weighted graph of nodes and links with non-negative
//!   communication costs (directed or undirected);
//! * [`topology`] — generators for the network shapes used in the paper's
//!   evaluation (rings, full meshes) and for richer scenarios (stars, lines,
//!   grids, random Erdős–Rényi graphs);
//! * [`shortest_path`] — Dijkstra and Floyd–Warshall all-pairs routing,
//!   producing a [`CostMatrix`] of cheapest-path costs `c_ij` (the paper
//!   routes every access "along the shortest (least expensive) path");
//! * [`workload`] — access-rate vectors `λ_i` (Poisson intensities per node)
//!   with uniform, hotspot, Zipf-skewed and randomized generators.
//!
//! # Example
//!
//! Build the four-node ring of the paper's Figure 2 and compute the
//! system-wide access cost `C_i` of each node under a uniform workload:
//!
//! ```
//! use fap_net::{topology, workload::AccessPattern, Parallelism};
//! use fap_obs::NoopRecorder;
//!
//! let graph = topology::ring(4, 1.0)?;
//! let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)?;
//! let pattern = AccessPattern::uniform(4, 1.0)?;
//! let c = costs.systemwide_access_costs(&pattern);
//! // Symmetric ring: every node is equally cheap to access.
//! assert!(c.iter().all(|&ci| (ci - c[0]).abs() < 1e-12));
//! # Ok::<(), fap_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod error;
pub mod estimate;
pub mod graph;
pub mod incremental;
pub mod landmark;
pub mod provider;
pub mod routing;
pub mod shortest_path;
pub mod topology;
pub mod workload;

pub use cost::CostMatrix;
pub use error::NetError;
pub use fap_batch::Parallelism;
pub use graph::{Graph, Link, NodeId};
pub use incremental::{GraphDelta, UpdateStats};
pub use landmark::LandmarkOracle;
pub use provider::CostProvider;
pub use routing::RoutingTable;
pub use workload::AccessPattern;
