//! Content-addressed warm-path caches for the file-allocation system.
//!
//! The serving layer's dominant fixed cost is the all-pairs shortest-path
//! computation that turns a [`Graph`] into a [`CostMatrix`] (the `c_ij` of the
//! paper's §4). In the ROADMAP's target regime — heavy repeated traffic over a
//! shared network — most requests in a batch share a topology and differ only
//! in workload, so that matrix is recomputed needlessly. This crate provides:
//!
//! * [`fnv`] — a hand-rolled FNV-1a 64-bit hasher, in the spirit of the rest
//!   of the vendored zero-dependency stack;
//! * [`topology_fingerprint`] — a canonical 64-bit fingerprint of a graph's
//!   exact structure (node count, adjacency order, and the bit pattern of
//!   every link cost);
//! * [`CostMatrixCache`] — a content-addressed cache keyed by that
//!   fingerprint, so all-pairs Dijkstra runs once per *distinct* graph
//!   instead of once per request.
//!
//! # Fingerprint canonicality and the collision guard
//!
//! Two graphs receive the same fingerprint iff they hash the same byte
//! stream: the node count, then for each node its adjacency length followed
//! by every `(neighbor index, cost bits)` pair in insertion order. Costs are
//! hashed via [`f64::to_bits`], so the fingerprint distinguishes `0.0` from
//! `-0.0` and is exact for every representable cost — there is no epsilon
//! anywhere. Adjacency *order* matters: the same logical topology built by
//! inserting links in a different order fingerprints differently. That is
//! deliberate — a false split only costs one redundant Dijkstra run, whereas
//! treating distinct graphs as equal would serve wrong answers.
//!
//! A 64-bit fingerprint can still collide in principle. Debug builds therefore
//! keep the full source [`Graph`] alongside each entry and compare it
//! structurally on every hit, panicking loudly if a collision is ever
//! observed; release builds skip the comparison (the graph is retained either
//! way, so the guard can be re-enabled without invalidating caches).
//!
//! # Example
//!
//! ```
//! use fap_cache::CostMatrixCache;
//! use fap_net::{topology, Parallelism};
//! use fap_obs::NoopRecorder;
//!
//! let ring = topology::ring(8, 1.0)?;
//! let mut cache = CostMatrixCache::new();
//! let first = cache.get_or_compute(&ring, Parallelism::Sequential, &mut NoopRecorder)?.clone();
//! // Second lookup is a pure hash-map hit: no Dijkstra, no allocation.
//! let second = cache.get_or_compute(&ring, Parallelism::Sequential, &mut NoopRecorder)?;
//! assert_eq!(&first, second);
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! # Ok::<(), fap_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{HashMap, VecDeque};

use fap_batch::Parallelism;
use fap_net::{CostMatrix, Graph, NetError};
use fap_obs::{NoopRecorder, Recorder};

pub mod fnv;
pub mod substrate;

pub use fnv::{Fnv64, FnvBuildHasher};
pub use substrate::{
    CostBackend, LandmarkOracleCache, SubstrateCache, DEFAULT_LANDMARKS, DEFAULT_LANDMARK_SEED,
};

/// Computes the canonical 64-bit FNV-1a fingerprint of a graph's structure.
///
/// The fingerprint covers the node count and, per node, the adjacency list in
/// insertion order with each cost hashed by bit pattern ([`f64::to_bits`]).
/// Equal graphs (same [`PartialEq`] structure) always fingerprint equally;
/// distinct graphs collide only with the usual 64-bit hash probability, and
/// [`CostMatrixCache`] guards against that in debug builds.
pub fn topology_fingerprint(graph: &Graph) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(graph.node_count());
    for node in graph.nodes() {
        let adjacency = graph.neighbors(node);
        h.write_usize(adjacency.len());
        for &(neighbor, cost) in adjacency {
            h.write_usize(neighbor.index());
            h.write_u64(cost.to_bits());
        }
    }
    h.finish64()
}

/// One cached all-pairs result: the source graph (for the debug-mode
/// collision guard) and its computed cost matrix.
#[derive(Debug, Clone)]
struct CacheEntry {
    // Only the debug-mode collision guard reads the graph back.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    graph: Graph,
    matrix: CostMatrix,
}

/// A content-addressed cache of all-pairs shortest-path cost matrices, keyed
/// by [`topology_fingerprint`].
///
/// Lookups on a warm key are allocation-free: the fingerprint is computed on
/// the stack and the map is probed in place. Misses run
/// [`Graph::shortest_path_matrix`] once and retain the result —
/// one entry per distinct topology, sized `n²` floats each, tracked by
/// [`CostMatrixCache::bytes`].
///
/// By default the cache is unbounded (the one-shot CLI paths see a handful
/// of topologies per run). Long-lived holders — the `fap served` daemon —
/// can set a byte budget with [`CostMatrixCache::with_byte_limit`]; when an
/// insertion pushes [`CostMatrixCache::bytes`] past the budget, the oldest
/// entries by *insertion order* are dropped (FIFO) until the cache fits,
/// except that the sole remaining entry is never evicted (a matrix larger
/// than the whole budget still has to be usable). Evictions are counted by
/// [`CostMatrixCache::evictions`] and the `cache.evictions` metric.
#[derive(Debug, Default)]
pub struct CostMatrixCache {
    entries: HashMap<u64, CacheEntry, FnvBuildHasher>,
    /// Live fingerprints, oldest first — the FIFO eviction order.
    insertion_order: VecDeque<u64>,
    byte_limit: Option<u64>,
    hits: u64,
    misses: u64,
    bytes: u64,
    evictions: u64,
}

impl CostMatrixCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        CostMatrixCache::default()
    }

    /// Creates an empty cache that evicts oldest-first once the cached
    /// matrices exceed `bytes` (the sole remaining entry is never evicted).
    #[must_use]
    pub fn with_byte_limit(bytes: u64) -> Self {
        CostMatrixCache { byte_limit: Some(bytes), ..CostMatrixCache::default() }
    }

    /// Sets (or clears, with `None`) the byte budget. Tightening the budget
    /// takes effect on the *next* insertion — existing entries are not
    /// dropped eagerly, so borrowed matrices stay valid.
    pub fn set_byte_limit(&mut self, bytes: Option<u64>) {
        self.byte_limit = bytes;
    }

    /// The configured byte budget, if any.
    pub fn byte_limit(&self) -> Option<u64> {
        self.byte_limit
    }

    /// Lifetime count of entries evicted to fit the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of distinct topologies currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime count of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime count of lookups that had to run Dijkstra.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total size of the cached matrices in bytes (`Σ n² · 8`).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Drops every entry and resets the byte gauge (hit/miss/eviction
    /// counters are lifetime totals and survive a clear).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.insertion_order.clear();
        self.bytes = 0;
    }

    /// Returns the cached matrix for `graph`, computing and caching it on
    /// first sight, recording `cache.hit` / `cache.miss` counters and the
    /// `cache.bytes` gauge into `recorder`.
    ///
    /// The returned matrix is bit-identical to a fresh
    /// [`Graph::shortest_path_matrix`] run: hits return the stored
    /// result of exactly that computation, and the fingerprint never merges
    /// structurally distinct graphs (checked structurally in debug builds).
    ///
    /// # Errors
    ///
    /// Propagates [`NetError::Disconnected`] from the shortest-path run; a
    /// failed computation is not cached.
    ///
    /// # Panics
    ///
    /// Debug builds panic if two structurally different graphs ever share a
    /// fingerprint (a 64-bit collision), rather than serving a wrong matrix.
    pub fn get_or_compute(
        &mut self,
        graph: &Graph,
        parallelism: Parallelism,
        recorder: &mut dyn Recorder,
    ) -> Result<&CostMatrix, NetError> {
        let key = topology_fingerprint(graph);
        // A plain `match self.entries.get(&key)` would hold the borrow across
        // the insert arm; contains_key keeps the hit path allocation-free.
        if self.entries.contains_key(&key) {
            let entry = &self.entries[&key];
            #[cfg(debug_assertions)]
            assert!(
                entry.graph == *graph,
                "topology fingerprint collision: two distinct graphs hash to {key:#018x}"
            );
            self.hits += 1;
            recorder.incr("cache.hit", 1);
            recorder.gauge("cache.bytes", self.bytes as f64);
            fap_obs::emit_marker_span(recorder, "cache.hit");
            return Ok(&entry.matrix);
        }
        // A miss is an *attempt*, so failed computations stay visible in the
        // telemetry even though they are never cached.
        self.misses += 1;
        recorder.incr("cache.miss", 1);
        fap_obs::emit_marker_span(recorder, "cache.miss");
        let matrix = graph.shortest_path_matrix(parallelism, &mut NoopRecorder)?;
        let n = matrix.node_count() as u64;
        self.bytes += n * n * 8;
        self.entries.insert(key, CacheEntry { graph: graph.clone(), matrix });
        self.insertion_order.push_back(key);
        if let Some(limit) = self.byte_limit {
            while self.bytes > limit && self.entries.len() > 1 {
                let oldest =
                    self.insertion_order.pop_front().expect("order tracks every live entry");
                let evicted =
                    self.entries.remove(&oldest).expect("order holds only live fingerprints");
                let m = evicted.matrix.node_count() as u64;
                self.bytes -= m * m * 8;
                self.evictions += 1;
                recorder.incr("cache.evictions", 1);
            }
        }
        recorder.gauge("cache.bytes", self.bytes as f64);
        Ok(&self.entries[&key].matrix)
    }

    /// Returns the cached matrix for a graph whose fingerprint is already
    /// known, without recomputing the fingerprint or running Dijkstra.
    ///
    /// This is the pure-probe path (no miss fill, no counters); useful for
    /// tests and for callers that batch-fingerprint up front.
    pub fn peek(&self, fingerprint: u64) -> Option<&CostMatrix> {
        self.entries.get(&fingerprint).map(|e| &e.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::topology;

    #[test]
    fn equal_graphs_fingerprint_equally() {
        let a = topology::ring(6, 1.5).unwrap();
        let b = topology::ring(6, 1.5).unwrap();
        assert_eq!(topology_fingerprint(&a), topology_fingerprint(&b));
    }

    #[test]
    fn cost_change_changes_the_fingerprint() {
        let a = topology::ring(6, 1.5).unwrap();
        let b = topology::ring(6, 1.5000000001).unwrap();
        assert_ne!(topology_fingerprint(&a), topology_fingerprint(&b));
    }

    #[test]
    fn shape_change_changes_the_fingerprint() {
        let ring = topology::ring(5, 1.0).unwrap();
        let star = topology::star(5, 1.0).unwrap();
        assert_ne!(topology_fingerprint(&ring), topology_fingerprint(&star));
    }

    #[test]
    fn empty_graphs_of_different_sizes_differ() {
        assert_ne!(
            topology_fingerprint(&Graph::new(3)),
            topology_fingerprint(&Graph::new(4))
        );
    }

    #[test]
    fn hit_returns_the_identical_matrix() {
        let g = topology::full_mesh(7, 2.0).unwrap();
        let fresh = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let mut cache = CostMatrixCache::new();
        let miss =
            cache.get_or_compute(&g, Parallelism::Sequential, &mut NoopRecorder).unwrap().clone();
        let hit = cache.get_or_compute(&g, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(&fresh, &miss);
        assert_eq!(&fresh, hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_topologies_occupy_distinct_entries() {
        let mut cache = CostMatrixCache::new();
        let a = topology::ring(4, 1.0).unwrap();
        let b = topology::ring(8, 1.0).unwrap();
        cache.get_or_compute(&a, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        cache.get_or_compute(&b, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.bytes(), (4 * 4 + 8 * 8) * 8);
    }

    #[test]
    fn failed_computation_is_not_cached() {
        let disconnected = Graph::new(3); // no links at all
        let mut cache = CostMatrixCache::new();
        let noop = &mut NoopRecorder;
        assert!(cache.get_or_compute(&disconnected, Parallelism::Sequential, noop).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        // Misses count attempts, so the failure is visible in telemetry.
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn observed_lookups_record_hit_miss_and_bytes() {
        let g = topology::ring(4, 1.0).unwrap();
        let mut reg = fap_obs::MetricsRegistry::new();
        let mut cache = CostMatrixCache::new();
        cache.get_or_compute(&g, Parallelism::Sequential, &mut reg).unwrap();
        cache.get_or_compute(&g, Parallelism::Sequential, &mut reg).unwrap();
        cache.get_or_compute(&g, Parallelism::Sequential, &mut reg).unwrap();
        assert_eq!(reg.counter("cache.miss"), 1);
        assert_eq!(reg.counter("cache.hit"), 2);
        assert_eq!(reg.gauge_value("cache.bytes"), Some((4.0 * 4.0) * 8.0));
    }

    #[test]
    fn clear_resets_entries_and_bytes_but_keeps_lifetime_counters() {
        let g = topology::ring(4, 1.0).unwrap();
        let mut cache = CostMatrixCache::new();
        cache.get_or_compute(&g, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.misses(), 1);
        cache.get_or_compute(&g, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn byte_limit_evicts_oldest_first() {
        // Three 4-node rings (128 bytes each) under a 300-byte budget: the
        // third insertion overflows and the *first* ring is evicted.
        let a = topology::ring(4, 1.0).unwrap();
        let b = topology::ring(4, 2.0).unwrap();
        let c = topology::ring(4, 3.0).unwrap();
        let mut cache = CostMatrixCache::with_byte_limit(300);
        cache.get_or_compute(&a, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        cache.get_or_compute(&b, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        cache.get_or_compute(&c, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes(), 2 * 4 * 4 * 8);
        assert!(cache.peek(topology_fingerprint(&a)).is_none(), "oldest must go first");
        assert!(cache.peek(topology_fingerprint(&b)).is_some());
        assert!(cache.peek(topology_fingerprint(&c)).is_some());
        // Touching b again is still a hit — eviction never corrupts
        // surviving entries.
        cache.get_or_compute(&b, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn the_sole_entry_survives_even_over_budget() {
        let big = topology::full_mesh(8, 1.0).unwrap(); // 512 bytes
        let mut cache = CostMatrixCache::with_byte_limit(100);
        cache.get_or_compute(&big, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.bytes() > 100);
        // A second oversized topology evicts the first but is itself kept.
        let other = topology::full_mesh(8, 2.0).unwrap();
        cache.get_or_compute(&other, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.peek(topology_fingerprint(&other)).is_some());
    }

    #[test]
    fn evictions_are_recorded_and_the_limit_is_adjustable() {
        let mut reg = fap_obs::MetricsRegistry::new();
        let mut cache = CostMatrixCache::new();
        let a = topology::ring(4, 1.0).unwrap();
        let b = topology::ring(4, 2.0).unwrap();
        cache.get_or_compute(&a, Parallelism::Sequential, &mut reg).unwrap();
        cache.set_byte_limit(Some(128));
        cache.get_or_compute(&b, Parallelism::Sequential, &mut reg).unwrap();
        assert_eq!(reg.counter("cache.evictions"), 1);
        assert_eq!(reg.gauge_value("cache.bytes"), Some(128.0));
        assert_eq!(cache.byte_limit(), Some(128));
    }

    #[test]
    fn peek_finds_only_cached_fingerprints() {
        let g = topology::ring(4, 1.0).unwrap();
        let mut cache = CostMatrixCache::new();
        assert!(cache.peek(topology_fingerprint(&g)).is_none());
        cache.get_or_compute(&g, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert!(cache.peek(topology_fingerprint(&g)).is_some());
    }
}
