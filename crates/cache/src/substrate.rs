//! Cost-substrate selection and caching.
//!
//! PR 7 makes every solver generic over [`CostProvider`], which leaves the
//! serving layer with a choice per request: the exact dense
//! [`CostMatrix`](fap_net::CostMatrix) (`n²` floats, all-pairs Dijkstra)
//! or the sparse [`LandmarkOracle`] (`K·n` floats, `K` Dijkstra runs).
//! [`CostBackend`] names that choice in a serializable form the CLI and
//! `ServeSpec` share, and [`SubstrateCache`] memoizes both kinds behind
//! the same content-addressed fingerprints as [`CostMatrixCache`]:
//!
//! * dense entries are keyed by [`topology_fingerprint`] alone;
//! * landmark entries are keyed by `(fingerprint, k, seed)` — the oracle is
//!   deterministic in those three inputs, so a cached oracle is bit-identical
//!   to a rebuilt one.
//!
//! Both sides honor one byte budget ([`SubstrateCache::set_byte_limit`]):
//! the dense side evicts whole matrices FIFO, and the landmark side
//! re-polls each oracle's **live** resident bytes — its row LRU
//! materializes rows after insert time, so an insert-time figure would
//! undercount — evicting oldest-first and capping the accessed oracle's
//! row LRU against the remaining headroom.

use std::collections::HashMap;

use fap_batch::Parallelism;
use fap_net::{CostProvider, Graph, GraphDelta, LandmarkOracle, NetError, NodeId};
use fap_obs::{NoopRecorder, Recorder};
use serde::{Deserialize, Serialize};

use crate::{topology_fingerprint, CostMatrixCache, FnvBuildHasher};

/// Default landmark count for [`CostBackend::Landmark`] when the caller does
/// not specify one — small enough to build in milliseconds, large enough
/// that the ALT upper bound is tight on the bench topologies.
pub const DEFAULT_LANDMARKS: usize = 16;

/// Default farthest-point seed for [`CostBackend::Landmark`].
pub const DEFAULT_LANDMARK_SEED: u64 = 42;

fn default_landmarks() -> usize {
    DEFAULT_LANDMARKS
}

fn default_landmark_seed() -> u64 {
    DEFAULT_LANDMARK_SEED
}

/// Which cost substrate to build for a topology.
///
/// Serializes with a `kind` tag so serve specs read naturally:
/// `{"kind": "dense"}` or `{"kind": "landmark", "landmarks": 32, "seed": 7}`
/// (both fields optional). The default is [`CostBackend::Dense`] — exact
/// costs, bit-identical to every pre-PR-7 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum CostBackend {
    /// The exact dense all-pairs matrix (`n²` floats).
    #[default]
    Dense,
    /// The sparse landmark oracle: `landmarks` single-source Dijkstra runs
    /// from farthest-point seeds drawn deterministically from `seed`.
    Landmark {
        /// Number of landmarks `K` (clamped to `1..=n` at build time).
        #[serde(default = "default_landmarks")]
        landmarks: usize,
        /// Farthest-point selection seed.
        #[serde(default = "default_landmark_seed")]
        seed: u64,
    },
}

impl CostBackend {
    /// The landmark backend with default `K` and seed.
    #[must_use]
    pub fn landmark() -> Self {
        CostBackend::Landmark { landmarks: DEFAULT_LANDMARKS, seed: DEFAULT_LANDMARK_SEED }
    }

    /// Whether this backend is exact (dense) rather than approximate.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, CostBackend::Dense)
    }
}

/// One cached oracle: the source graph (debug-mode collision guard), the
/// built landmark table, and the row-LRU byte cap last applied to it
/// (`None` until a budget first touches it).
#[derive(Debug)]
struct OracleEntry {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    graph: Graph,
    oracle: LandmarkOracle,
    row_cap: Option<usize>,
}

type OracleKey = (u64, usize, u64);

/// A content-addressed cache of [`LandmarkOracle`]s keyed by
/// `(topology_fingerprint, landmark count, seed)`.
///
/// [`LandmarkOracle::build`] is deterministic in exactly those three inputs,
/// so a hit returns a table bit-identical to a fresh build. Hits and misses
/// are counted (`cache.landmark_hit` / `cache.landmark_miss` when observed)
/// and the resident bytes are published as the `cache.landmark_bytes`
/// gauge.
///
/// Byte accounting is **live**: an oracle's row LRU materializes rows
/// *after* the entry is inserted, so [`LandmarkOracleCache::bytes`]
/// re-polls every entry's [`CostProvider::substrate_bytes`] (table +
/// assignment + resident LRU rows) instead of freezing an insert-time
/// figure. Under a [`byte limit`](LandmarkOracleCache::set_byte_limit) the
/// cache evicts oldest-first on every access and caps the accessed
/// oracle's row LRU against the budget headroom, so the published gauge
/// stays within the budget even after rows materialize (subject to the
/// LRU's one-row floor and the keep-one-entry rule below).
#[derive(Debug, Default)]
pub struct LandmarkOracleCache {
    entries: HashMap<OracleKey, OracleEntry, FnvBuildHasher>,
    /// Insertion order, oldest first, for budget eviction.
    order: Vec<OracleKey>,
    hits: u64,
    misses: u64,
    incremental: u64,
    byte_limit: Option<u64>,
}

impl LandmarkOracleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        LandmarkOracleCache::default()
    }

    /// Number of distinct `(topology, k, seed)` oracles currently cached.
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

    /// Lifetime count of lookups that had to build an oracle.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime count of lookups answered by incrementally repairing a
    /// cached oracle onto a slightly edited topology (a subset of
    /// [`LandmarkOracleCache::misses`] would otherwise have been full
    /// rebuilds).
    pub fn incremental_updates(&self) -> u64 {
        self.incremental
    }

    /// Total bytes currently resident, re-polled live from every entry's
    /// [`CostProvider::substrate_bytes`]: landmark tables, home
    /// assignments, *and* each oracle's materialized LRU rows.
    pub fn bytes(&self) -> u64 {
        self.entries.values().map(|e| e.oracle.substrate_bytes() as u64).sum()
    }

    /// Caps the cache at `bytes` live bytes (`None` = unbounded). On every
    /// subsequent access the oldest entries are evicted while the live
    /// total exceeds the budget (the accessed entry always survives, like
    /// the dense cache's keep-newest rule), and the accessed oracle's row
    /// LRU is capped to the remaining headroom. The LRU keeps at least one
    /// row, so a budget smaller than one entry's table + one row is held
    /// as closely as that floor allows.
    pub fn set_byte_limit(&mut self, bytes: Option<u64>) {
        self.byte_limit = bytes;
    }

    /// The configured byte budget, if any.
    pub fn byte_limit(&self) -> Option<u64> {
        self.byte_limit
    }

    /// Drops every entry (lifetime counters survive, matching
    /// [`CostMatrixCache::clear`]).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Returns the cached oracle for `(graph, k, seed)`, building it on
    /// first sight. See [`LandmarkOracleCache::get_or_build_observed`].
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] from [`LandmarkOracle::build`]; a failed
    /// build is not cached.
    pub fn get_or_build(
        &mut self,
        graph: &Graph,
        k: usize,
        seed: u64,
    ) -> Result<&LandmarkOracle, NetError> {
        self.get_or_build_observed(graph, k, seed, &mut NoopRecorder)
    }

    /// Returns the cached oracle for `(graph, k, seed)`, building it on
    /// first sight and recording `cache.landmark_hit` /
    /// `cache.landmark_miss` counters and the live `cache.landmark_bytes`
    /// gauge (enforcing the byte budget first, so the published figure is
    /// post-eviction).
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] from [`LandmarkOracle::build`] (empty graph,
    /// disconnected topology); a failed build is not cached.
    ///
    /// # Panics
    ///
    /// Debug builds panic if two structurally different graphs ever share a
    /// fingerprint, rather than serving a wrong oracle.
    pub fn get_or_build_observed(
        &mut self,
        graph: &Graph,
        k: usize,
        seed: u64,
        recorder: &mut dyn Recorder,
    ) -> Result<&LandmarkOracle, NetError> {
        let key = (topology_fingerprint(graph), k, seed);
        if self.entries.contains_key(&key) {
            #[cfg(debug_assertions)]
            assert!(
                self.entries[&key].graph == *graph,
                "topology fingerprint collision: two distinct graphs hash to {:#018x}",
                key.0
            );
            self.hits += 1;
            recorder.incr("cache.landmark_hit", 1);
            fap_obs::emit_marker_span(recorder, "cache.landmark_hit");
        } else {
            self.misses += 1;
            recorder.incr("cache.landmark_miss", 1);
            fap_obs::emit_marker_span(recorder, "cache.landmark_miss");
            let oracle = LandmarkOracle::build(graph, k, seed)?;
            self.entries
                .insert(key, OracleEntry { graph: graph.clone(), oracle, row_cap: None });
            self.order.push(key);
        }
        self.enforce_budget(&key);
        recorder.gauge("cache.landmark_bytes", self.bytes() as f64);
        Ok(&self.entries[&key].oracle)
    }

    /// Returns the oracle for `(graph, k, seed)`, preferring an
    /// incremental repair over a rebuild when the topology drifted.
    ///
    /// On a fingerprint miss the cache looks for its newest entry with
    /// the same `(k, seed)` and diffs that entry's stored graph against
    /// `graph`. When the difference is a recognizable small delta — a
    /// bounded set of edge re-pricings, one node join, or one node
    /// leave — the cached oracle is repaired in place with
    /// [`LandmarkOracle::apply_deltas`] and re-keyed under the new
    /// fingerprint, which costs a dirty-frontier sliver of the `K·n`
    /// rebuild (and, under `WarmMode::Session`-style serving, keeps
    /// the substrate warm across topology edits). The repaired oracle is
    /// bit-identical to [`LandmarkOracle::with_landmarks`] on the edited
    /// topology with the cached landmark chain — the distance table has
    /// one fixed point per landmark set, so the repair path cannot drift
    /// from a rebuild *on the same landmarks*. (A cold
    /// [`LandmarkOracle::build`] may pick a different farthest-point
    /// chain on the edited graph; keeping the chain stable across edits
    /// is exactly what makes the update warm.) Unrecognizable or
    /// oversized diffs, and repairs the oracle refuses (a departing
    /// landmark, a disconnecting edit), fall back to the ordinary
    /// build-on-miss path.
    ///
    /// Counters: a repair records `cache.landmark_incremental` (and
    /// counts as neither hit nor miss); hits and full builds record the
    /// same counters as [`LandmarkOracleCache::get_or_build_observed`].
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] from the fallback build; a failed repair
    /// evicts the stale entry but never poisons the cache.
    pub fn get_or_update_observed(
        &mut self,
        graph: &Graph,
        k: usize,
        seed: u64,
        recorder: &mut dyn Recorder,
    ) -> Result<&LandmarkOracle, NetError> {
        let key = (topology_fingerprint(graph), k, seed);
        if !self.entries.contains_key(&key) {
            if let Some(donor) = self.repair_candidate(graph, k, seed, key.0) {
                let mut entry = self.entries.remove(&donor).expect("candidate present");
                self.order.retain(|o| *o != donor);
                let deltas = diff_graphs(&entry.graph, graph, max_repair_deltas(graph))
                    .expect("candidate implies a recognized diff");
                let mut patched = entry.graph.clone();
                if entry.oracle.apply_deltas(&mut patched, &deltas).is_ok() && patched == *graph
                {
                    entry.graph = patched;
                    self.incremental += 1;
                    recorder.incr("cache.landmark_incremental", 1);
                    fap_obs::emit_marker_span(recorder, "cache.landmark_incremental");
                    self.entries.insert(key, entry);
                    self.order.push(key);
                    self.enforce_budget(&key);
                    recorder.gauge("cache.landmark_bytes", self.bytes() as f64);
                    return Ok(&self.entries[&key].oracle);
                }
                // A refused or diverging repair leaves the entry stale:
                // drop it (already detached) and rebuild below.
            }
        }
        self.get_or_build_observed(graph, k, seed, recorder)
    }

    /// The newest same-`(k, seed)` entry whose stored graph diffs against
    /// `graph` as a recognized small delta, if any.
    fn repair_candidate(
        &self,
        graph: &Graph,
        k: usize,
        seed: u64,
        fingerprint: u64,
    ) -> Option<OracleKey> {
        let cap = max_repair_deltas(graph);
        self.order
            .iter()
            .rev()
            .find(|(f, kk, ss)| {
                *kk == k
                    && *ss == seed
                    && *f != fingerprint
                    && diff_graphs(&self.entries[&(*f, *kk, *ss)].graph, graph, cap).is_some()
            })
            .copied()
    }

    /// Evicts oldest-first while over budget (sparing `keep`), then caps
    /// `keep`'s row LRU to the budget headroom left by the other entries.
    /// Re-capping clears that oracle's cached rows, so the cap is only
    /// reapplied when the headroom actually changed.
    fn enforce_budget(&mut self, keep: &OracleKey) {
        let Some(limit) = self.byte_limit else { return };
        while self.bytes() > limit && self.order.len() > 1 {
            let Some(pos) = self.order.iter().position(|k| k != keep) else { break };
            let victim = self.order.remove(pos);
            self.entries.remove(&victim);
        }
        let others: u64 = self
            .entries
            .iter()
            .filter(|(k, _)| *k != keep)
            .map(|(_, e)| e.oracle.substrate_bytes() as u64)
            .sum();
        let entry = self.entries.get_mut(keep).expect("kept entry present");
        let f = std::mem::size_of::<f64>() as u64;
        let n = entry.oracle.node_count() as u64;
        let fixed = entry.oracle.landmark_count() as u64 * n * f
            + n * (std::mem::size_of::<u32>() as u64 + f);
        let cap = limit.saturating_sub(others.saturating_add(fixed)) as usize;
        if entry.row_cap != Some(cap) {
            entry.oracle.set_row_cache_bytes(cap);
            entry.row_cap = Some(cap);
        }
    }
}

/// Edge-repricing budget for the incremental path: repairs are a win
/// while the dirty frontier stays a sliver of the graph, so cap the
/// recognized diff at a small, size-relative edit set.
fn max_repair_deltas(graph: &Graph) -> usize {
    (graph.node_count() / 64).max(4)
}

/// Diffs `old` against `new` as a sequence of [`GraphDelta`]s the oracle
/// can replay, or `None` when the edit is not a recognized small delta.
///
/// Recognized shapes (checked in order):
///
/// * **edge re-pricings** — identical node count and adjacency
///   structure, at most `cap` undirected pairs re-priced, every parallel
///   link and both directions of a changed pair landing on one cost
///   (that is what [`GraphDelta::EdgeWeight`] replays);
/// * **one node join** — `new` is `old` plus one trailing node whose
///   links were appended (`add_link` order), nothing else changed;
/// * **one node leave** — `new` is `old` minus its last node, the
///   remaining adjacency filtered in place (`pop_node` order).
///
/// The caller still verifies the replayed graph equals `new` bit for bit
/// before trusting the repair, so recognition here only needs to be
/// precise enough to avoid wasted replays.
fn diff_graphs(old: &Graph, new: &Graph, cap: usize) -> Option<Vec<GraphDelta>> {
    let (n_old, n_new) = (old.node_count(), new.node_count());
    if n_old == n_new {
        return diff_edge_weights(old, new, cap);
    }
    if n_new == n_old + 1 {
        return diff_node_join(old, new);
    }
    if n_old == n_new + 1 {
        return diff_node_leave(old, new);
    }
    None
}

fn diff_edge_weights(old: &Graph, new: &Graph, cap: usize) -> Option<Vec<GraphDelta>> {
    let mut changed: Vec<(NodeId, NodeId)> = Vec::new();
    for u in old.nodes() {
        let (a, b) = (old.neighbors(u), new.neighbors(u));
        if a.len() != b.len() {
            return None;
        }
        for (&(va, ca), &(vb, cb)) in a.iter().zip(b) {
            if va != vb {
                return None;
            }
            if ca.to_bits() != cb.to_bits() {
                let pair = (u.min(va), u.max(va));
                if !changed.contains(&pair) {
                    changed.push(pair);
                    if changed.len() > cap {
                        return None;
                    }
                }
            }
        }
    }
    let mut deltas = Vec::with_capacity(changed.len());
    for (u, v) in changed {
        // EdgeWeight replays as "every link between u and v, both
        // directions, now costs this": the diff is only faithful when
        // the new graph agrees with itself on that.
        let cost = new.direct_cost(u, v)?;
        let uniform = |from: NodeId, to: NodeId| {
            new.neighbors(from)
                .iter()
                .filter(|(t, _)| *t == to)
                .all(|(_, c)| c.to_bits() == cost.to_bits())
        };
        if !(uniform(u, v) && uniform(v, u)) {
            return None;
        }
        deltas.push(GraphDelta::EdgeWeight { from: u, to: v, cost });
    }
    Some(deltas)
}

fn diff_node_join(old: &Graph, new: &Graph) -> Option<Vec<GraphDelta>> {
    let joined = NodeId::new(old.node_count());
    for u in old.nodes() {
        let (a, b) = (old.neighbors(u), new.neighbors(u));
        if b.len() < a.len()
            || a.iter().zip(b).any(|(&(va, ca), &(vb, cb))| va != vb || ca.to_bits() != cb.to_bits())
            || b[a.len()..].iter().any(|(v, _)| *v != joined)
        {
            return None;
        }
    }
    Some(vec![GraphDelta::NodeJoin { edges: new.neighbors(joined).to_vec() }])
}

fn diff_node_leave(old: &Graph, new: &Graph) -> Option<Vec<GraphDelta>> {
    let departing = NodeId::new(new.node_count());
    for u in new.nodes() {
        let filtered: Vec<(NodeId, f64)> = old
            .neighbors(u)
            .iter()
            .filter(|(v, _)| *v != departing)
            .copied()
            .collect();
        let b = new.neighbors(u);
        if filtered.len() != b.len()
            || filtered
                .iter()
                .zip(b)
                .any(|(&(va, ca), &(vb, cb))| va != vb || ca.to_bits() != cb.to_bits())
        {
            return None;
        }
    }
    Some(vec![GraphDelta::NodeLeave])
}

/// The union cache the serving layer holds: dense matrices and landmark
/// oracles side by side, dispatched by [`CostBackend`] and returned as a
/// `&dyn CostProvider` so downstream solvers never branch on the kind.
#[derive(Debug, Default)]
pub struct SubstrateCache {
    dense: CostMatrixCache,
    landmarks: LandmarkOracleCache,
}

impl SubstrateCache {
    /// Creates an empty substrate cache (dense side unbounded; use
    /// [`SubstrateCache::dense_mut`] to set a byte budget).
    pub fn new() -> Self {
        SubstrateCache::default()
    }

    /// The dense cost-matrix side.
    pub fn dense(&self) -> &CostMatrixCache {
        &self.dense
    }

    /// Mutable access to the dense side (e.g. to set a byte budget).
    pub fn dense_mut(&mut self) -> &mut CostMatrixCache {
        &mut self.dense
    }

    /// The landmark-oracle side.
    pub fn landmarks(&self) -> &LandmarkOracleCache {
        &self.landmarks
    }

    /// Mutable access to the landmark-oracle side (e.g. to set a byte
    /// budget).
    pub fn landmarks_mut(&mut self) -> &mut LandmarkOracleCache {
        &mut self.landmarks
    }

    /// Applies one byte budget to *both* sides: the dense matrix cache's
    /// FIFO eviction and the landmark cache's live-byte enforcement
    /// (including row-LRU materialization) each observe `bytes`.
    pub fn set_byte_limit(&mut self, bytes: Option<u64>) {
        self.dense.set_byte_limit(bytes);
        self.landmarks.set_byte_limit(bytes);
    }

    /// Returns the provider for `(graph, backend)`, computing it on first
    /// sight and recording the respective cache counters.
    ///
    /// Dense requests hit the all-pairs matrix cache (budget-guarded, so an
    /// oversized topology fails with [`NetError::TooLarge`] before any
    /// `n²` allocation); landmark requests hit the oracle cache.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] from the underlying build.
    pub fn get_or_build(
        &mut self,
        graph: &Graph,
        backend: CostBackend,
        parallelism: Parallelism,
        recorder: &mut dyn Recorder,
    ) -> Result<&dyn CostProvider, NetError> {
        match backend {
            CostBackend::Dense => self
                .dense
                .get_or_compute(graph, parallelism, recorder)
                .map(|m| m as &dyn CostProvider),
            CostBackend::Landmark { landmarks, seed } => self
                .landmarks
                .get_or_build_observed(graph, landmarks, seed, recorder)
                .map(|o| o as &dyn CostProvider),
        }
    }

    /// Like [`SubstrateCache::get_or_build`], but landmark
    /// requests go through [`LandmarkOracleCache::get_or_update_observed`]:
    /// a cached oracle survives a small topology edit as an incremental
    /// repair instead of a cold rebuild. Dense requests are unaffected
    /// (the exact matrix has no incremental path — every cost can move
    /// under a single edge edit).
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] from the underlying build.
    pub fn get_or_update(
        &mut self,
        graph: &Graph,
        backend: CostBackend,
        parallelism: Parallelism,
        recorder: &mut dyn Recorder,
    ) -> Result<&dyn CostProvider, NetError> {
        match backend {
            CostBackend::Dense => self
                .dense
                .get_or_compute(graph, parallelism, recorder)
                .map(|m| m as &dyn CostProvider),
            CostBackend::Landmark { landmarks, seed } => self
                .landmarks
                .get_or_update_observed(graph, landmarks, seed, recorder)
                .map(|o| o as &dyn CostProvider),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::{topology, AccessPattern, NodeId};

    #[test]
    fn backend_default_is_dense_and_roundtrips() {
        assert_eq!(CostBackend::default(), CostBackend::Dense);
        assert!(CostBackend::Dense.is_exact());
        assert!(!CostBackend::landmark().is_exact());
        let json = serde_json::to_string(&CostBackend::landmark()).unwrap();
        let back: CostBackend = serde_json::from_str(&json).unwrap();
        assert_eq!(back, CostBackend::landmark());
    }

    #[test]
    fn landmark_fields_default_when_omitted() {
        let back: CostBackend = serde_json::from_str(r#"{"kind": "landmark"}"#).unwrap();
        assert_eq!(
            back,
            CostBackend::Landmark { landmarks: DEFAULT_LANDMARKS, seed: DEFAULT_LANDMARK_SEED }
        );
        let dense: CostBackend = serde_json::from_str(r#"{"kind": "dense"}"#).unwrap();
        assert_eq!(dense, CostBackend::Dense);
    }

    #[test]
    fn oracle_cache_hits_on_the_same_key_only() {
        let g = topology::ring(12, 1.0).unwrap();
        let mut cache = LandmarkOracleCache::new();
        let first = cache.get_or_build(&g, 3, 7).unwrap().landmarks().to_vec();
        let again = cache.get_or_build(&g, 3, 7).unwrap().landmarks().to_vec();
        assert_eq!(first, again);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different seed or k is a distinct oracle.
        cache.get_or_build(&g, 3, 8).unwrap();
        cache.get_or_build(&g, 4, 7).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 3));
        // Live accounting: per entry, the K·n table plus the per-node home
        // assignment (u32 index + f64 distance); no LRU rows materialized.
        let assignment = 12 * (4 + 8);
        assert_eq!(cache.bytes(), (3 + 3 + 4) * 12 * 8 + 3 * assignment);
    }

    #[test]
    fn cached_oracle_is_bit_identical_to_a_fresh_build() {
        let g = topology::random_connected(40, 0.2, 1.0..3.0, 5).unwrap();
        let fresh = LandmarkOracle::build(&g, 6, 11).unwrap();
        let mut cache = LandmarkOracleCache::new();
        cache.get_or_build(&g, 6, 11).unwrap();
        let cached = cache.get_or_build(&g, 6, 11).unwrap();
        assert_eq!(fresh.landmarks(), cached.landmarks());
        for u in 0..40 {
            for v in 0..40 {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(fresh.cost(u, v).to_bits(), cached.cost(u, v).to_bits());
            }
        }
    }

    #[test]
    fn failed_build_is_not_cached() {
        let disconnected = Graph::new(3);
        let mut cache = LandmarkOracleCache::new();
        assert!(cache.get_or_build(&disconnected, 2, 0).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn observed_lookups_record_landmark_counters() {
        let g = topology::ring(10, 1.0).unwrap();
        let mut reg = fap_obs::MetricsRegistry::new();
        let mut cache = LandmarkOracleCache::new();
        cache.get_or_build_observed(&g, 4, 1, &mut reg).unwrap();
        cache.get_or_build_observed(&g, 4, 1, &mut reg).unwrap();
        assert_eq!(reg.counter("cache.landmark_miss"), 1);
        assert_eq!(reg.counter("cache.landmark_hit"), 1);
        let assignment = 10.0 * (4.0 + 8.0);
        assert_eq!(
            reg.gauge_value("cache.landmark_bytes"),
            Some(4.0 * 10.0 * 8.0 + assignment)
        );
    }

    #[test]
    fn byte_budget_holds_after_row_materialization() {
        // The drift-correctness contract: rows the oracle materializes
        // *after* insert time must not push the live bytes past the
        // budget. ring(32) with K=4: table 4·32·8 = 1024, assignment
        // 32·12 = 384, so a 2000-byte budget leaves 592 bytes of row
        // headroom — room for two 256-byte rows.
        let g = topology::ring(32, 1.0).unwrap();
        let limit = 2000u64;
        let mut reg = fap_obs::MetricsRegistry::new();
        let mut cache = LandmarkOracleCache::new();
        cache.set_byte_limit(Some(limit));
        let oracle = cache.get_or_build_observed(&g, 4, 1, &mut reg).unwrap();
        // Materialize every row: without the cap the LRU would hold all 32
        // (8 KiB, 4× the whole budget).
        let mut row = vec![0.0; 32];
        for v in 0..32 {
            oracle.row_into(NodeId::new(v), &mut row);
        }
        assert!(
            cache.bytes() <= limit,
            "live bytes {} exceed the {limit}-byte budget after row \
             materialization",
            cache.bytes()
        );
        // The re-polled gauge on the next access reflects the capped total.
        cache.get_or_build_observed(&g, 4, 1, &mut reg).unwrap();
        let gauge = reg.gauge_value("cache.landmark_bytes").unwrap();
        assert!(gauge <= limit as f64, "gauge {gauge} over budget");
        assert!(gauge > 0.0);
    }

    #[test]
    fn byte_budget_evicts_oldest_oracle_first() {
        let g = topology::ring(32, 1.0).unwrap();
        // Each entry is 1408 fixed bytes: a 2000-byte budget fits one.
        let mut cache = LandmarkOracleCache::new();
        cache.set_byte_limit(Some(2000));
        cache.get_or_build(&g, 4, 1).unwrap();
        cache.get_or_build(&g, 4, 2).unwrap();
        assert_eq!(cache.len(), 1, "the older oracle must be evicted");
        assert!(cache.bytes() <= 2000);
        // The survivor is the newest key: re-requesting it is a hit.
        cache.get_or_build(&g, 4, 2).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn update_path_repairs_across_an_edge_reprice() {
        let g = topology::random_connected(40, 0.2, 1.0..3.0, 5).unwrap();
        let mut cache = LandmarkOracleCache::new();
        cache.get_or_build(&g, 6, 11).unwrap();

        let mut edited = g.clone();
        let (u, v, old_cost) = {
            let u = NodeId::new(3);
            let (v, c) = edited.neighbors(u)[0];
            (u, v, c)
        };
        edited.set_link_cost(u, v, old_cost * 3.0).unwrap();

        let mut reg = fap_obs::MetricsRegistry::new();
        cache.get_or_update_observed(&edited, 6, 11, &mut reg).unwrap();
        assert_eq!(cache.incremental_updates(), 1);
        assert_eq!(reg.counter("cache.landmark_incremental"), 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1), "no rebuild, no hit");
        assert_eq!(cache.len(), 1, "the entry was re-keyed, not duplicated");

        // The repaired oracle is bit-identical to a rebuild on the edited
        // topology over the same landmark chain (a cold `build` may pick
        // different landmarks — the stable chain is the point of warmth).
        let oracle = cache.get_or_update_observed(&edited, 6, 11, &mut NoopRecorder).unwrap();
        let chain = oracle.landmarks().to_vec();
        let fresh =
            LandmarkOracle::with_landmarks(&edited, &chain, Parallelism::Sequential).unwrap();
        let repaired = cache.get_or_update_observed(&edited, 6, 11, &mut NoopRecorder).unwrap();
        for a in 0..40 {
            for b in 0..40 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(fresh.cost(a, b).to_bits(), repaired.cost(a, b).to_bits());
            }
        }
        assert_eq!((cache.hits(), cache.misses()), (2, 1), "re-requests are plain hits");
    }

    #[test]
    fn update_path_repairs_across_a_node_join_and_leave() {
        let g = topology::ring(16, 1.0).unwrap();
        let mut cache = LandmarkOracleCache::new();
        cache.get_or_build(&g, 4, 2).unwrap();

        // Join: one new node hanging off nodes 0 and 8.
        let mut joined = g.clone();
        let newcomer = joined.push_node();
        joined.add_link(NodeId::new(0), newcomer, 0.5).unwrap();
        joined.add_link(NodeId::new(8), newcomer, 1.5).unwrap();
        cache.get_or_update_observed(&joined, 4, 2, &mut NoopRecorder).unwrap();
        assert_eq!(cache.incremental_updates(), 1);
        let oracle = cache.get_or_update_observed(&joined, 4, 2, &mut NoopRecorder).unwrap();
        let chain = oracle.landmarks().to_vec();
        let fresh =
            LandmarkOracle::with_landmarks(&joined, &chain, Parallelism::Sequential).unwrap();
        let repaired = cache.get_or_update_observed(&joined, 4, 2, &mut NoopRecorder).unwrap();
        for a in 0..17 {
            for b in 0..17 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(fresh.cost(a, b).to_bits(), repaired.cost(a, b).to_bits());
            }
        }

        // Leave: the newcomer departs again — back to the original ring.
        cache.get_or_update_observed(&g, 4, 2, &mut NoopRecorder).unwrap();
        assert_eq!(cache.incremental_updates(), 2);
        let chain =
            cache.get_or_update_observed(&g, 4, 2, &mut NoopRecorder).unwrap().landmarks().to_vec();
        let fresh =
            LandmarkOracle::with_landmarks(&g, &chain, Parallelism::Sequential).unwrap();
        let repaired = cache.get_or_update_observed(&g, 4, 2, &mut NoopRecorder).unwrap();
        for a in 0..16 {
            for b in 0..16 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(fresh.cost(a, b).to_bits(), repaired.cost(a, b).to_bits());
            }
        }
    }

    #[test]
    fn update_path_falls_back_to_rebuild_on_a_large_edit() {
        let g = topology::ring(16, 1.0).unwrap();
        let mut cache = LandmarkOracleCache::new();
        cache.get_or_build(&g, 4, 2).unwrap();
        // A structurally different topology: no recognizable small delta.
        let other = topology::random_connected(16, 0.4, 1.0..3.0, 9).unwrap();
        cache.get_or_update_observed(&other, 4, 2, &mut NoopRecorder).unwrap();
        assert_eq!(cache.incremental_updates(), 0);
        assert_eq!(cache.misses(), 2, "fell back to a full build");
        assert_eq!(cache.len(), 2, "both topologies stay cached");
    }

    #[test]
    fn substrate_cache_dispatches_by_backend() {
        let g = topology::ring(9, 1.0).unwrap();
        let pattern = AccessPattern::uniform(9, 1.0).unwrap();
        let exact = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let mut cache = SubstrateCache::new();
        let dense = cache
            .get_or_build(&g, CostBackend::Dense, Parallelism::Sequential, &mut NoopRecorder)
            .unwrap();
        // The dense provider is the exact matrix, bit for bit.
        let via_cache = dense.systemwide_access_costs(&pattern);
        let direct = exact.systemwide_access_costs(&pattern);
        assert_eq!(via_cache.len(), direct.len());
        for (a, b) in via_cache.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let backend = CostBackend::Landmark { landmarks: 3, seed: 1 };
        let sparse =
            cache.get_or_build(&g, backend, Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(sparse.node_count(), 9);
        assert_eq!(cache.dense().misses(), 1);
        assert_eq!(cache.landmarks().misses(), 1);
        // Each side hits independently.
        cache.get_or_build(&g, CostBackend::Dense, Parallelism::Sequential, &mut NoopRecorder)
            .unwrap();
        assert_eq!(cache.dense().hits(), 1);
    }
}
