//! Landmark distance oracle: a sparse `O(K·N)` [`CostProvider`].
//!
//! Instead of the dense all-pairs matrix, pick `K ≪ N` **landmark** nodes,
//! run one single-source Dijkstra per landmark, and estimate any pairwise
//! cost from the `K × N` distance table via the classic ALT bounds
//! (Goldberg–Harrelson): for a symmetric metric `d`,
//!
//! ```text
//! max_k |d(L_k,u) − d(L_k,v)|  ≤  d(u,v)  ≤  min_k d(L_k,u) + d(L_k,v)
//! ```
//!
//! The lower bound is the triangle inequality run backwards, the upper
//! bound is the cost of routing through the best landmark. The oracle
//! serves the **upper** bound as its cost estimate — it is realizable (a
//! real route exists at that cost) and exact whenever `u` or `v` is a
//! landmark or both share a nearby one.
//!
//! Landmarks are chosen by **farthest-point seeding** from a deterministic
//! seed: the first landmark is derived from the seed, each next landmark
//! is the node farthest from all chosen ones (ties to the lowest index).
//! The selection sweep's Dijkstra runs *are* the oracle's distance rows,
//! so construction costs exactly `K` single-source runs; the
//! fixed-landmark constructor fans independent runs out over scoped
//! threads like the dense all-pairs path.
//!
//! Memory: `K·N` `f64` distances plus an LRU of materialized rows — at
//! `K = 64, N = 131072` about 67 MiB, versus ≈137 GiB for the dense
//! matrix.

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fap_batch::{Matrix, Parallelism};
use fap_obs::Recorder;

use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::provider::CostProvider;
use crate::shortest_path::dijkstra_into;
use crate::workload::AccessPattern;

/// Default byte budget for the LRU of materialized upper-bound rows.
pub const DEFAULT_ROW_CACHE_BYTES: usize = 32 << 20;

/// An LRU keyed by source node over materialized upper-bound rows.
#[derive(Debug)]
struct RowLru {
    rows: HashMap<usize, (u64, Vec<f64>)>,
    capacity_rows: usize,
    tick: u64,
}

impl RowLru {
    fn new(capacity_rows: usize) -> Self {
        RowLru { rows: HashMap::new(), capacity_rows: capacity_rows.max(1), tick: 0 }
    }

    /// Copies the cached row for `from` into `out`, refreshing its stamp.
    fn copy_hit(&mut self, from: usize, out: &mut [f64]) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.rows.get_mut(&from) {
            Some((stamp, row)) => {
                *stamp = tick;
                out.copy_from_slice(row);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, from: usize, row: Vec<f64>) {
        if self.rows.len() >= self.capacity_rows && !self.rows.contains_key(&from) {
            // Evict the least recently used row (smallest stamp).
            if let Some(&victim) =
                self.rows.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k)
            {
                self.rows.remove(&victim);
            }
        }
        self.tick += 1;
        self.rows.insert(from, (self.tick, row));
    }

    fn resident_bytes(&self) -> usize {
        self.rows.values().map(|(_, row)| row.len() * std::mem::size_of::<f64>()).sum()
    }
}

/// The landmark distance oracle: `K` landmarks, their `K × N` single-source
/// distance table, the nearest-landmark (home) assignment of every node,
/// and an LRU of materialized rows.
///
/// Implements [`CostProvider`] with the ALT upper bound as the cost
/// estimate and an `O(N + K²)` hub-decomposition estimator for the
/// system-wide access costs.
#[derive(Debug)]
pub struct LandmarkOracle {
    pub(crate) n: usize,
    pub(crate) landmarks: Vec<NodeId>,
    /// `dist.row(k)[v] = d(L_k, v)`.
    pub(crate) dist: Matrix,
    /// Index into `landmarks` of each node's nearest landmark.
    pub(crate) home: Vec<u32>,
    /// Distance from each node to its home landmark.
    pub(crate) home_dist: Vec<f64>,
    row_lru: Mutex<RowLru>,
    rows_materialized: AtomicU64,
    row_cache_hits: AtomicU64,
    /// Snapshots of the lifetime counters at the last publish, so
    /// [`LandmarkOracle::publish_metrics`] emits only the delta while the
    /// counters themselves stay monotonic.
    published_rows: AtomicU64,
    published_hits: AtomicU64,
}

impl LandmarkOracle {
    /// Builds the oracle on `graph` with `k` landmarks chosen by
    /// farthest-point seeding from `seed`.
    ///
    /// `k` is clamped to `1..=n`. The selection chain is data-dependent
    /// (each landmark depends on the distances of the previous ones), so
    /// it runs sequentially; the `K` Dijkstra runs it performs double as
    /// the oracle's distance rows. Deterministic: the same `(graph, k,
    /// seed)` always yields the same landmarks and table.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::TooFewNodes`] for an empty graph and
    /// [`NetError::Disconnected`] if any node is unreachable from a
    /// landmark.
    pub fn build(graph: &Graph, k: usize, seed: u64) -> Result<Self, NetError> {
        let n = graph.node_count();
        if n == 0 {
            return Err(NetError::TooFewNodes { requested: 0, minimum: 1 });
        }
        let k = k.clamp(1, n);
        let first = ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n;

        let mut dist = Matrix::zeros(k, n);
        let mut landmarks = Vec::with_capacity(k);
        let mut heap = BinaryHeap::new();
        // min over chosen landmarks of d(L, v); drives farthest-point picks.
        let mut min_dist = vec![f64::INFINITY; n];

        let mut next = NodeId::new(first);
        for round in 0..k {
            landmarks.push(next);
            let row = dist.row_mut(round);
            dijkstra_into(graph, next, row, None, &mut heap);
            if let Some(bad) = row.iter().position(|d| d.is_infinite()) {
                return Err(NetError::Disconnected { from: next.index(), to: bad });
            }
            for (m, &d) in min_dist.iter_mut().zip(row.iter()) {
                if d < *m {
                    *m = d;
                }
            }
            if round + 1 == k {
                break;
            }
            // Farthest node from every chosen landmark; ties go to the
            // lowest index, so selection is deterministic per seed.
            let (farthest, &gap) = min_dist
                .iter()
                .enumerate()
                .max_by(|&(i, a), &(j, b)| a.total_cmp(b).then(j.cmp(&i)))
                .expect("non-empty graph");
            if gap == 0.0 {
                break; // every node already coincides with a landmark
            }
            next = NodeId::new(farthest);
        }
        if landmarks.len() < k {
            dist = resize_rows(&dist, landmarks.len(), n);
        }
        Ok(Self::from_table(n, landmarks, dist))
    }

    /// Builds the oracle with the farthest-point chain batched into rounds
    /// of up to `batch` landmarks, fanning each round's single-source
    /// Dijkstra runs out over scoped threads.
    ///
    /// Each round snapshots the current `min_dist` (the distance from every
    /// node to its nearest chosen landmark), selects the `batch` farthest
    /// nodes in one heap-bounded sweep (ordered by descending distance,
    /// ties to the lowest index), and computes their rows in parallel —
    /// dropping the selection cost from `K` full scans to `K/batch`, and
    /// exposing `batch`-way parallelism inside the otherwise serial chain.
    /// Rows are folded into `min_dist` in ascending landmark order after
    /// the join, so the result is **deterministic per `(graph, k, seed,
    /// batch)`** at every [`Parallelism`] setting, and `batch = 1` is
    /// bit-identical to [`LandmarkOracle::build`].
    ///
    /// Larger batches trade a little selection quality (the nodes of one
    /// round are mutually blind) for build speed; the optimality-gap
    /// harness measures that end to end.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LandmarkOracle::build`].
    pub fn build_parallel(
        graph: &Graph,
        k: usize,
        seed: u64,
        batch: usize,
        parallelism: Parallelism,
    ) -> Result<Self, NetError> {
        let n = graph.node_count();
        if n == 0 {
            return Err(NetError::TooFewNodes { requested: 0, minimum: 1 });
        }
        let k = k.clamp(1, n);
        let batch = batch.max(1);
        let first = ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n;

        let mut dist = Matrix::zeros(k, n);
        let mut landmarks: Vec<NodeId> = Vec::with_capacity(k);
        let mut min_dist = vec![f64::INFINITY; n];
        let mut round_sources = vec![NodeId::new(first)];
        while !round_sources.is_empty() {
            let start = landmarks.len();
            let width = round_sources.len();
            landmarks.extend_from_slice(&round_sources);
            let block = &mut dist.as_mut_slice()[start * n..(start + width) * n];
            let threads = parallelism.threads_for(width);
            if threads <= 1 {
                let mut heap = BinaryHeap::new();
                for (row, &source) in block.chunks_mut(n).zip(&round_sources) {
                    dijkstra_into(graph, source, row, None, &mut heap);
                }
            } else {
                let rows_per_chunk = width.div_ceil(threads);
                std::thread::scope(|scope| {
                    for (index, chunk) in block.chunks_mut(rows_per_chunk * n).enumerate() {
                        let sources = &round_sources[index * rows_per_chunk..];
                        scope.spawn(move || {
                            let mut heap = BinaryHeap::new();
                            for (row, &source) in chunk.chunks_mut(n).zip(sources) {
                                dijkstra_into(graph, source, row, None, &mut heap);
                            }
                        });
                    }
                });
            }
            // Disconnection checks and the min_dist fold run in ascending
            // landmark order after the join — bit-identical at every
            // thread count.
            for (round, &source) in round_sources.iter().enumerate() {
                let row = dist.row(start + round);
                if let Some(bad) = row.iter().position(|d| d.is_infinite()) {
                    return Err(NetError::Disconnected { from: source.index(), to: bad });
                }
                for (m, &d) in min_dist.iter_mut().zip(row.iter()) {
                    if d < *m {
                        *m = d;
                    }
                }
            }
            round_sources = select_farthest(&min_dist, batch.min(k - landmarks.len()));
        }
        if landmarks.len() < k {
            dist = resize_rows(&dist, landmarks.len(), n);
        }
        Ok(Self::from_table(n, landmarks, dist))
    }

    /// Builds the oracle for an explicit landmark set, fanning the
    /// independent single-source Dijkstra runs out over scoped threads
    /// exactly like the dense all-pairs path — bit-identical to the
    /// sequential sweep for every [`Parallelism`] setting.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] for an empty or duplicated
    /// landmark list, [`NetError::NodeOutOfRange`] for a landmark outside
    /// the graph, and [`NetError::Disconnected`] if any node is
    /// unreachable from a landmark (reported in landmark order).
    pub fn with_landmarks(
        graph: &Graph,
        landmarks: &[NodeId],
        parallelism: Parallelism,
    ) -> Result<Self, NetError> {
        let n = graph.node_count();
        if landmarks.is_empty() {
            return Err(NetError::InvalidWorkload("no landmarks".into()));
        }
        for &l in landmarks {
            graph.check_node(l)?;
        }
        let mut seen = vec![false; n];
        for &l in landmarks {
            if std::mem::replace(&mut seen[l.index()], true) {
                return Err(NetError::InvalidWorkload(format!(
                    "duplicate landmark {}",
                    l.index()
                )));
            }
        }
        let k = landmarks.len();
        let mut dist = Matrix::zeros(k, n);
        let threads = parallelism.threads_for(k);
        if threads <= 1 {
            let mut heap = BinaryHeap::new();
            for (round, &l) in landmarks.iter().enumerate() {
                dijkstra_into(graph, l, dist.row_mut(round), None, &mut heap);
            }
        } else {
            let rows_per_chunk = k.div_ceil(threads);
            std::thread::scope(|scope| {
                for (index, chunk) in
                    dist.as_mut_slice().chunks_mut(rows_per_chunk * n).enumerate()
                {
                    let sources = &landmarks[index * rows_per_chunk..];
                    scope.spawn(move || {
                        let mut heap = BinaryHeap::new();
                        for (row, &source) in chunk.chunks_mut(n).zip(sources) {
                            dijkstra_into(graph, source, row, None, &mut heap);
                        }
                    });
                }
            });
        }
        // Disconnection is reported in landmark order, matching the
        // sequential sweep.
        for (round, &l) in landmarks.iter().enumerate() {
            if let Some(bad) = dist.row(round).iter().position(|d| d.is_infinite()) {
                return Err(NetError::Disconnected { from: l.index(), to: bad });
            }
        }
        Ok(Self::from_table(n, landmarks.to_vec(), dist))
    }

    /// Finishes construction from a validated distance table: computes the
    /// home assignment and sizes the row LRU.
    fn from_table(n: usize, landmarks: Vec<NodeId>, dist: Matrix) -> Self {
        let k = landmarks.len();
        let mut home = vec![0u32; n];
        let mut home_dist = vec![f64::INFINITY; n];
        for b in 0..k {
            for (v, &d) in dist.row(b).iter().enumerate() {
                // Strict improvement keeps the lowest landmark index on ties.
                if d < home_dist[v] {
                    home_dist[v] = d;
                    home[v] = b as u32;
                }
            }
        }
        let capacity_rows = (DEFAULT_ROW_CACHE_BYTES / (n * std::mem::size_of::<f64>()).max(1)).max(1);
        LandmarkOracle {
            n,
            landmarks,
            dist,
            home,
            home_dist,
            row_lru: Mutex::new(RowLru::new(capacity_rows)),
            rows_materialized: AtomicU64::new(0),
            row_cache_hits: AtomicU64::new(0),
            published_rows: AtomicU64::new(0),
            published_hits: AtomicU64::new(0),
        }
    }

    /// The chosen landmarks, in selection order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks `K`.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Exact distance `d(L_k, v)` from landmark `k` to node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `v` is out of range.
    pub fn landmark_distance(&self, k: usize, v: NodeId) -> f64 {
        self.dist.get(k, v.index())
    }

    /// Exact landmark-to-landmark distance `d(L_b, L_a)`.
    ///
    /// # Panics
    ///
    /// Panics if either landmark index is out of range.
    pub fn landmark_to_landmark(&self, b: usize, a: usize) -> f64 {
        self.dist.get(b, self.landmarks[a].index())
    }

    /// Index (into [`LandmarkOracle::landmarks`]) of `v`'s nearest
    /// landmark — its cluster.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn home(&self, v: NodeId) -> usize {
        self.home[v.index()] as usize
    }

    /// Distance from `v` to its home landmark.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn home_distance(&self, v: NodeId) -> f64 {
        self.home_dist[v.index()]
    }

    /// The nodes of each cluster, grouped by home landmark and ascending
    /// within each cluster.
    pub fn cluster_members(&self) -> Vec<Vec<NodeId>> {
        let mut clusters = vec![Vec::new(); self.landmarks.len()];
        for v in 0..self.n {
            clusters[self.home[v] as usize].push(NodeId::new(v));
        }
        clusters
    }

    /// ALT lower bound `max_k |d(L_k,u) − d(L_k,v)| ≤ d(u,v)`.
    ///
    /// Admissible for symmetric metrics (undirected graphs); on directed
    /// graphs it may exceed the true asymmetric distance.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> f64 {
        assert!(u.index() < self.n && v.index() < self.n, "node out of range");
        if u == v {
            return 0.0;
        }
        let mut best = 0.0f64;
        for k in 0..self.landmarks.len() {
            let row = self.dist.row(k);
            let gap = (row[u.index()] - row[v.index()]).abs();
            if gap > best {
                best = gap;
            }
        }
        best
    }

    /// ALT upper bound `d(u,v) ≤ min_k d(L_k,u) + d(L_k,v)` — the cost of
    /// the cheapest route through a landmark, hence always realizable.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn upper_bound(&self, u: NodeId, v: NodeId) -> f64 {
        assert!(u.index() < self.n && v.index() < self.n, "node out of range");
        if u == v {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for k in 0..self.landmarks.len() {
            let row = self.dist.row(k);
            let through = row[u.index()] + row[v.index()];
            if through < best {
                best = through;
            }
        }
        best
    }

    /// Resizes the row LRU to `bytes`, clearing any cached rows.
    pub fn set_row_cache_bytes(&self, bytes: usize) {
        let capacity_rows = (bytes / (self.n * std::mem::size_of::<f64>()).max(1)).max(1);
        let mut lru = self.row_lru.lock().expect("row LRU poisoned");
        *lru = RowLru::new(capacity_rows);
    }

    /// Publishes the oracle's row-cache counters into `recorder` as the
    /// `net.landmark_rows_materialized` / `net.landmark_row_cache_hits`
    /// counters. The lifetime counters stay **monotonic** — a publish
    /// emits only the delta since the previous publish, so repeated
    /// publishes never double-count and `fap report --diff` sees plain
    /// monotonic counters on both sides. With tracing enabled, a publish
    /// that saw newly materialized rows also drops a zero-width
    /// `net.landmark_rows` marker span under the current trace, tying row
    /// materialization to the request that triggered it.
    pub fn publish_metrics(&self, recorder: &mut dyn Recorder) {
        let rows_total = self.rows_materialized.load(Ordering::Relaxed);
        let rows = rows_total - self.published_rows.swap(rows_total, Ordering::Relaxed);
        let hits_total = self.row_cache_hits.load(Ordering::Relaxed);
        let hits = hits_total - self.published_hits.swap(hits_total, Ordering::Relaxed);
        if rows > 0 {
            recorder.incr("net.landmark_rows_materialized", rows);
            fap_obs::emit_marker_span(recorder, "net.landmark_rows");
        }
        if hits > 0 {
            recorder.incr("net.landmark_row_cache_hits", hits);
        }
    }

    /// Lifetime count of rows materialized (LRU misses) so far.
    pub fn rows_materialized(&self) -> u64 {
        self.rows_materialized.load(Ordering::Relaxed)
    }

    /// Lifetime count of row-LRU hits so far.
    pub fn row_cache_hits(&self) -> u64 {
        self.row_cache_hits.load(Ordering::Relaxed)
    }

    /// Materializes the upper-bound row for `from`: bit-identical to `N`
    /// pointwise [`LandmarkOracle::upper_bound`] calls (same ascending-`k`
    /// minimization), with the diagonal pinned to zero.
    fn materialize_row(&self, from: NodeId) -> Vec<f64> {
        let mut row = vec![f64::INFINITY; self.n];
        for k in 0..self.landmarks.len() {
            let dk = self.dist.row(k);
            let a = dk[from.index()];
            for (slot, &d) in row.iter_mut().zip(dk.iter()) {
                let through = a + d;
                if through < *slot {
                    *slot = through;
                }
            }
        }
        row[from.index()] = 0.0;
        row
    }

    /// Repairs the row LRU after an incremental oracle update: rows whose
    /// source node is dirty (some landmark distance changed) are evicted,
    /// clean rows are re-minimized at the dirty columns only, with the
    /// same ascending-`k` formula as [`LandmarkOracle::materialize_row`].
    /// Returns `(evicted, patched)` row counts.
    pub(crate) fn repair_row_cache(&self, dirty: &[bool]) -> (usize, usize) {
        let mut lru = self.row_lru.lock().expect("row LRU poisoned");
        let victims: Vec<usize> =
            lru.rows.keys().copied().filter(|&s| dirty[s]).collect();
        for s in &victims {
            lru.rows.remove(s);
        }
        let k = self.landmarks.len();
        let mut patched = 0;
        for (&s, (_, row)) in lru.rows.iter_mut() {
            for (v, slot) in row.iter_mut().enumerate() {
                if !dirty[v] || v == s {
                    continue;
                }
                let mut best = f64::INFINITY;
                for b in 0..k {
                    let through = self.dist.get(b, s) + self.dist.get(b, v);
                    if through < best {
                        best = through;
                    }
                }
                *slot = best;
            }
            patched += 1;
        }
        (victims.len(), patched)
    }

    /// Drops every cached row (used when the node count itself changes, so
    /// resident rows have the wrong length).
    pub(crate) fn clear_row_cache(&self) {
        let mut lru = self.row_lru.lock().expect("row LRU poisoned");
        lru.rows.clear();
    }

    /// Recomputes the home assignment at the dirty columns only —
    /// bit-identical to the full [`LandmarkOracle::from_table`] pass, which
    /// keeps the lowest landmark index on ties.
    pub(crate) fn recompute_homes_at(&mut self, dirty: &[bool]) {
        let k = self.landmarks.len();
        for (v, is_dirty) in dirty.iter().enumerate().take(self.n) {
            if !is_dirty {
                continue;
            }
            let mut best = f64::INFINITY;
            let mut best_k = 0u32;
            for b in 0..k {
                let d = self.dist.get(b, v);
                if d < best {
                    best = d;
                    best_k = b as u32;
                }
            }
            self.home[v] = best_k;
            self.home_dist[v] = best;
        }
    }

    /// Grows or shrinks every structure to a new node count (node join /
    /// leave): the distance table gains or loses its last column, the home
    /// assignment follows, and the row LRU is cleared (resident rows have
    /// the wrong length). New columns are initialized to `INFINITY` and
    /// must be repaired by the caller.
    pub(crate) fn resize_nodes(&mut self, new_n: usize) {
        let k = self.landmarks.len();
        let mut table = Matrix::filled(k, new_n, f64::INFINITY);
        let copy = self.n.min(new_n);
        for b in 0..k {
            table.row_mut(b)[..copy].copy_from_slice(&self.dist.row(b)[..copy]);
        }
        self.dist = table;
        self.home.resize(new_n, 0);
        self.home_dist.resize(new_n, f64::INFINITY);
        self.n = new_n;
        self.clear_row_cache();
    }
}

/// Truncates a `rows × n` matrix to its first `keep` rows (farthest-point
/// selection can stop early when every node is already a landmark).
fn resize_rows(dist: &Matrix, keep: usize, n: usize) -> Matrix {
    Matrix::from_vec(keep, n, dist.as_slice()[..keep * n].to_vec())
}

/// The `want` nodes farthest from every chosen landmark (positive
/// `min_dist` only), ordered by descending distance with ties to the
/// lowest index — one heap-bounded `O(N log want)` sweep instead of `want`
/// full scans.
fn select_farthest(min_dist: &[f64], want: usize) -> Vec<NodeId> {
    struct Worst {
        d: f64,
        i: usize,
    }
    impl PartialEq for Worst {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Worst {}
    impl Ord for Worst {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // The heap's maximum is the *worst* kept candidate: nearer to
            // the landmarks, or equally near with a higher index.
            other.d.total_cmp(&self.d).then(self.i.cmp(&other.i))
        }
    }
    impl PartialOrd for Worst {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    if want == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(want + 1);
    for (i, &d) in min_dist.iter().enumerate() {
        if d <= 0.0 {
            continue; // already coincides with a landmark
        }
        if heap.len() < want {
            heap.push(Worst { d, i });
        } else if let Some(worst) = heap.peek() {
            if d > worst.d {
                heap.pop();
                heap.push(Worst { d, i });
            }
        }
    }
    let mut picked = heap.into_vec();
    picked.sort_by(|a, b| b.d.total_cmp(&a.d).then(a.i.cmp(&b.i)));
    picked.into_iter().map(|w| NodeId::new(w.i)).collect()
}

impl CostProvider for LandmarkOracle {
    fn node_count(&self) -> usize {
        self.n
    }

    fn cost(&self, from: NodeId, to: NodeId) -> f64 {
        self.upper_bound(from, to)
    }

    fn row_into(&self, from: NodeId, out: &mut [f64]) {
        assert!(from.index() < self.n, "node out of range");
        assert_eq!(out.len(), self.n, "row buffer length mismatch");
        let mut lru = self.row_lru.lock().expect("row LRU poisoned");
        if lru.copy_hit(from.index(), out) {
            self.row_cache_hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Materialize under the lock: concurrent callers of the same row
        // then pay one computation, not two.
        let row = self.materialize_row(from);
        out.copy_from_slice(&row);
        lru.insert(from.index(), row);
        self.rows_materialized.fetch_add(1, Ordering::Relaxed);
    }

    fn substrate_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let table = self.landmarks.len() * self.n * f;
        let assignment = self.n * (std::mem::size_of::<u32>() + f);
        let lru = self.row_lru.lock().expect("row LRU poisoned").resident_bytes();
        table + assignment + lru
    }

    /// Hub-decomposition estimator, `O(N + K²)` instead of the default's
    /// `O(N²·K)`: approximate `c(j,i) ≈ d(j,L_b) + d(L_b,L_a) + d(L_a,i)`
    /// for `b = home(j), a = home(i)` and push the sums inside:
    ///
    /// ```text
    /// C_i ≈ A_a + d(L_a, i),   a = home(i)
    /// A_a = (1/λ) Σ_b ( S_b + Λ_b · d(L_b, L_a) )
    /// S_b = Σ_{j ∈ cluster b} λ_j · d(j, L_b),   Λ_b = Σ_{j ∈ b} λ_j
    /// ```
    ///
    /// Routing through home landmarks over-estimates each cost, and the
    /// self-term `j = i` contributes `2·λ_i·d(i,L_a)/λ` instead of zero —
    /// both additive distortions that the optimality-gap harness measures
    /// end to end.
    fn systemwide_access_costs(&self, pattern: &AccessPattern) -> Vec<f64> {
        assert_eq!(
            pattern.node_count(),
            self.n,
            "workload covers {} nodes but cost provider covers {}",
            pattern.node_count(),
            self.n,
        );
        let lambda = pattern.total_rate();
        let k = self.landmarks.len();
        let mut cluster_moment = vec![0.0f64; k]; // S_b
        let mut cluster_rate = vec![0.0f64; k]; // Λ_b
        for j in 0..self.n {
            let b = self.home[j] as usize;
            let rate = pattern.rate(NodeId::new(j));
            cluster_moment[b] += rate * self.home_dist[j];
            cluster_rate[b] += rate;
        }
        let mut hub = vec![0.0f64; k]; // A_a
        for (a, slot) in hub.iter_mut().enumerate() {
            let la = self.landmarks[a].index();
            let mut acc = 0.0;
            for b in 0..k {
                acc += cluster_moment[b] + cluster_rate[b] * self.dist.get(b, la);
            }
            *slot = acc / lambda;
        }
        (0..self.n).map(|i| hub[self.home[i] as usize] + self.home_dist[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::NoopRecorder;
    use crate::shortest_path::dijkstra;
    use crate::topology;

    #[test]
    fn build_is_deterministic_per_seed() {
        let g = topology::random_connected(40, 0.2, 1.0..5.0, 3).unwrap();
        let a = LandmarkOracle::build(&g, 6, 17).unwrap();
        let b = LandmarkOracle::build(&g, 6, 17).unwrap();
        assert_eq!(a.landmarks(), b.landmarks());
        assert_eq!(a.dist.as_slice(), b.dist.as_slice());
        let c = LandmarkOracle::build(&g, 6, 18).unwrap();
        // A different seed starts the chain elsewhere (not guaranteed to
        // differ in general, but it does on this graph).
        assert_ne!(a.landmarks()[0], c.landmarks()[0]);
    }

    #[test]
    fn bounds_bracket_true_distance_on_a_ring() {
        let g = topology::ring(12, 1.0).unwrap();
        let exact = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let oracle = LandmarkOracle::build(&g, 4, 7).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let d = exact.cost(u, v);
                assert!(oracle.lower_bound(u, v) <= d + 1e-12);
                assert!(oracle.upper_bound(u, v) + 1e-12 >= d);
            }
        }
    }

    #[test]
    fn landmark_rows_are_exact() {
        let g = topology::random_connected(30, 0.25, 1.0..4.0, 9).unwrap();
        let oracle = LandmarkOracle::build(&g, 5, 11).unwrap();
        for (k, &l) in oracle.landmarks().iter().enumerate() {
            let truth = dijkstra(&g, l).unwrap();
            for v in g.nodes() {
                assert_eq!(oracle.landmark_distance(k, v).to_bits(), truth[v.index()].to_bits());
                // Upper bound through landmark k itself is exact.
                assert!(oracle.upper_bound(l, v) <= truth[v.index()] + 1e-12);
            }
        }
    }

    #[test]
    fn row_into_matches_pointwise_and_caches() {
        let g = topology::random_connected(25, 0.3, 1.0..4.0, 5).unwrap();
        let oracle = LandmarkOracle::build(&g, 4, 2).unwrap();
        let mut row = vec![0.0; 25];
        oracle.row_into(NodeId::new(3), &mut row);
        for v in g.nodes() {
            assert_eq!(row[v.index()].to_bits(), oracle.cost(NodeId::new(3), v).to_bits());
        }
        assert_eq!(oracle.rows_materialized(), 1);
        assert_eq!(oracle.row_cache_hits(), 0);
        oracle.row_into(NodeId::new(3), &mut row);
        assert_eq!(oracle.rows_materialized(), 1);
        assert_eq!(oracle.row_cache_hits(), 1);
    }

    #[test]
    fn row_lru_evicts_least_recently_used() {
        let g = topology::ring(16, 1.0).unwrap();
        let oracle = LandmarkOracle::build(&g, 3, 1).unwrap();
        oracle.set_row_cache_bytes(2 * 16 * 8); // room for exactly 2 rows
        let mut row = vec![0.0; 16];
        oracle.row_into(NodeId::new(0), &mut row); // miss
        oracle.row_into(NodeId::new(1), &mut row); // miss
        oracle.row_into(NodeId::new(0), &mut row); // hit, refreshes 0
        oracle.row_into(NodeId::new(2), &mut row); // miss, evicts 1
        oracle.row_into(NodeId::new(1), &mut row); // miss again
        assert_eq!(oracle.rows_materialized(), 4);
        assert_eq!(oracle.row_cache_hits(), 1);
    }

    #[test]
    fn publish_metrics_is_monotonic_and_emits_only_deltas() {
        let g = topology::ring(8, 1.0).unwrap();
        let oracle = LandmarkOracle::build(&g, 2, 1).unwrap();
        let mut row = vec![0.0; 8];
        oracle.row_into(NodeId::new(0), &mut row);
        oracle.row_into(NodeId::new(0), &mut row);
        let mut registry = fap_obs::MetricsRegistry::new();
        oracle.publish_metrics(&mut registry);
        assert_eq!(registry.counter("net.landmark_rows_materialized"), 1);
        assert_eq!(registry.counter("net.landmark_row_cache_hits"), 1);
        // A quiet re-publish adds nothing; the lifetime counters survive.
        oracle.publish_metrics(&mut registry);
        assert_eq!(registry.counter("net.landmark_rows_materialized"), 1);
        assert_eq!(oracle.rows_materialized(), 1, "lifetime counter is not drained");
        assert_eq!(oracle.row_cache_hits(), 1);
        // Further activity publishes only the delta since the last publish.
        oracle.row_into(NodeId::new(0), &mut row);
        oracle.row_into(NodeId::new(1), &mut row);
        oracle.publish_metrics(&mut registry);
        assert_eq!(registry.counter("net.landmark_rows_materialized"), 2);
        assert_eq!(registry.counter("net.landmark_row_cache_hits"), 2);
        assert_eq!(oracle.rows_materialized(), 2);
    }

    #[test]
    fn home_assignment_picks_nearest_landmark() {
        let g = topology::ring(10, 1.0).unwrap();
        let oracle = LandmarkOracle::build(&g, 3, 4).unwrap();
        for v in g.nodes() {
            let h = oracle.home(v);
            let hd = oracle.home_distance(v);
            for k in 0..oracle.landmark_count() {
                assert!(hd <= oracle.landmark_distance(k, v) + 1e-12);
            }
            assert_eq!(hd.to_bits(), oracle.landmark_distance(h, v).to_bits());
        }
        let clusters = oracle.cluster_members();
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn batched_build_with_batch_one_is_bit_identical_to_the_chain() {
        for (n, seed) in [(40, 3), (33, 11), (12, 0)] {
            let g = topology::random_connected(n, 0.2, 1.0..5.0, seed).unwrap();
            let a = LandmarkOracle::build(&g, 7, seed).unwrap();
            for threads in [1, 3] {
                let b =
                    LandmarkOracle::build_parallel(&g, 7, seed, 1, Parallelism::Fixed(threads))
                        .unwrap();
                assert_eq!(a.landmarks(), b.landmarks(), "threads={threads}");
                for (x, y) in a.dist.as_slice().iter().zip(b.dist.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
                }
                assert_eq!(a.home, b.home);
            }
        }
    }

    #[test]
    fn batched_build_is_deterministic_at_every_thread_count() {
        let g = topology::random_connected(50, 0.15, 1.0..5.0, 9).unwrap();
        let reference =
            LandmarkOracle::build_parallel(&g, 12, 4, 4, Parallelism::Sequential).unwrap();
        // Batched rows are still exact single-source distances.
        for (k, &l) in reference.landmarks().iter().enumerate() {
            let truth = dijkstra(&g, l).unwrap();
            for v in g.nodes() {
                assert_eq!(
                    reference.landmark_distance(k, v).to_bits(),
                    truth[v.index()].to_bits()
                );
            }
        }
        for threads in [2, 3, 8] {
            let par =
                LandmarkOracle::build_parallel(&g, 12, 4, 4, Parallelism::Fixed(threads))
                    .unwrap();
            assert_eq!(reference.landmarks(), par.landmarks(), "threads={threads}");
            for (a, b) in reference.dist.as_slice().iter().zip(par.dist.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn batched_build_stops_early_when_every_node_is_a_landmark() {
        let g = topology::ring(6, 1.0).unwrap();
        let oracle = LandmarkOracle::build_parallel(&g, 64, 2, 4, Parallelism::Sequential).unwrap();
        assert_eq!(oracle.landmark_count(), 6);
        let mut sorted: Vec<usize> = oracle.landmarks().iter().map(|l| l.index()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "landmarks are distinct");
    }

    #[test]
    fn batched_build_rejects_disconnected_graphs() {
        let mut g = Graph::new(4);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_link(NodeId::new(2), NodeId::new(3), 1.0).unwrap();
        let err =
            LandmarkOracle::build_parallel(&g, 2, 0, 2, Parallelism::Sequential).unwrap_err();
        assert!(matches!(err, NetError::Disconnected { .. }));
    }

    #[test]
    fn with_landmarks_parallel_is_bit_identical_to_sequential() {
        let g = topology::random_connected(30, 0.25, 1.0..4.0, 21).unwrap();
        let landmarks: Vec<NodeId> = [0, 7, 13, 22, 29].map(NodeId::new).into();
        let seq = LandmarkOracle::with_landmarks(&g, &landmarks, Parallelism::Sequential).unwrap();
        for threads in [2, 3, 8] {
            let par =
                LandmarkOracle::with_landmarks(&g, &landmarks, Parallelism::Fixed(threads))
                    .unwrap();
            for (a, b) in seq.dist.as_slice().iter().zip(par.dist.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn with_landmarks_validates_input() {
        let g = topology::ring(6, 1.0).unwrap();
        let err = LandmarkOracle::with_landmarks(&g, &[], Parallelism::Sequential).unwrap_err();
        assert!(matches!(err, NetError::InvalidWorkload(_)));
        let dup = [NodeId::new(1), NodeId::new(1)];
        let err = LandmarkOracle::with_landmarks(&g, &dup, Parallelism::Sequential).unwrap_err();
        assert!(matches!(err, NetError::InvalidWorkload(_)));
        let oob = [NodeId::new(9)];
        let err = LandmarkOracle::with_landmarks(&g, &oob, Parallelism::Sequential).unwrap_err();
        assert!(matches!(err, NetError::NodeOutOfRange { .. }));
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let mut g = Graph::new(4);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_link(NodeId::new(2), NodeId::new(3), 1.0).unwrap();
        let err = LandmarkOracle::build(&g, 2, 0).unwrap_err();
        assert!(matches!(err, NetError::Disconnected { .. }));
    }

    #[test]
    fn k_larger_than_n_is_exact() {
        let g = topology::random_connected(9, 0.4, 1.0..3.0, 2).unwrap();
        let exact = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        let oracle = LandmarkOracle::build(&g, 64, 5).unwrap();
        // With every node a landmark the upper bound is the true distance.
        assert_eq!(oracle.landmark_count(), 9);
        for u in g.nodes() {
            for v in g.nodes() {
                assert!((oracle.cost(u, v) - exact.cost(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hub_estimator_is_finite_and_respects_scale() {
        let g = topology::random_connected(24, 0.3, 1.0..4.0, 8).unwrap();
        let oracle = LandmarkOracle::build(&g, 4, 3).unwrap();
        let w = AccessPattern::random(24, 0.5..2.0, 6).unwrap();
        let est = CostProvider::systemwide_access_costs(&oracle, &w);
        assert_eq!(est.len(), 24);
        assert!(est.iter().all(|c| c.is_finite() && *c >= 0.0));
        // Doubling every rate leaves the weighted average unchanged.
        let w2 = w.scaled(2.0).unwrap();
        let est2 = CostProvider::systemwide_access_costs(&oracle, &w2);
        for (a, b) in est.iter().zip(&est2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn substrate_bytes_tracks_table_and_lru() {
        let g = topology::ring(32, 1.0).unwrap();
        let oracle = LandmarkOracle::build(&g, 4, 1).unwrap();
        let base = oracle.substrate_bytes();
        assert!(base >= 4 * 32 * 8);
        let mut row = vec![0.0; 32];
        oracle.row_into(NodeId::new(5), &mut row);
        assert_eq!(oracle.substrate_bytes(), base + 32 * 8);
    }
}
