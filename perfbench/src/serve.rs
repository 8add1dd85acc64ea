//! `serve-steady` and `serve-drift`: one closed-loop client driving a
//! `fap_cli::spec_daemon` through `Daemon::handle_line`.
//!
//! * `serve-steady` — shards 2, warm `batch`, dense backend. Every batch
//!   holds 8 requests (single-file, 3-file multi-file, section-7 ring)
//!   over a fixed pool of 6 small topologies (16–136 nodes), each with
//!   fresh rates. After the warm-up pass every substrate is a cache hit,
//!   so the time goes to many small solves, work stealing over
//!   independent warm chains, response rendering and the daemon's
//!   always-on tracing: the per-request overhead path. It bypasses the
//!   landmark oracle, oracle repair and the `hier` solver.
//! * `serve-drift` — warm `session`, `oracle_update` on, landmark backend
//!   (K = 16). One 512-node torus sent as an explicit link list (~90 KB of
//!   JSON per batch), 4 single-file requests per batch whose rates drift
//!   slowly, and every 4th batch re-prices one link: cache writes (an
//!   incremental oracle repair, session-seed invalidation) beside reads.
//!   Each batch is one warm chain, so it has no intra-batch parallelism,
//!   and the flat 512-node solves make the `econ` projection dominate.
//!   It bypasses the ring solver, multi-file solves and `hier`.
//!
//! Arrival ticks are [`SPACING`] apart, far beyond any batch's virtual
//! service time, so no batch ever waits on the daemon's virtual clock.
//!
//! The daemon is a black box to the benchmark. Its output is checked
//! against a one-shot replay: a second generator with the same seed
//! re-creates every batch, which is parsed, resolved through a separate
//! `SubstrateCache`, solved by a separate `BatchServer` (with its own
//! `SessionSeeds` under warm `session`) and rendered — the contract
//! `fap-served` documents. The traced run times each of those replay
//! steps, which is where the per-layer times come from.

use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use fap_batch::Parallelism;
use fap_cache::{CostBackend, Fnv64, SubstrateCache};
use fap_cli::{spec_daemon, Scenario, ServeSpec, Topology};
use fap_core::reference;
use fap_net::LandmarkOracle;
use fap_obs::{MetricsRegistry, NoopRecorder};
use fap_serve::{BatchServer, ServeOutput, ServeRequest, ServeResponse, SessionSeeds};
use fap_served::{BatchParser, Daemon, DaemonConfig, WarmMode};

use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{mean, median, ms_since, peak_rss_mib, quantile};

/// The two serving mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Steady,
    Drift,
}

/// Virtual ticks between arrivals.
const SPACING: u64 = 1 << 40;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Traced batches per traced run at least.
const MIN_TRACED: usize = 4;
/// Seed of the fixed inputs: the networks (the steady pool, the drift
/// torus), the steady request shapes, the drift's base rates and its
/// re-priced links. `--seed` draws the steady rates and the drift's rate
/// steps. Letting it also pick the networks or the drift's base rates
/// moved a run's work by ±20 % from seed to seed, which would bury any
/// change under seed noise.
const NETWORK_SEED: u64 = 0x0005_eed0_ffa9;
/// Landmark count and seed of the drift backend.
const DRIFT_LANDMARKS: usize = 16;
const DRIFT_LANDMARK_SEED: u64 = 7;
/// Service capacity per node as a multiple of the even-split load.
const CAPACITY: f64 = 30.0;
/// Fixed single-file step sizes, below the largest that kept every probed
/// instance convergent (steady: 0.03 on the 16–136-node pool; drift: 0.01
/// on the 512-node torus, whose access costs spread about 8 units).
const STEADY_ALPHA: f64 = 0.01;
/// Multi-file solves flatten out under the same capacity and need a
/// larger step; their iteration cap bounds the rare slow instance.
const MULTI_ALPHA: f64 = 0.1;
const MULTI_MAX_ITERATIONS: usize = 5_000;
const DRIFT_ALPHA: f64 = 0.006;
/// File copies of every section-7 ring request.
const RING_COPIES: f64 = 2.0;
/// Drift torus shape (512 nodes).
const DRIFT_ROWS: usize = 16;
const DRIFT_COLS: usize = 32;

impl Mix {
    fn config(self) -> DaemonConfig {
        let drift = self == Mix::Drift;
        DaemonConfig {
            shards: Parallelism::Fixed(2),
            servers: 1,
            warm: if drift {
                WarmMode::Session
            } else {
                WarmMode::Batch
            },
            admission_bound: None,
            oracle_update: drift,
            ..DaemonConfig::default()
        }
    }

    /// Timed batches whose counters, quality and bytes are scored: a fixed
    /// prefix, so those figures repeat exactly for a seed. The timed phase
    /// always runs at least this many batches.
    fn scored_batches(self) -> usize {
        match self {
            Mix::Steady => 40,
            Mix::Drift => 6,
        }
    }
}

/// SplitMix64: the benchmark's own seeded stream, so the inputs depend
/// on nothing but `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn rates(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.range(0.05, 0.2)).collect()
    }
}

/// The closed-loop client's batch generator.
struct Client {
    mix: Mix,
    /// Rates and rate steps: drawn from `--seed`.
    rng: Rng,
    /// Request kinds and topologies (steady) and re-priced links (drift):
    /// a fixed stream, so every seed runs the same sequence of shapes.
    fixed: Rng,
    /// serve-steady: the topology pool.
    pool: Vec<Topology>,
    /// serve-drift: the torus links, the base rates, each node's current
    /// relative deviation from its base rate, and the capacity.
    links: Vec<(usize, usize, f64)>,
    rates: Vec<f64>,
    drift: Vec<f64>,
    mu: f64,
    batches: usize,
}

impl Client {
    fn new(mix: Mix, seed: u64) -> Self {
        let mut net = Rng(NETWORK_SEED);
        let mut client = Client {
            mix,
            rng: Rng(seed),
            fixed: Rng(NETWORK_SEED ^ 1),
            pool: Vec::new(),
            links: Vec::new(),
            rates: Vec::new(),
            drift: Vec::new(),
            mu: 0.0,
            batches: 0,
        };
        match mix {
            Mix::Steady => {
                client.pool = (0..6)
                    .map(|t| {
                        let n = 16 + 24 * t;
                        let link_cost = net.range(0.5, 2.0);
                        match t % 3 {
                            0 => Topology::Ring { n, link_cost },
                            1 => Topology::Star { n, link_cost },
                            _ => {
                                // A ring backbone plus n/4 random chords.
                                let mut links: Vec<(usize, usize, f64)> = (0..n)
                                    .map(|i| (i, (i + 1) % n, net.range(0.5, 2.0)))
                                    .collect();
                                for _ in 0..n / 4 {
                                    let a = net.below(n);
                                    let b = (a + 2 + net.below(n - 3)) % n;
                                    links.push((a, b, net.range(0.5, 2.0)));
                                }
                                Topology::Links { n, links }
                            }
                        }
                    })
                    .collect();
            }
            Mix::Drift => {
                for r in 0..DRIFT_ROWS {
                    for c in 0..DRIFT_COLS {
                        let v = r * DRIFT_COLS + c;
                        client.links.push((
                            v,
                            r * DRIFT_COLS + (c + 1) % DRIFT_COLS,
                            net.range(0.5, 2.0),
                        ));
                        client.links.push((
                            v,
                            ((r + 1) % DRIFT_ROWS) * DRIFT_COLS + c,
                            net.range(0.5, 2.0),
                        ));
                    }
                }
                client.rates = net.rates(DRIFT_ROWS * DRIFT_COLS);
                client.drift = vec![0.0; client.rates.len()];
                client.mu = CAPACITY * client.rates.iter().sum::<f64>() / client.rates.len() as f64;
            }
        }
        client
    }

    /// The warm-up pass: every topology once.
    fn warmup(&mut self) -> Vec<Vec<ServeSpec>> {
        match self.mix {
            Mix::Steady => {
                // Fixed rates: the set-up pass is the same work for every
                // seed.
                let specs = self
                    .pool
                    .iter()
                    .map(|topology| Self::single_file(topology.clone(), &mut self.fixed))
                    .collect();
                vec![specs]
            }
            Mix::Drift => vec![self.next_batch()],
        }
    }

    fn next_batch(&mut self) -> Vec<ServeSpec> {
        self.batches += 1;
        match self.mix {
            Mix::Steady => (0..8)
                .map(|_| {
                    let t = self.fixed.below(self.pool.len());
                    match self.fixed.below(8) {
                        0..=4 => Self::single_file(self.pool[t].clone(), &mut self.rng),
                        // The fixed-step multi-file solver overloads a star
                        // hub and slows sharply with size, so multi-file
                        // requests use the pool's 16-node ring.
                        5 => self.multi_file(0),
                        _ => self.ring(),
                    }
                })
                .collect(),
            Mix::Drift => {
                if self.batches.is_multiple_of(4) {
                    let i = self.fixed.below(self.links.len());
                    let factor = self.fixed.range(0.8, 1.25);
                    self.links[i].2 *= factor;
                }
                let topology = Topology::Links {
                    n: DRIFT_ROWS * DRIFT_COLS,
                    links: self.links.clone(),
                };
                // Four consecutive steps of one slowly drifting rate vector.
                // Each node's deviation from its base rate is a
                // mean-reverting walk (halved, plus at most ±1 % per step),
                // so the process is stationary: every batch is the same
                // work in distribution and a run's figures average over
                // its batches instead of following one seed's random walk
                // (a plain walk moved the median batch by ±20 % between
                // seeds).
                let mut specs = Vec::with_capacity(4);
                for _ in 0..4 {
                    for d in self.drift.iter_mut() {
                        *d = 0.5 * *d + self.rng.range(-0.01, 0.01);
                    }
                    let rates: Vec<f64> = self
                        .rates
                        .iter()
                        .zip(&self.drift)
                        .map(|(r, d)| r * (1.0 + d))
                        .collect();
                    specs.push(ServeSpec::SingleFile {
                        scenario: scenario(
                            topology.clone(),
                            rates,
                            self.mu,
                            DRIFT_ALPHA,
                            CostBackend::Landmark {
                                landmarks: DRIFT_LANDMARKS,
                                seed: DRIFT_LANDMARK_SEED,
                            },
                        ),
                    });
                }
                specs
            }
        }
    }

    fn single_file(topology: Topology, rng: &mut Rng) -> ServeSpec {
        let rates = rng.rates(topology.node_count());
        let mu = CAPACITY * rates.iter().sum::<f64>() / rates.len() as f64;
        ServeSpec::SingleFile {
            scenario: scenario(topology, rates, mu, STEADY_ALPHA, CostBackend::Dense),
        }
    }

    fn multi_file(&mut self, t: usize) -> ServeSpec {
        let topology = self.pool[t].clone();
        let n = topology.node_count();
        let lambdas: Vec<Vec<f64>> = (0..3).map(|_| self.rng.rates(n)).collect();
        let offered: f64 = lambdas.iter().flatten().sum();
        ServeSpec::MultiFile {
            topology,
            cost_backend: CostBackend::Dense,
            lambdas,
            mus: vec![CAPACITY * offered / n as f64],
            k: 1.0,
            alpha: MULTI_ALPHA,
            epsilon: 1e-6,
            max_iterations: MULTI_MAX_ITERATIONS,
        }
    }

    /// A section-7 virtual ring of 6–12 nodes with explicit link costs.
    /// The ring solver costs far more per iteration than the others, so
    /// pool-sized rings (16–136 nodes) would turn this mix into a ring
    /// benchmark; the halting tolerance lets nearly every ring converge
    /// in about a hundred iterations instead of oscillating to the cap.
    fn ring(&mut self) -> ServeSpec {
        let n = 6 + self.fixed.below(7);
        let lambdas = self.rng.rates(n);
        // Three times the load one copy would carry alone.
        let mu = 3.0 * lambdas.iter().sum::<f64>() / RING_COPIES;
        ServeSpec::Ring {
            link_costs: (0..n).map(|_| self.rng.range(0.5, 2.0)).collect(),
            topology: None,
            cost_backend: CostBackend::Dense,
            lambdas,
            mus: vec![mu; n],
            copies: RING_COPIES,
            k: 1.0,
            alpha: 0.02,
            cost_delta_tolerance: 1e-5,
            max_iterations: 3_000,
            initial: None,
        }
    }
}

fn scenario(
    topology: Topology,
    lambdas: Vec<f64>,
    mu: f64,
    alpha: f64,
    cost_backend: CostBackend,
) -> Scenario {
    Scenario {
        topology,
        lambdas,
        mus: vec![mu],
        k: 1.0,
        alpha,
        epsilon: 1e-6,
        initial: None,
        sim_duration: 100_000.0,
        sim_seed: 0,
        cost_backend,
    }
}

/// The envelope line of batch number `index` in the daemon's life.
fn envelope(index: usize, specs: &[ServeSpec]) -> String {
    let map = Value::Map(vec![
        ("at".into(), Value::UInt(index as u64 * SPACING)),
        ("batch".into(), specs.to_vec().serialize_value()),
    ]);
    serde_json::to_string(&map).expect("spec trees always serialize")
}

fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish64()
}

/// What the benchmark keeps of one daemon output line.
#[derive(Debug, Clone, Copy)]
struct BatchLine {
    ok: u64,
    err: u64,
    wait: u64,
    bytes: usize,
    /// FNV-1a of the `responses` array text.
    responses: u64,
}

/// Splits the complete lines out of the daemon's output buffer, keeping
/// a digest of each batch line; anything but a batch or status line is
/// an error.
fn drain_output(buf: &mut Vec<u8>, lines: &mut Vec<BatchLine>, errors: &mut Vec<String>) {
    let Some(end) = buf.iter().rposition(|&b| b == b'\n') else {
        return;
    };
    let text = String::from_utf8_lossy(&buf[..end]).into_owned();
    buf.drain(..=end);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        const KEY: &str = ",\"responses\":";
        let Some(at) = line.find(KEY) else {
            let kind = serde_json::parse_value(line)
                .ok()
                .and_then(|v| match v.get("kind") {
                    Some(Value::Str(k)) => Some(k.clone()),
                    _ => None,
                });
            if kind.as_deref() != Some("status") {
                errors.push(line.chars().take(200).collect());
            }
            continue;
        };
        let head = serde_json::parse_value(&format!("{}}}", &line[..at]));
        let field = |name: &str| match head.as_ref().ok().and_then(|h| h.get(name)) {
            Some(Value::UInt(v)) => *v,
            Some(Value::Int(v)) => *v as u64,
            _ => u64::MAX,
        };
        let body = &line[at + KEY.len()..line.len() - 1];
        lines.push(BatchLine {
            ok: field("ok"),
            err: field("err"),
            wait: field("wait"),
            bytes: line.len() + 1,
            responses: digest(body),
        });
    }
}

/// The one-shot replay: its own generator, cache, server and seeds.
struct Replay {
    client: Client,
    cache: SubstrateCache,
    server: BatchServer,
    seeds: SessionSeeds,
    session: bool,
    oracle_update: bool,
    /// Batch lines the replay has produced so far.
    produced: usize,
}

/// One replayed batch.
struct Replayed {
    requests: Vec<ServeRequest>,
    output: ServeOutput,
    responses: u64,
}

impl Replay {
    fn new(mix: Mix, seed: u64) -> Self {
        let config = mix.config();
        Replay {
            client: Client::new(mix, seed),
            cache: SubstrateCache::new(),
            server: BatchServer::new(config.shards).with_warm_start(config.warm != WarmMode::Off),
            seeds: SessionSeeds::new(),
            session: config.warm == WarmMode::Session,
            oracle_update: config.oracle_update,
            produced: 0,
        }
    }

    /// Replays the warm-up pass (its batches are not scored).
    fn warmup(&mut self, spans: &mut SpanLog) -> Result<Vec<Replayed>, String> {
        let batches = self.client.warmup();
        batches
            .iter()
            .map(|specs| self.replay(specs, spans, None))
            .collect()
    }

    /// Replays the next batch of the stream.
    fn next(&mut self, spans: &mut SpanLog, parent: Option<usize>) -> Result<Replayed, String> {
        let specs = self.client.next_batch();
        self.replay(&specs, spans, parent)
    }

    fn replay(
        &mut self,
        specs: &[ServeSpec],
        spans: &mut SpanLog,
        parent: Option<usize>,
    ) -> Result<Replayed, String> {
        let index = self.produced;
        self.produced += 1;
        let batch = index as u64;
        let line = envelope(index, specs);
        let specs = spans.time("cli.parse", parent, batch, || {
            let value = serde_json::parse_value(&line).map_err(|e| e.to_string())?;
            let batch = value.get("batch").ok_or("envelope without a batch")?;
            Vec::<ServeSpec>::deserialize_value(batch).map_err(|e| e.to_string())
        })?;
        let (cache, oracle_update) = (&mut self.cache, self.oracle_update);
        let requests = spans.time("cache.resolve", parent, batch, || {
            specs
                .iter()
                .map(|s| s.to_request_cached_with(cache, oracle_update, &mut NoopRecorder))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())
        })?;
        let (server, seeds, session) = (&self.server, &mut self.seeds, self.session);
        let output = spans.time("serve.solve", parent, batch, || {
            if session {
                server.serve_session_observed(&requests, seeds, &mut NoopRecorder)
            } else {
                server.serve_observed(&requests, &mut NoopRecorder)
            }
        });
        let rendered = spans.time("served.render", parent, batch, || {
            let responses: Vec<Value> = output
                .responses
                .iter()
                .map(|r| match r {
                    Ok(response) => response.serialize_value(),
                    Err(e) => Value::Map(vec![("error".into(), Value::Str(e.message().into()))]),
                })
                .collect();
            serde_json::to_string(&Value::Array(responses)).expect("responses always serialize")
        });
        Ok(Replayed {
            requests,
            output,
            responses: digest(&rendered),
        })
    }

    /// The landmark oracle the replay's cache holds for the current drift
    /// topology (`None` for the dense mix).
    fn oracle(&mut self) -> Option<&LandmarkOracle> {
        if self.client.mix != Mix::Drift {
            return None;
        }
        let topology = Topology::Links {
            n: DRIFT_ROWS * DRIFT_COLS,
            links: self.client.links.clone(),
        };
        let graph = topology.build().ok()?;
        self.cache
            .landmarks_mut()
            .get_or_build(&graph, DRIFT_LANDMARKS, DRIFT_LANDMARK_SEED)
            .ok()
    }
}

/// Quality and feasibility of one replayed batch.
#[derive(Debug, Default)]
struct Scores {
    gaps: Vec<f64>,
    reference_ms: Vec<f64>,
    requests: usize,
    unconverged: usize,
    infeasible: Vec<String>,
}

impl Scores {
    fn add(&mut self, batch: &Replayed, quality: bool, id: u64) {
        for (request, response) in batch.requests.iter().zip(&batch.output.responses) {
            let Ok(response) = response else { continue };
            if let Some(problem) = feasibility_violation(response) {
                self.infeasible.push(format!("batch {id}: {problem}"));
            }
            if !quality {
                continue;
            }
            self.requests += 1;
            self.unconverged += usize::from(!response.converged());
            if let (ServeRequest::SingleFile { problem, .. }, ServeResponse::SingleFile(s)) =
                (request, response)
            {
                let start = Instant::now();
                let exact = reference::solve(problem);
                self.reference_ms.push(ms_since(start));
                match (exact, problem.cost_of(&s.allocation)) {
                    (Ok(exact), Ok(cost)) => self.gaps.push((cost - exact.cost) / exact.cost),
                    (Err(e), _) => self.infeasible.push(format!("batch {id}: reference: {e}")),
                    (_, Err(e)) => self.infeasible.push(format!("batch {id}: pricing: {e}")),
                }
            }
        }
    }
}

/// `Some(reason)` when a response is not a feasible allocation.
fn feasibility_violation(response: &ServeResponse) -> Option<String> {
    let check = |x: &[f64], total: f64| -> Option<String> {
        let sum: f64 = x.iter().sum();
        let min = x.iter().copied().fold(f64::INFINITY, f64::min);
        let tol = fap_econ::problem::feasibility_tolerance(x.len()) * total.max(1.0);
        ((sum - total).abs() > tol || min < 0.0 || !sum.is_finite())
            .then(|| format!("sum {sum} (want {total} ± {tol:e}), min {min}"))
    };
    match response {
        ServeResponse::SingleFile(s) => check(&s.allocation, 1.0),
        ServeResponse::MultiFile(s) => s.allocations.iter().find_map(|x| check(x, 1.0)),
        ServeResponse::Ring(s) => check(&s.best_allocation, RING_COPIES),
    }
}

/// Replays (untimed) every batch the daemon has seen but the replay has
/// not, scoring the first `scored` timed batches.
fn catch_up(
    replay: &mut Replay,
    index: usize,
    warm_batches: usize,
    scored: usize,
    scores: &mut Scores,
    expected: &mut Vec<u64>,
    replay_error: &mut Option<String>,
) {
    let mut quiet = SpanLog::new(false);
    while replay.produced < index {
        let i = replay.produced;
        match replay.next(&mut quiet, None) {
            Ok(b) => {
                scores.add(&b, i - warm_batches < scored, i as u64);
                expected.push(b.responses);
            }
            Err(e) => {
                *replay_error = Some(e);
                return;
            }
        }
    }
}

/// Daemon session counters over the scored batches.
fn counter_delta(before: &MetricsRegistry, after: &MetricsRegistry, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Runs one serving workload.
pub fn run(mix: Mix, seed: u64, seconds: f64, traced: bool, spans: &mut SpanLog) -> Outcome {
    let config = mix.config();
    let mut out = Outcome::default();
    let mut client = Client::new(mix, seed);
    let warm = client.warmup();
    let warm_lines: Vec<String> = warm
        .iter()
        .enumerate()
        .map(|(i, specs)| envelope(i, specs))
        .collect();
    out.attempted = warm.iter().map(|specs| specs.len() as u64).sum();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    let mut output = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(daemon.take());
        output.clear();
        let start = Instant::now();
        let mut d = spec_daemon(&config).expect("valid daemon config");
        for line in &warm_lines {
            d.handle_line(line, &mut output, &mut NoopRecorder)
                .expect("in-memory output");
        }
        setups.push(ms_since(start) / 1e3);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    out.put("setup_s", median(&setups), setups.len());
    drive(
        &mut daemon,
        client,
        warm_lines.len(),
        seed,
        seconds,
        traced,
        output,
        spans,
        out,
    )
}

#[allow(clippy::too_many_arguments)]
fn drive<P: BatchParser>(
    daemon: &mut Daemon<P>,
    mut client: Client,
    warm_batches: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    mut output: Vec<u8>,
    spans: &mut SpanLog,
    mut out: Outcome,
) -> Outcome {
    let mix = client.mix;
    let scored = mix.scored_batches();
    let mut replay = Replay::new(mix, seed);
    let mut lines: Vec<BatchLine> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut scores = Scores::default();
    let mut expected: Vec<u64> = Vec::new();
    let mut replay_error: Option<String> = None;

    // Warm-up batches: replayed first, untimed and never scored.
    let mut quiet = SpanLog::new(false);
    match replay.warmup(&mut quiet) {
        Ok(batches) => {
            for (i, b) in batches.iter().enumerate() {
                scores.add(b, false, i as u64);
                expected.push(b.responses);
            }
        }
        Err(e) => replay_error = Some(e),
    }

    let before = daemon.session_metrics().clone();
    let mut at_scored: Option<MetricsRegistry> = None;
    let mut bytes_in = 0usize;
    let mut plain_ms: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut requests = 0usize;
    let mut plain_requests = 0usize;
    let mut index = warm_batches;
    let start = Instant::now();
    // Traced runs spend the first half untraced (the daemon alone, the
    // replay catching up afterwards) and the second half traced (each
    // batch replayed layer by layer right after the daemon served it).
    let plain_for = if traced { seconds / 2.0 } else { seconds };
    let mut traced_since: Option<Instant> = None;
    loop {
        let done = index - warm_batches;
        let plain_done = done >= scored && start.elapsed().as_secs_f64() >= plain_for;
        if plain_done && !traced {
            break;
        }
        if let Some(since) = traced_since {
            if since.elapsed().as_secs_f64() >= seconds / 2.0 && traced_ms.len() >= MIN_TRACED {
                break;
            }
        }
        let tracing_now = traced && plain_done;
        let specs = client.next_batch();
        let line = envelope(index, &specs);
        if done < scored {
            bytes_in += line.len() + 1;
        }
        requests += specs.len();
        if tracing_now {
            if traced_since.is_none() {
                // Catch the replay up with the untraced half, untimed.
                catch_up(
                    &mut replay,
                    index,
                    warm_batches,
                    scored,
                    &mut scores,
                    &mut expected,
                    &mut replay_error,
                );
                traced_since = Some(Instant::now());
            }
        } else {
            plain_requests += specs.len();
        }
        let span = spans.open(
            if tracing_now {
                "served.handle_line"
            } else {
                "served.untraced_handle_line"
            },
            None,
            index as u64,
        );
        let t = Instant::now();
        let status = daemon.handle_line(&line, &mut output, &mut NoopRecorder);
        let ms = ms_since(t);
        spans.close(span);
        if let Err(e) = status {
            errors.push(format!("batch {index}: {e}"));
        }
        if tracing_now {
            traced_ms.push(ms);
            match replay.next(spans, Some(span)) {
                Ok(b) => {
                    scores.add(&b, false, index as u64);
                    expected.push(b.responses);
                }
                Err(e) => replay_error = Some(e),
            }
        } else {
            plain_ms.push(ms);
        }
        drain_output(&mut output, &mut lines, &mut errors);
        index += 1;
        if index - warm_batches == scored {
            at_scored = Some(daemon.session_metrics().clone());
        }
    }
    let peak = peak_rss_mib();
    if let Err(e) = daemon.finish(&mut output, &mut NoopRecorder) {
        errors.push(format!("finish: {e}"));
    }
    drain_output(&mut output, &mut lines, &mut errors);
    out.attempted += requests as u64;

    // Untraced runs replay everything now, outside the timed phase.
    catch_up(
        &mut replay,
        index,
        warm_batches,
        scored,
        &mut scores,
        &mut expected,
        &mut replay_error,
    );

    // Checks.
    let failed_requests: u64 = lines.iter().map(|l| l.err).sum();
    let missing =
        (out.attempted as usize).saturating_sub(lines.iter().map(|l| l.ok as usize).sum());
    out.failed = failed_requests.max(missing as u64) + errors.len() as u64;
    out.check(
        "every request is ok",
        out.failed == 0 && lines.iter().all(|l| l.err == 0),
        format!(
            "{} requests, {} batch lines, {} error lines{}",
            out.attempted,
            lines.len(),
            errors.len(),
            errors.first().map(|e| format!(": {e}")).unwrap_or_default()
        ),
    );
    let wait_ticks = lines.iter().fold(0u64, |sum, l| sum.saturating_add(l.wait));
    out.check(
        "served.wait_ticks == 0 (the closed loop never queued)",
        wait_ticks == 0,
        format!("{wait_ticks} ticks"),
    );
    match &replay_error {
        Some(e) => out.check("one-shot replay succeeds", false, e.clone()),
        None => {
            let matching = lines.len() == expected.len()
                && lines.iter().zip(&expected).all(|(l, &e)| l.responses == e);
            out.check(
                "daemon responses equal a one-shot BatchServer replay",
                matching,
                format!(
                    "{} daemon batch lines, {} replayed",
                    lines.len(),
                    expected.len()
                ),
            );
        }
    }
    out.check(
        "every allocation is feasible",
        scores.infeasible.is_empty(),
        scores.infeasible.first().cloned().unwrap_or_default(),
    );

    // End-to-end metrics.
    if let Ok(mib) = &peak {
        out.put("peak_rss_mib", *mib, 1);
    } else if let Err(e) = peak {
        out.check("peak RSS readable", false, e);
    }
    out.put("batch_p50_ms", median(&plain_ms), plain_ms.len());
    out.put("batch_p90_ms", quantile(&plain_ms, 0.9), plain_ms.len());
    out.put(
        "requests_per_s",
        plain_requests as f64 / (plain_ms.iter().sum::<f64>() / 1e3),
        plain_requests,
    );
    out.put("opt_gap", mean(&scores.gaps), scores.gaps.len());
    out.put(
        "unconverged_frac",
        scores.unconverged as f64 / scores.requests.max(1) as f64,
        scores.requests,
    );
    out.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );

    if traced {
        let after = at_scored.unwrap_or_else(|| daemon.session_metrics().clone());
        let delta = |name: &str| counter_delta(&before, &after, name);
        let lookups = delta("cache.hit")
            + delta("cache.miss")
            + delta("cache.landmark_hit")
            + delta("cache.landmark_miss")
            + delta("cache.landmark_incremental");
        let hits = delta("cache.hit") + delta("cache.landmark_hit");
        out.put(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            lookups as usize,
        );
        out.put(
            "cache.landmark_incremental",
            delta("cache.landmark_incremental"),
            scored,
        );
        for name in [
            "serve.steals",
            "serve.warm_starts",
            "econ.iterations",
            "econ.projection_clips",
            "econ.warm_start_iters_saved",
            "ring.iterations",
        ] {
            out.put(name, delta(name), scored);
        }
        let iters = delta("econ.iterations");
        out.put(
            "econ.clips_per_iter",
            if iters > 0.0 {
                delta("econ.projection_clips") / iters
            } else {
                0.0
            },
            scored,
        );
        out.put("cli.bytes_in", bytes_in as f64, scored);
        out.put(
            "served.bytes_out",
            lines
                .iter()
                .skip(warm_batches)
                .take(scored)
                .map(|l| l.bytes as f64)
                .sum(),
            scored,
        );
        out.put("served.wait_ticks", wait_ticks as f64, lines.len());

        // Layer times from the traced half's spans.
        let n = traced_ms.len();
        let layer_ms = |name: &str| mean(&spans.durations(name));
        for (metric, span) in [
            ("cli.parse_ms", "cli.parse"),
            ("cache.resolve_ms", "cache.resolve"),
            ("serve.solve_ms", "serve.solve"),
            ("served.render_ms", "served.render"),
        ] {
            out.put(metric, layer_ms(span), n);
        }
        let overhead = spans.self_times_of("served.handle_line");
        out.put("served.overhead_ms", mean(&overhead), overhead.len());
        let handle_total: f64 = spans.durations("served.handle_line").iter().sum();
        for (metric, span) in [
            ("cli.parse_frac", "cli.parse"),
            ("cache.resolve_frac", "cache.resolve"),
            ("serve.solve_frac", "serve.solve"),
            ("served.render_frac", "served.render"),
            ("served.overhead_frac", "served.handle_line"),
        ] {
            out.put(
                metric,
                spans.self_times_of(span).iter().sum::<f64>() / handle_total,
                n,
            );
        }
        out.put(
            "obs.trace_overhead_frac",
            (median(&traced_ms) - median(&plain_ms)) / median(&plain_ms),
            n.min(plain_ms.len()),
        );
        out.put(
            "core.reference_ms",
            median(&scores.reference_ms),
            scores.reference_ms.len(),
        );

        // Substrate figures from the replay's cache (the daemon's twin).
        let dense_bytes = replay.cache.dense().bytes() as f64;
        let landmark_bytes = replay.cache.landmarks().bytes() as f64;
        out.put(
            "net.substrate_mib",
            (dense_bytes + landmark_bytes) / (1 << 20) as f64,
            1,
        );
        let (rows, row_hits, sizes) = match replay.oracle() {
            Some(oracle) => (
                oracle.rows_materialized() as f64,
                oracle.row_cache_hits() as f64,
                oracle
                    .cluster_members()
                    .iter()
                    .map(Vec::len)
                    .collect::<Vec<_>>(),
            ),
            None => (0.0, 0.0, Vec::new()),
        };
        out.put("net.landmark_rows_materialized", rows, 1);
        out.put("net.landmark_row_cache_hits", row_hits, 1);
        out.put(
            "net.cluster_max",
            sizes.iter().copied().max().unwrap_or(0) as f64,
            sizes.len(),
        );
        out.put(
            "net.cluster_sq_sum",
            sizes.iter().map(|s| s * s).sum::<usize>() as f64,
            sizes.len(),
        );
        if mix == Mix::Drift {
            let topology = Topology::Links {
                n: DRIFT_ROWS * DRIFT_COLS,
                links: replay.client.links.clone(),
            };
            let graph = topology.build().expect("the drift torus builds");
            let builds: Vec<f64> = (0..3)
                .map(|rep| {
                    let t = Instant::now();
                    let oracle = spans.time("net.oracle_build", None, rep, || {
                        LandmarkOracle::build(&graph, DRIFT_LANDMARKS, DRIFT_LANDMARK_SEED)
                    });
                    std::hint::black_box(oracle.ok());
                    ms_since(t)
                })
                .collect();
            out.put("net.oracle_build_ms", median(&builds), builds.len());
        }
        // Layers these workloads never enter do no work here.
        for name in [
            "hier.aggregate_iterations",
            "hier.inner_iterations",
            "hier.refine_rounds",
            "hier.aggregate_ticks",
            "hier.cluster_solve_ticks",
            "hier.refine_ticks",
        ] {
            out.put(name, 0.0, 0);
        }
    }
    out
}
