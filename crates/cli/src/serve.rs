//! `fap serve`: batch-serving many scenarios through `fap-serve`.
//!
//! The input is a *scenario list*: a JSON array of tagged specs, one per
//! request. Three kinds are supported — `single_file` (wrapping the same
//! scenario format `fap solve` takes), `multi_file`, and `ring`. The specs
//! are converted to [`ServeRequest`]s and handed to a [`BatchServer`];
//! responses come back in submission order, bit-identical to solving the
//! list sequentially for every `--shards` value.

use serde::{Deserialize, Serialize};

use fap_batch::Parallelism;
use fap_cache::{CostBackend, SubstrateCache};
use fap_core::MultiFileProblem;
use fap_net::AccessPattern;
use fap_obs::{NoopRecorder, Recorder};
use fap_ring::VirtualRing;
use fap_serve::{BatchServer, ServeOutput, ServeRequest};

use crate::run::{problem_of, problem_of_with_costs};
use crate::scenario::{Scenario, ScenarioError, Topology};

fn default_alpha() -> f64 {
    0.1
}

fn default_epsilon() -> f64 {
    1e-6
}

fn default_ring_tolerance() -> f64 {
    1e-7
}

fn default_max_iterations() -> usize {
    1_000_000
}

/// The canonical fingerprint of a spec topology, computed off the built
/// graph so structurally identical topologies written differently (e.g. a
/// `ring` shape vs the same ring as an explicit link list) still share
/// warm-start chains — and a changed topology rotates the requests' warm
/// keys, invalidating session seeds from the old network.
fn fingerprint_of(topology: &Topology) -> Result<u64, ScenarioError> {
    Ok(fap_cache::topology_fingerprint(&topology.build()?))
}

/// One request in a `fap serve` scenario list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
#[non_exhaustive]
pub enum ServeSpec {
    /// A §4 single-file problem, in the same format `fap solve` reads.
    SingleFile {
        /// The scenario (topology, workload, model parameters).
        scenario: Scenario,
    },
    /// A §5.2 multi-file problem: one access-rate vector per file.
    MultiFile {
        /// The network.
        topology: Topology,
        /// Cost substrate (default: exact dense matrix, not serialized
        /// at its default so pre-PR-7 spec files round-trip bytewise).
        #[serde(default, skip_serializing_if = "CostBackend::is_exact")]
        cost_backend: CostBackend,
        /// `lambdas[j][i]` = file `j`'s access rate at node `i`.
        lambdas: Vec<Vec<f64>>,
        /// Per-node service rates (a single entry is broadcast to all).
        mus: Vec<f64>,
        /// The delay weight `k`.
        k: f64,
        /// Step size (default 0.1).
        #[serde(default = "default_alpha")]
        alpha: f64,
        /// Convergence tolerance (default 1e-6).
        #[serde(default = "default_epsilon")]
        epsilon: f64,
        /// Iteration cap (default 1 000 000).
        #[serde(default = "default_max_iterations")]
        max_iterations: usize,
    },
    /// A §7 multi-copy virtual-ring problem.
    Ring {
        /// Per-link communication costs (ring order, ≥ 3 links). Leave
        /// empty when `topology` is set.
        #[serde(default)]
        link_costs: Vec<f64>,
        /// Derive the ring from a network's cost substrate instead of
        /// explicit link costs — §7.2's imposed-ordering construction:
        /// virtual link `i → i+1 (mod N)` is priced at the substrate's
        /// cheapest-path cost between those nodes. Lets ring specs run
        /// on the sparse landmark backend at node counts where listing
        /// links (or the dense matrix) is impractical.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        topology: Option<Topology>,
        /// Cost substrate for a `topology`-derived ring (ignored for
        /// explicit link costs; default: exact dense matrix).
        #[serde(default, skip_serializing_if = "CostBackend::is_exact")]
        cost_backend: CostBackend,
        /// Per-node access rates.
        lambdas: Vec<f64>,
        /// Per-node service rates.
        mus: Vec<f64>,
        /// Number of copies `m` spread over the ring.
        copies: f64,
        /// The delay weight `k`.
        k: f64,
        /// Initial step size (default 0.1, decays on oscillation).
        #[serde(default = "default_alpha")]
        alpha: f64,
        /// Cost-delta halting tolerance (default 1e-7).
        #[serde(default = "default_ring_tolerance")]
        cost_delta_tolerance: f64,
        /// Iteration cap (default 1 000 000).
        #[serde(default = "default_max_iterations")]
        max_iterations: usize,
        /// Starting allocation (default: copies split evenly).
        #[serde(default)]
        initial: Option<Vec<f64>>,
    },
}

impl ServeSpec {
    /// A short label for rendering (`single_file` / `multi_file` / `ring`).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeSpec::SingleFile { .. } => "single_file",
            ServeSpec::MultiFile { .. } => "multi_file",
            ServeSpec::Ring { .. } => "ring",
        }
    }

    /// The spec's cost backend (`None` for specs that need no substrate —
    /// explicit-link ring specs; topology-derived rings report theirs).
    pub fn cost_backend(&self) -> Option<CostBackend> {
        match self {
            ServeSpec::SingleFile { scenario } => Some(scenario.cost_backend),
            ServeSpec::MultiFile { cost_backend, .. } => Some(*cost_backend),
            ServeSpec::Ring { topology: Some(_), cost_backend, .. } => Some(*cost_backend),
            ServeSpec::Ring { .. } => None,
        }
    }

    /// Overrides the spec's cost backend (`fap serve --cost-backend`); a
    /// no-op for specs that need no substrate.
    pub fn set_cost_backend(&mut self, backend: CostBackend) {
        match self {
            ServeSpec::SingleFile { scenario } => scenario.cost_backend = backend,
            ServeSpec::MultiFile { cost_backend, .. } => *cost_backend = backend,
            ServeSpec::Ring { topology: Some(_), cost_backend, .. } => *cost_backend = backend,
            ServeSpec::Ring { .. } => {}
        }
    }

    /// Builds the solver-level request this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when the spec is not a valid
    /// system.
    pub fn to_request(&self) -> Result<ServeRequest, ScenarioError> {
        match self {
            ServeSpec::SingleFile { scenario } => {
                // A deserialized spec skips `Scenario::from_json`'s checks.
                scenario.validate()?;
                let problem = problem_of(scenario)?;
                let n = scenario.topology.node_count();
                let initial =
                    scenario.initial.clone().unwrap_or_else(|| vec![1.0 / n as f64; n]);
                Ok(ServeRequest::SingleFile {
                    problem,
                    initial,
                    alpha: scenario.alpha,
                    epsilon: scenario.epsilon,
                    max_iterations: 1_000_000,
                    topology: Some(fingerprint_of(&scenario.topology)?),
                })
            }
            ServeSpec::MultiFile { topology, cost_backend, .. } => {
                let graph = topology.build()?;
                match cost_backend {
                    CostBackend::Dense => {
                        let costs = graph
                            .shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)
                            .map_err(crate::run::net_error)?;
                        self.multi_file_request(&costs)
                    }
                    CostBackend::Landmark { landmarks, seed } => {
                        let oracle = fap_net::LandmarkOracle::build(&graph, *landmarks, *seed)
                            .map_err(crate::run::net_error)?;
                        self.multi_file_request(&oracle)
                    }
                }
            }
            ServeSpec::Ring { topology: Some(topology), cost_backend, .. } => {
                let graph = topology.build()?;
                match cost_backend {
                    CostBackend::Dense => {
                        let costs = graph
                            .shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)
                            .map_err(crate::run::net_error)?;
                        self.ring_request_from(&costs)
                    }
                    CostBackend::Landmark { landmarks, seed } => {
                        let oracle = fap_net::LandmarkOracle::build(&graph, *landmarks, *seed)
                            .map_err(crate::run::net_error)?;
                        self.ring_request_from(&oracle)
                    }
                }
            }
            ServeSpec::Ring { .. } => self.ring_request(),
        }
    }

    /// Like [`to_request`](Self::to_request), but resolving each spec's
    /// cost substrate through `cache`: specs sharing a topology fingerprint
    /// (and, for landmark backends, a `(K, seed)` pair) build their
    /// substrate once per distinct key per batch (hits and misses are
    /// recorded as `cache.*` metrics in `recorder`). The requests — and
    /// therefore the responses — are bit-identical to the uncached path,
    /// because a cached substrate is the same bits a rebuild would produce.
    ///
    /// `oracle_update` switches the cache's incremental oracle path
    /// (`--oracle-update`): when on, landmark substrates go through
    /// [`SubstrateCache::get_or_update`], so a cached oracle survives a
    /// small topology edit (edge re-price, node join/leave) as a
    /// dirty-frontier repair instead of a cold rebuild — which is what
    /// keeps a `WarmMode::Session` daemon warm across drift.
    ///
    /// # Errors
    ///
    /// Same conditions as [`to_request`](Self::to_request).
    pub fn to_request_cached_with(
        &self,
        cache: &mut SubstrateCache,
        oracle_update: bool,
        recorder: &mut dyn Recorder,
    ) -> Result<ServeRequest, ScenarioError> {
        let (topology, backend) = match self {
            ServeSpec::SingleFile { scenario } => {
                scenario.validate()?;
                (&scenario.topology, scenario.cost_backend)
            }
            ServeSpec::MultiFile { topology, cost_backend, .. } => (topology, *cost_backend),
            ServeSpec::Ring { topology: Some(topology), cost_backend, .. } => {
                (topology, *cost_backend)
            }
            ServeSpec::Ring { .. } => return self.ring_request(),
        };
        let graph = topology.build()?;
        let costs = if oracle_update {
            cache.get_or_update(&graph, backend, Parallelism::Sequential, recorder)
        } else {
            cache.get_or_build(&graph, backend, Parallelism::Sequential, recorder)
        }
        .map_err(crate::run::net_error)?;
        match self {
            ServeSpec::SingleFile { scenario } => {
                let problem = problem_of_with_costs(scenario, costs)?;
                let n = scenario.topology.node_count();
                let initial =
                    scenario.initial.clone().unwrap_or_else(|| vec![1.0 / n as f64; n]);
                Ok(ServeRequest::SingleFile {
                    problem,
                    initial,
                    alpha: scenario.alpha,
                    epsilon: scenario.epsilon,
                    max_iterations: 1_000_000,
                    topology: Some(fap_cache::topology_fingerprint(&graph)),
                })
            }
            ServeSpec::MultiFile { .. } => self.multi_file_request(costs),
            ServeSpec::Ring { .. } => self.ring_request_from(costs),
        }
    }

    fn multi_file_request(
        &self,
        costs: &(impl fap_net::CostProvider + ?Sized),
    ) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::MultiFile {
            topology, lambdas, mus, k, alpha, epsilon, max_iterations, ..
        } = self
        else {
            unreachable!("multi_file_request called on a non-multi-file spec");
        };
        let n = topology.node_count();
        let patterns: Vec<AccessPattern> = lambdas
            .iter()
            .map(|rates| AccessPattern::new(rates.clone()))
            .collect::<Result<_, _>>()
            .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        let rates = if mus.len() == 1 { vec![mus[0]; n] } else { mus.clone() };
        let problem =
            MultiFileProblem::mm1_heterogeneous_with_provider(costs, &patterns, &rates, *k)
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        let initial = vec![vec![1.0 / n as f64; n]; lambdas.len()];
        Ok(ServeRequest::MultiFile {
            problem,
            initial,
            alpha: *alpha,
            epsilon: *epsilon,
            max_iterations: *max_iterations,
            topology: Some(fingerprint_of(topology)?),
        })
    }

    fn ring_request(&self) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::Ring { link_costs, lambdas, mus, copies, k, .. } = self else {
            unreachable!("ring_request called on a non-ring spec");
        };
        let ring =
            VirtualRing::new(link_costs.clone(), lambdas.clone(), mus.clone(), *copies, *k)
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        self.ring_request_of(ring)
    }

    /// A topology-derived ring: virtual link costs come from the cost
    /// substrate (`VirtualRing::from_provider`), so the spec runs on
    /// whichever backend — dense or landmark — resolved `costs`.
    fn ring_request_from(
        &self,
        costs: &(impl fap_net::CostProvider + ?Sized),
    ) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::Ring { link_costs, lambdas, mus, copies, k, .. } = self else {
            unreachable!("ring_request_from called on a non-ring spec");
        };
        if !link_costs.is_empty() {
            return Err(ScenarioError::Invalid(
                "ring spec sets both explicit link_costs and a topology; pick one".into(),
            ));
        }
        let ring =
            VirtualRing::from_provider(costs, lambdas.clone(), mus.clone(), *copies, *k)
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        self.ring_request_of(ring)
    }

    fn ring_request_of(&self, ring: VirtualRing) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::Ring {
            lambdas, copies, alpha, cost_delta_tolerance, max_iterations, initial, ..
        } = self
        else {
            unreachable!("ring_request_of called on a non-ring spec");
        };
        let n = lambdas.len();
        let initial = initial.clone().unwrap_or_else(|| vec![copies / n as f64; n]);
        Ok(ServeRequest::Ring {
            ring,
            initial,
            alpha: *alpha,
            cost_delta_tolerance: *cost_delta_tolerance,
            max_iterations: *max_iterations,
        })
    }
}

/// Parses a scenario list (a JSON array of [`ServeSpec`]s).
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] for bad JSON and
/// [`ScenarioError::Invalid`] for an empty list.
pub fn specs_from_json(text: &str) -> Result<Vec<ServeSpec>, ScenarioError> {
    let specs: Vec<ServeSpec> = serde_json::from_str(text)?;
    if specs.is_empty() {
        return Err(ScenarioError::Invalid("scenario list is empty".into()));
    }
    Ok(specs)
}

/// Loads a scenario list from a file.
///
/// # Errors
///
/// Returns [`ScenarioError::Io`] when the file cannot be read, plus the
/// conditions of [`specs_from_json`].
pub fn load_specs(path: &std::path::Path) -> Result<Vec<ServeSpec>, ScenarioError> {
    specs_from_json(&std::fs::read_to_string(path)?)
}

/// A ready-to-edit template scenario list: one request of each kind.
pub fn example_specs() -> Vec<ServeSpec> {
    vec![
        ServeSpec::SingleFile { scenario: Scenario::example() },
        ServeSpec::MultiFile {
            topology: Topology::Ring { n: 4, link_cost: 1.0 },
            cost_backend: CostBackend::Dense,
            lambdas: vec![vec![0.25; 4], vec![0.1, 0.2, 0.3, 0.4]],
            mus: vec![2.5],
            k: 1.0,
            alpha: 0.1,
            epsilon: 1e-6,
            max_iterations: 1_000_000,
        },
        ServeSpec::Ring {
            link_costs: vec![4.0, 1.0, 1.0, 1.0],
            topology: None,
            cost_backend: CostBackend::Dense,
            lambdas: vec![0.25; 4],
            mus: vec![1.5; 4],
            copies: 2.0,
            k: 1.0,
            alpha: 0.1,
            cost_delta_tolerance: 1e-7,
            max_iterations: 3_000,
            initial: Some(vec![2.0, 0.0, 0.0, 0.0]),
        },
    ]
}

/// The template list rendered to pretty JSON (`fap serve-example`).
pub fn example_specs_json() -> String {
    serde_json::to_string_pretty(&example_specs()).expect("spec serialization cannot fail")
}

/// Converts every spec and serves the batch across `shards` workers,
/// fanning per-shard metrics into the output's aggregate registry and
/// `recorder`. Cost substrates are resolved through a per-batch
/// [`SubstrateCache`], so specs sharing a topology (and backend key) build
/// their substrate once (visible as `cache.hit`/`cache.miss`/`cache.bytes`
/// — or `cache.landmark_*` for sparse backends — in `recorder`); the
/// responses are bit-identical to building every substrate from scratch.
///
/// `warm_start` switches the server's warm-start chaining
/// (`fap serve --warm-start`): requests of the same family, shape and
/// solver parameters seed each other's solves. Warm responses can differ
/// in their iteration counts (that is the point) but reach the same
/// optima; cold mode is bit-identical to solving every spec alone.
/// `oracle_update` switches the cache's incremental oracle path
/// (`fap serve --oracle-update`): successive specs whose topologies
/// differ by a small edit (edge re-price, node join/leave) repair the
/// cached landmark oracle in place instead of rebuilding it, visible as
/// `cache.landmark_incremental` in `recorder`.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] if any spec cannot be built (solver
/// failures on well-formed specs are reported per-request in the output
/// instead).
pub fn serve_specs(
    specs: &[ServeSpec],
    shards: Parallelism,
    warm_start: bool,
    oracle_update: bool,
    recorder: &mut dyn Recorder,
) -> Result<ServeOutput, ScenarioError> {
    let mut cache = SubstrateCache::new();
    let requests: Vec<ServeRequest> = specs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            spec.to_request_cached_with(&mut cache, oracle_update, recorder)
                .map_err(|e| ScenarioError::Invalid(format!("request {index}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    Ok(BatchServer::new(shards)
        .with_warm_start(warm_start)
        .serve_observed(&requests, recorder))
}

/// Renders a serve output the way `fap serve` prints it.
pub fn render_output(specs: &[ServeSpec], output: &ServeOutput) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (index, (spec, response)) in specs.iter().zip(&output.responses).enumerate() {
        match response {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "request {index:>3}  {:<11}  {}  {} iterations",
                    spec.kind(),
                    if r.converged() { "converged" } else { "stopped  " },
                    r.iterations(),
                );
            }
            Err(e) => {
                let _ = writeln!(out, "request {index:>3}  {:<11}  error: {e}", spec.kind());
            }
        }
    }
    let shards = output.shard_metrics.len();
    let _ = writeln!(
        out,
        "served {} requests ({} ok, {} failed) across {shards} shard{}",
        output.responses.len(),
        output.ok_count(),
        output.err_count(),
        if shards == 1 { "" } else { "s" },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_list_round_trips_and_serves() {
        let json = example_specs_json();
        let specs = specs_from_json(&json).unwrap();
        assert_eq!(specs, example_specs());
        let output =
            serve_specs(&specs, Parallelism::Fixed(2), false, false, &mut NoopRecorder).unwrap();
        assert_eq!(output.ok_count(), 3);
        assert_eq!(output.aggregate.counter("serve.requests"), 3);
        let rendered = render_output(&specs, &output);
        assert!(rendered.contains("single_file"));
        assert!(rendered.contains("ring"));
        assert!(rendered.contains("3 ok, 0 failed"));
    }

    #[test]
    fn sharded_serving_matches_sequential_through_the_spec_layer() {
        let mut specs = example_specs();
        specs.extend(example_specs());
        let sequential =
            serve_specs(&specs, Parallelism::Sequential, false, false, &mut NoopRecorder).unwrap();
        for shards in [2, 8] {
            let sharded =
                serve_specs(&specs, Parallelism::Fixed(shards), false, false, &mut NoopRecorder)
                    .unwrap();
            assert_eq!(sequential.responses, sharded.responses);
        }
    }

    #[test]
    fn single_file_spec_matches_fap_solve() {
        let scenario = Scenario::example();
        let solve = crate::run::solve(&scenario, &mut NoopRecorder).unwrap();
        let specs = [ServeSpec::SingleFile { scenario }];
        let output =
            serve_specs(&specs, Parallelism::Sequential, false, false, &mut NoopRecorder).unwrap();
        match output.responses[0].as_ref().unwrap() {
            fap_serve::ServeResponse::SingleFile(s) => {
                assert_eq!(s.allocation, solve.allocation);
                assert_eq!(s.iterations, solve.iterations);
            }
            other => panic!("expected a single-file response, got {other:?}"),
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_their_index() {
        let mut specs = example_specs();
        if let ServeSpec::Ring { link_costs, .. } = &mut specs[2] {
            link_costs.truncate(2); // a ring needs ≥ 3 links
        }
        let err = serve_specs(&specs, Parallelism::Sequential, false, false, &mut NoopRecorder)
            .unwrap_err();
        assert!(err.to_string().contains("request 2"), "{err}");
    }

    #[test]
    fn empty_lists_are_invalid() {
        assert!(matches!(specs_from_json("[]"), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn repeated_topologies_hit_the_cost_matrix_cache() {
        // Three copies of the example list: 6 graph-backed specs (the ring
        // spec needs no matrix), but the single- and multi-file examples
        // share one topology — Dijkstra runs once for the whole batch.
        let mut specs = example_specs();
        specs.extend(example_specs());
        specs.extend(example_specs());
        let mut telemetry = fap_obs::Telemetry::manual();
        let output =
            serve_specs(&specs, Parallelism::Sequential, false, false, &mut telemetry).unwrap();
        assert_eq!(output.err_count(), 0);
        let registry = telemetry.registry();
        assert_eq!(registry.counter("cache.miss"), 1, "one distinct topology");
        assert_eq!(registry.counter("cache.hit"), 5, "repeats are hits");
        assert!(registry.gauge_value("cache.bytes").unwrap() > 0.0);
    }

    #[test]
    fn cached_serving_is_bit_identical_to_uncached_requests() {
        let mut specs = example_specs();
        specs.extend(example_specs());
        let direct: Vec<ServeRequest> =
            specs.iter().map(|s| s.to_request().unwrap()).collect();
        let uncached =
            BatchServer::new(Parallelism::Sequential).serve_observed(&direct, &mut NoopRecorder);
        let cached =
            serve_specs(&specs, Parallelism::Sequential, false, false, &mut NoopRecorder).unwrap();
        assert_eq!(uncached.responses, cached.responses);
    }

    #[test]
    fn landmark_specs_serve_through_the_oracle_cache() {
        let mut sparse_scenario = Scenario::example();
        sparse_scenario.cost_backend = CostBackend::Landmark { landmarks: 2, seed: 1 };
        let specs = vec![
            ServeSpec::SingleFile { scenario: sparse_scenario.clone() },
            ServeSpec::SingleFile { scenario: sparse_scenario },
            ServeSpec::SingleFile { scenario: Scenario::example() },
        ];
        let mut telemetry = fap_obs::Telemetry::manual();
        let output =
            serve_specs(&specs, Parallelism::Sequential, false, false, &mut telemetry).unwrap();
        assert_eq!(output.err_count(), 0);
        let registry = telemetry.registry();
        assert_eq!(registry.counter("cache.landmark_miss"), 1, "one oracle build");
        assert_eq!(registry.counter("cache.landmark_hit"), 1, "repeat spec hits");
        assert_eq!(registry.counter("cache.miss"), 1, "dense spec uses the dense side");
        // A round-trip through JSON preserves the backend choice.
        let json = serde_json::to_string(&specs).unwrap();
        assert_eq!(specs_from_json(&json).unwrap(), specs);
    }

    #[test]
    fn topology_derived_ring_specs_run_on_either_backend() {
        let base = ServeSpec::Ring {
            link_costs: vec![],
            topology: Some(Topology::Ring { n: 6, link_cost: 2.0 }),
            cost_backend: CostBackend::Dense,
            lambdas: vec![0.25; 6],
            mus: vec![1.5; 6],
            copies: 2.0,
            k: 1.0,
            alpha: 0.1,
            cost_delta_tolerance: 1e-7,
            max_iterations: 3_000,
            initial: None,
        };
        let mut sparse = base.clone();
        sparse.set_cost_backend(CostBackend::Landmark { landmarks: 3, seed: 1 });
        assert_eq!(
            sparse.cost_backend(),
            Some(CostBackend::Landmark { landmarks: 3, seed: 1 }),
            "topology-derived rings expose and accept a backend"
        );
        let specs = vec![base.clone(), sparse];
        let mut telemetry = fap_obs::Telemetry::manual();
        let output =
            serve_specs(&specs, Parallelism::Sequential, false, false, &mut telemetry).unwrap();
        assert_eq!(output.err_count(), 0);
        assert_eq!(telemetry.registry().counter("cache.miss"), 1, "dense ring substrate");
        assert_eq!(telemetry.registry().counter("cache.landmark_miss"), 1, "sparse one");
        // The cached path and the direct path agree bit for bit.
        let direct = base.to_request().unwrap();
        let mut cache = SubstrateCache::new();
        let cached =
            base.to_request_cached_with(&mut cache, false, &mut NoopRecorder).unwrap();
        match (&direct, &cached) {
            (ServeRequest::Ring { ring: a, .. }, ServeRequest::Ring { ring: b, .. }) => {
                assert_eq!(a, b);
                // A physical 6-ring with cost-2 links prices every
                // virtual forward link at exactly one hop.
                assert_eq!(a.link_costs(), &[2.0; 6]);
            }
            other => panic!("expected ring requests, got {other:?}"),
        }
        // JSON round-trip keeps the topology form; explicit specs that
        // also name a topology are rejected.
        let json = serde_json::to_string(&specs).unwrap();
        assert_eq!(specs_from_json(&json).unwrap(), specs);
        let mut both = base;
        if let ServeSpec::Ring { link_costs, .. } = &mut both {
            *link_costs = vec![1.0; 6];
        }
        assert!(both.to_request().unwrap_err().to_string().contains("pick one"));
    }

    #[test]
    fn backend_override_rewrites_every_spec() {
        let mut specs = example_specs();
        let backend = CostBackend::Landmark { landmarks: 3, seed: 9 };
        for spec in &mut specs {
            spec.set_cost_backend(backend);
        }
        assert_eq!(specs[0].cost_backend(), Some(backend));
        assert_eq!(specs[1].cost_backend(), Some(backend));
        assert_eq!(specs[2].cost_backend(), None, "ring specs need no substrate");
    }

    #[test]
    fn warm_serving_reaches_the_same_optima_with_fewer_iterations() {
        // Identical single-file scenarios: the warm chain re-solves a
        // converged problem, so every seeded run is nearly free.
        let specs: Vec<ServeSpec> = (0..4)
            .map(|_| ServeSpec::SingleFile { scenario: Scenario::example() })
            .collect();
        let cold =
            serve_specs(&specs, Parallelism::Sequential, false, false, &mut NoopRecorder).unwrap();
        let warm = serve_specs(
            &specs,
            Parallelism::Sequential,
            true,
            false,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(warm.err_count(), 0);
        assert_eq!(warm.aggregate.counter("serve.warm_starts"), 3);
        assert!(
            warm.aggregate.counter("econ.iterations") < cold.aggregate.counter("econ.iterations")
        );
        for (w, c) in warm.responses.iter().zip(&cold.responses) {
            let (w, c) = (w.as_ref().unwrap(), c.as_ref().unwrap());
            assert!(w.converged());
            assert!(w.iterations() <= c.iterations());
        }
        // And warm sharded serving still matches warm sequential.
        let warm_sharded = serve_specs(
            &specs,
            Parallelism::Fixed(4),
            true,
            false,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(warm.responses, warm_sharded.responses);
    }
}
