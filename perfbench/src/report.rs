//! The metric catalogue, the run outcome and its two renderings: a
//! human-readable table (every metric with unit, sample count and what it
//! should move) and the final one-line JSON result.

use std::fmt::Write as _;

use serde::Value;

/// Whether a metric is end-to-end (untraced run) or per-layer (traced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the system; measured with tracing off.
    EndToEnd,
    /// One layer's work or time; measured in the traced run.
    Layer,
}

/// One catalogue entry: name, unit, kind, and what the metric means —
/// for a per-layer metric, which end-to-end metric on which workload it
/// should move.
pub struct Entry {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub meaning: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, meaning: &'static str) -> Entry {
    Entry {
        name,
        unit,
        kind: Kind::EndToEnd,
        meaning,
    }
}

const fn layer(name: &'static str, unit: &'static str, meaning: &'static str) -> Entry {
    Entry {
        name,
        unit,
        kind: Kind::Layer,
        meaning,
    }
}

/// Every metric the benchmark can report. `BENCHMARK.json` tracks the
/// subset that is measured on every workload; the rest are printed in the
/// table on the workloads they apply to.
pub const CATALOGUE: &[Entry] = &[
    e2e("setup_s", "s", "sparse: graph + landmark oracle build; serve: daemon construction + warm-up pass over every topology (median of the run's set-ups)"),
    e2e("solve_s", "s", "sparse: median wall time of solve_hierarchical_multilevel"),
    e2e("batch_p50_ms", "ms", "serve: median Daemon::handle_line wall time of one batch; sparse: median hierarchical solve (one request, one batch)"),
    e2e("batch_p90_ms", "ms", "90th percentile of the same samples"),
    e2e("requests_per_s", "req/s", "serve: requests completed per second of handle_line time; sparse: hierarchical solves per second"),
    e2e("opt_gap", "ratio", "relative cost gap to reference::solve on the same problem (sparse: estimated_cost vs the oracle-cost optimum; serve: mean over single-file responses of the first scored batches)"),
    e2e("unconverged_frac", "ratio", "share of scored requests that stopped at their iteration cap"),
    e2e("failed_frac", "ratio", "failed / attempted (error responses, error lines, sheds, solve errors)"),
    e2e("peak_rss_mib", "MiB", "VmHWM of the process, read after the timed phase"),
    layer("host.calib_ms", "ms", "fixed CPU kernel timed before the run; host speed, moves with nothing in the program"),
    layer("obs.trace_overhead_frac", "ratio", "(traced - untraced) / untraced median op time, both measured in the traced run"),
    layer("net.oracle_build_ms", "ms", "LandmarkOracle::build_parallel (sparse-solve) or ::build as the substrate cache calls it (serve-drift) -> setup_s on both"),
    layer("net.access_costs_ms", "ms", "systemwide_access_costs on the oracle -> solve_s on sparse-solve"),
    layer("net.cluster_max", "count", "largest landmark cluster (0 without a landmark substrate) -> solve_s on sparse-solve"),
    layer("net.cluster_sq_sum", "count", "sum of squared cluster sizes -> solve_s on sparse-solve"),
    layer("net.substrate_mib", "MiB", "cost substrate resident bytes -> peak_rss_mib on sparse-solve"),
    layer("net.landmark_rows_materialized", "count", "oracle row-LRU misses -> batch_p50_ms on serve-drift"),
    layer("net.landmark_row_cache_hits", "count", "oracle row-LRU hits -> batch_p50_ms on serve-drift"),
    layer("cache.resolve_ms", "ms", "ServeSpec::to_request_cached_with over one batch -> batch_p90_ms on serve-drift, setup_s on serve-steady"),
    layer("cache.hit_ratio", "ratio", "substrate cache hits / lookups (0 without lookups) -> requests_per_s on serve-steady, batch_p90_ms on serve-drift"),
    layer("cache.landmark_incremental", "count", "oracle repairs instead of rebuilds -> batch_p90_ms on serve-drift"),
    layer("cli.parse_ms", "ms", "envelope parse + ServeSpec deserialize of one batch -> batch_p50_ms on serve-drift"),
    layer("cli.bytes_in", "bytes", "input bytes of the scored batches -> batch_p50_ms on serve-drift"),
    layer("serve.solve_ms", "ms", "BatchServer::serve_observed / serve_session_observed over one batch -> batch_p50_ms on both serve workloads"),
    layer("serve.steals", "count", "work-stealing task steals -> requests_per_s on serve-steady"),
    layer("serve.warm_starts", "count", "seeded solves -> requests_per_s on serve-steady"),
    layer("econ.iterations", "count", "resource-directed iterations -> batch_p50_ms on serve-drift, solve_s on sparse-solve"),
    layer("econ.projection_clips", "count", "set-A projection clips -> batch_p50_ms on serve-drift"),
    layer("econ.clips_per_iter", "ratio", "projection clips per iteration -> batch_p50_ms on serve-drift"),
    layer("econ.warm_start_iters_saved", "count", "iterations saved by warm starts -> batch_p50_ms on serve-drift"),
    layer("ring.iterations", "count", "section-7 ring solver iterations -> requests_per_s on serve-steady"),
    layer("hier.aggregate_iterations", "count", "aggregate K-cluster solve iterations -> solve_s and opt_gap on sparse-solve"),
    layer("hier.inner_iterations", "count", "per-cluster solve iterations -> solve_s and opt_gap on sparse-solve"),
    layer("hier.refine_rounds", "count", "cross-cluster refinement rounds -> solve_s and opt_gap on sparse-solve"),
    layer("hier.aggregate_ticks", "count", "tick total of hier.aggregate spans -> solve_s on sparse-solve"),
    layer("hier.cluster_solve_ticks", "count", "tick total of hier.cluster_solve spans -> solve_s on sparse-solve"),
    layer("hier.refine_ticks", "count", "tick total of hier.refine spans -> solve_s and opt_gap on sparse-solve"),
    layer("core.reference_ms", "ms", "reference::solve per verified problem; verification cost, outside every end-to-end timing"),
    layer("served.render_ms", "ms", "serialize_value + line render of one batch -> batch_p50_ms on serve-steady"),
    layer("served.overhead_ms", "ms", "handle_line time not spent in the replayed parse, resolve, solve and render (trace tees, admission, reactor; reads below 0 when replay noise exceeds it) -> batch_p50_ms on serve-steady"),
    layer("served.bytes_out", "bytes", "output bytes of the scored batches -> batch_p50_ms on serve-steady"),
    layer("served.wait_ticks", "count", "virtual-clock queueing of the scored batches; must be 0 (the closed loop never queues)"),
    layer("cli.parse_frac", "ratio", "cli.parse self time / handle_line time (0 where the layer is bypassed)"),
    layer("cache.resolve_frac", "ratio", "cache.resolve self time / handle_line time"),
    layer("serve.solve_frac", "ratio", "serve.solve self time / handle_line time"),
    layer("served.render_frac", "ratio", "served.render self time / handle_line time"),
    layer("served.overhead_frac", "ratio", "served.overhead / handle_line time"),
];

fn entry(name: &str) -> &'static Entry {
    CATALOGUE
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"))
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Records a metric (its unit comes from the catalogue).
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        let name = entry(name).name;
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable report: every check, then every measured metric
    /// with unit, sample count and meaning, and the metrics of `kind` this
    /// workload does not measure.
    pub fn table(&self, workload: &str, kind: Kind) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# workload {workload}");
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<4} {}{}",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                if c.detail.is_empty() {
                    String::new()
                } else {
                    format!(": {}", c.detail)
                }
            );
        }
        for e in CATALOGUE {
            match self.get(e.name) {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "metric {:<30} {:>16} {:<6} n={:<6} {}",
                        e.name,
                        format!("{:.6}", m.value),
                        e.unit,
                        m.samples,
                        e.meaning
                    );
                }
                None if e.kind == kind => {
                    let _ = writeln!(
                        out,
                        "metric {:<30} {:>16} {:<6} (not applicable)",
                        e.name, "-", e.unit
                    );
                }
                None => {}
            }
        }
        out
    }

    /// The final result line: `correct`, `attempted`, `failed`, and the
    /// `tracked` metrics (`(name, unit)` pairs from `BENCHMARK.json`).
    ///
    /// # Errors
    ///
    /// Returns a message when a tracked metric was not measured, is not
    /// finite, or its unit disagrees with the catalogue.
    pub fn json_line(&self, tracked: &Tracked) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in tracked {
            let m = self
                .get(name)
                .ok_or_else(|| format!("tracked metric '{name}' was not measured"))?;
            let e = entry(name);
            if e.unit != unit {
                return Err(format!(
                    "metric '{name}': BENCHMARK.json says '{unit}', catalogue says '{}'",
                    e.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric '{name}' is not finite: {}", m.value));
            }
            metrics.push((
                name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(unit.clone())),
                ]),
            ));
        }
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }
}

/// `(name, unit)` pairs of tracked metrics.
pub type Tracked = Vec<(String, String)>;

/// The `(name, unit)` lists `BENCHMARK.json` tracks: end-to-end and
/// per-layer.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn tracked_metrics(path: &str) -> Result<(Tracked, Tracked), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |key: &str| -> Result<Tracked, String> {
        let Some(Value::Array(items)) = root.get(key) else {
            return Err(format!("{path}: '{key}' is not a list"));
        };
        items
            .iter()
            .map(|item| match (item.get("name"), item.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n.clone(), u.clone())),
                _ => Err(format!("{path}: a '{key}' entry lacks a name or unit")),
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}
