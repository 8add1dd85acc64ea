//! `sparse-solve`: the committed sparse-sweep point `N = 16384` — the
//! `scale_graph` 128×128 torus, `K = sparse_landmarks(N) = 128`, depth
//! `sparse_levels(N) = 1`, `sparse_hierarchical_config` — solved offline
//! by `solve_hierarchical_multilevel` on a landmark oracle.
//!
//! Why this workload: the `hier` cluster solves do nearly all of its work
//! and no serving workload touches that code, so balanced-cluster and
//! parallel-cluster-solve changes show here and only here. It bypasses
//! `cli`, `cache`, `serve`, `served` and `ring`.
//!
//! The instance is `sparse_workload(N)` itself, whatever `--seed` says:
//! the committed point has one fixed access pattern, and drawing others
//! from the seed moved the solve's work by ±20 % from seed to seed (the
//! unbalanced clusters make the inner solves' cost depend on where the
//! load lands), which would bury any change under seed noise.

use std::time::Instant;

use fap_batch::Parallelism;
use fap_bench::scale::{
    scale_graph, sparse_hierarchical_config, sparse_landmarks, sparse_levels, sparse_workload,
    SPARSE_BATCH, SPARSE_SEED,
};
use fap_core::hierarchical::{
    solve_hierarchical_multilevel, solve_hierarchical_multilevel_observed, HierarchicalSolution,
};
use fap_core::{reference, SingleFileProblem};
use fap_net::{CostProvider, Graph, LandmarkOracle};
use fap_obs::{Telemetry, Value};

use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{median, ms_since, peak_rss_mib, quantile};

/// Node count of the committed sparse point.
const N: usize = 16_384;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Solves per run at least, whatever `--seconds` says: three, so the
/// median survives one solve slowed by the host.
const MIN_SOLVES: usize = 3;

/// Runs the workload. With `traced`, solves alternate between untraced
/// and traced (a tracing `Telemetry` recorder) so the trace overhead is
/// measured inside one run, and the per-layer metrics are reported.
pub fn run(seconds: f64, traced: bool, spans: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let k = sparse_landmarks(N);
    let levels = sparse_levels(N);
    let (pattern, mu) = sparse_workload(N);
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<(Graph, LandmarkOracle)> = None;
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let graph = spans.time("net.graph_build", None, rep as u64, || scale_graph(N));
        let build_start = Instant::now();
        let oracle = spans.time("net.oracle_build", None, rep as u64, || {
            LandmarkOracle::build_parallel(&graph, k, SPARSE_SEED, SPARSE_BATCH, Parallelism::Auto)
                .expect("the torus is connected")
        });
        builds.push(ms_since(build_start));
        setups.push(ms_since(start) / 1e3);
        built = Some((graph, oracle));
    }
    let (_graph, oracle) = built.expect("at least one set-up");
    out.put("setup_s", median(&setups), setups.len());

    // Timed phase: whole solves until the time is up. Traced runs
    // alternate untraced (even) and traced (odd) solves.
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut solutions: Vec<HierarchicalSolution> = Vec::new();
    let mut tick_totals = [0u64; 3];
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_SOLVES || start.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        let with_trace = traced && i % 2 == 1;
        let solve_start = Instant::now();
        let span = spans.open("core.hier_solve", None, i as u64);
        let result = if with_trace {
            let mut tele = Telemetry::manual().with_tracing(true);
            let r = solve_hierarchical_multilevel_observed(
                &oracle, &pattern, &mus, 1.0, &config, levels, &mut tele,
            );
            spans.close(span);
            traced_ms.push(ms_since(solve_start));
            tick_totals = span_tick_totals(&tele);
            r
        } else {
            let r = solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &config, levels);
            spans.close(span);
            untraced_ms.push(ms_since(solve_start));
            r
        };
        match result {
            Ok(solution) => solutions.push(solution),
            Err(e) => {
                out.failed += 1;
                out.check(format!("solve {i} succeeds"), false, e.to_string());
            }
        }
        i += 1;
    }
    let timed_s: f64 = untraced_ms.iter().sum::<f64>() / 1e3;
    match peak_rss_mib() {
        Ok(mib) => out.put("peak_rss_mib", mib, 1),
        Err(e) => out.check("peak RSS readable", false, e),
    }
    out.put("solve_s", median(&untraced_ms) / 1e3, untraced_ms.len());
    out.put("batch_p50_ms", median(&untraced_ms), untraced_ms.len());
    out.put(
        "batch_p90_ms",
        quantile(&untraced_ms, 0.9),
        untraced_ms.len(),
    );
    out.put(
        "requests_per_s",
        untraced_ms.len() as f64 / timed_s,
        untraced_ms.len(),
    );
    out.put(
        "failed_frac",
        out.failed as f64 / out.attempted as f64,
        out.attempted as usize,
    );

    let Some(first) = solutions.first() else {
        return out;
    };
    out.put("unconverged_frac", f64::from(u8::from(!first.converged)), 1);
    let identical = solutions.iter().all(|s| {
        s.estimated_cost.to_bits() == first.estimated_cost.to_bits()
            && s.allocation.len() == first.allocation.len()
            && s.allocation
                .iter()
                .zip(&first.allocation)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    out.check(
        "repeated solves are bit-identical",
        identical,
        format!("{} solves", solutions.len()),
    );
    let (sum, min) = first
        .allocation
        .iter()
        .fold((0.0, f64::INFINITY), |(s, m), &x| (s + x, m.min(x)));
    let tol = fap_econ::problem::feasibility_tolerance(N);
    out.check(
        "allocation is feasible",
        (sum - 1.0).abs() <= tol && min >= 0.0,
        format!("sum {sum:.12}, min {min:e}, tolerance {tol:e}"),
    );

    // Quality: the exact optimum of the same estimated-cost problem.
    let problem = SingleFileProblem::mm1_with_provider(&oracle, &pattern, mu, 1.0)
        .expect("valid estimated-cost problem");
    let ref_start = Instant::now();
    let exact = spans.time("core.reference", None, 0, || reference::solve(&problem));
    let reference_ms = ms_since(ref_start);
    match exact {
        Ok(exact) => {
            let gap = (first.estimated_cost - exact.cost) / exact.cost;
            out.put("opt_gap", gap, 1);
            out.put("core.reference_ms", reference_ms, 1);
            let priced = problem.cost_of(&first.allocation).unwrap_or(f64::NAN);
            out.check(
                "estimated_cost prices the allocation on the oracle's costs",
                ((priced - first.estimated_cost) / exact.cost).abs() <= 1e-9,
                format!(
                    "estimated {:.9}, repriced {priced:.9}",
                    first.estimated_cost
                ),
            );
            out.check(
                "no allocation beats the exact optimum",
                gap >= -1e-9,
                format!("gap {gap:.6}"),
            );
        }
        Err(e) => out.check("reference solve succeeds", false, e.to_string()),
    }

    if traced {
        out.put("net.oracle_build_ms", median(&builds), builds.len());
        let access: Vec<f64> = (0..3)
            .map(|rep| {
                let t = Instant::now();
                let costs = spans.time("net.access_costs", None, rep, || {
                    oracle.systemwide_access_costs(&pattern)
                });
                std::hint::black_box(costs);
                ms_since(t)
            })
            .collect();
        out.put("net.access_costs_ms", median(&access), access.len());
        let clusters = oracle.cluster_members();
        let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
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
        out.put(
            "net.substrate_mib",
            oracle.substrate_bytes() as f64 / (1 << 20) as f64,
            1,
        );
        out.put(
            "net.landmark_rows_materialized",
            oracle.rows_materialized() as f64,
            1,
        );
        out.put(
            "net.landmark_row_cache_hits",
            oracle.row_cache_hits() as f64,
            1,
        );
        out.put(
            "econ.iterations",
            (first.aggregate_iterations + first.inner_iterations) as f64,
            1,
        );
        out.put(
            "hier.aggregate_iterations",
            first.aggregate_iterations as f64,
            1,
        );
        out.put("hier.inner_iterations", first.inner_iterations as f64, 1);
        out.put("hier.refine_rounds", first.refine_rounds as f64, 1);
        out.put("hier.aggregate_ticks", tick_totals[0] as f64, 1);
        out.put("hier.cluster_solve_ticks", tick_totals[1] as f64, 1);
        out.put("hier.refine_ticks", tick_totals[2] as f64, 1);
        out.put(
            "obs.trace_overhead_frac",
            (median(&traced_ms) - median(&untraced_ms)) / median(&untraced_ms),
            traced_ms.len().min(untraced_ms.len()),
        );
        // Layers this offline workload never enters do no work here.
        for name in [
            "cache.hit_ratio",
            "cache.landmark_incremental",
            "cli.bytes_in",
            "served.bytes_out",
            "serve.steals",
            "serve.warm_starts",
            "ring.iterations",
            "served.wait_ticks",
            "cli.parse_frac",
            "cache.resolve_frac",
            "serve.solve_frac",
            "served.render_frac",
            "served.overhead_frac",
        ] {
            out.put(name, 0.0, 0);
        }
    }
    out
}

/// Tick totals of the `hier.aggregate`, `hier.cluster_solve` and
/// `hier.refine` spans a traced solve emitted.
fn span_tick_totals(tele: &Telemetry) -> [u64; 3] {
    let mut totals = [0u64; 3];
    for event in tele
        .events()
        .iter()
        .filter(|e| e.name() == fap_obs::SPAN_END)
    {
        let (Some(Value::Str(name)), Some(Value::U64(dur))) =
            (event.field("name"), event.field("dur"))
        else {
            continue;
        };
        let slot = match name {
            "hier.aggregate" => 0,
            "hier.cluster_solve" => 1,
            "hier.refine" => 2,
            _ => continue,
        };
        totals[slot] += dur;
    }
    totals
}
