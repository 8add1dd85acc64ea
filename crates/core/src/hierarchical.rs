//! Hierarchical cluster-solve-refine: the file-allocation problem at node
//! counts where the exact solver no longer fits.
//!
//! The dense pipeline solves one `N`-dimensional problem over exact costs.
//! At `N = 10⁵` the cost matrix alone is a dead end, so this module solves
//! the problem in three stages on top of a [`LandmarkOracle`]:
//!
//! 1. **Aggregate** — collapse the network to `K` landmark clusters
//!    ([`capped_clusters`]): pooled service capacity `μ_a = Σ_{i∈a} μ_i`,
//!    hub-estimated access cost of each cluster's landmark, and solve the
//!    `K`-dimensional FAP for cluster shares `y_a` (`Σ_a y_a = 1`).
//! 2. **Per-cluster** — split each share among its members. Substituting
//!    `x_i = y_a·z_i` turns the restriction of equation 1 to cluster `a`
//!    into another [`SingleFileProblem`] with total rate `λ·y_a`, so the
//!    existing solver applies unchanged.
//! 3. **Refine** — resource-directed rounds *across* cluster boundaries:
//!    compute member marginals of the full estimated problem, step the
//!    cluster shares toward the high-marginal clusters, project back onto
//!    the simplex (capacity-capped), and re-solve the inner problems
//!    **warm-started** from their previous optima via
//!    [`OptimizerScratch::start_from`] — the PR-5 warm-path engine as the
//!    refinement engine. Rounds stop when the cluster-marginal spread
//!    falls below ε; each round increments the `hier.refine_rounds`
//!    counter.
//!
//! # Clusters and fan-out
//!
//! The cost of an inner solve grows faster than its size, so the largest
//! cluster sets the solve's wall clock. Nearest-landmark clusters are
//! badly skewed (965 members against `N/K = 128` on the 128×128 bench
//! torus), so the solve partitions under a member ceiling of
//! `⌈1.1·N/K⌉` instead: nodes taken in `(home distance, index)` order
//! join their nearest landmark that still has room. The oracle's homes
//! and access-cost estimates are untouched — only the decomposition of
//! the same estimated problem changes.
//!
//! The per-cluster solves of a stage are independent, so they fan out
//! over scoped threads ([`HierarchicalConfig::parallelism`]), each worker
//! with its own [`OptimizerScratch`]. Splits, iteration counts and
//! `hier.cluster_solve` spans are merged in cluster order after the join:
//! the same oracle, workload and config produce a bit-identical
//! allocation and span stream at every thread count, which is what lets
//! the scale bench pin checksums on the hierarchical path.
//!
//! # Multi-level trees
//!
//! At `N = 10⁶` under the substrate byte ceiling, `K` is forced down to
//! ~10² and a "cluster" grows to ~10⁴ members — too large for one flat
//! inner solve. [`solve_hierarchical_multilevel`] therefore splits any
//! oversized cluster into a deterministic **cluster-of-clusters tree**:
//! members sort by `(distance to the cluster's landmark, index)`, split
//! into near-even contiguous chunks with the branching factor chosen so
//! leaves stay around 128–256 nodes, and each internal node repeats the
//! aggregate-solve / per-chunk-solve / share-refine pass of the flat
//! pipeline on its own members — warm-started from the shares and splits
//! of the previous visit, its chunk solves fanned out like the clusters'.
//! Depth 1 *is* the flat pipeline (delegated verbatim, bit for bit —
//! pinned by `tests/hier_multilevel.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use fap_batch::Parallelism;
use fap_econ::{
    project_onto_simplex, AllocationProblem, OptimizerScratch, ResourceDirectedOptimizer,
    StepSize,
};
use fap_net::{AccessPattern, CostProvider, LandmarkOracle, NodeId};
use fap_obs::{
    emit_span, emit_span_end, emit_span_start, NoopRecorder, Recorder, TraceContext,
};
use fap_queue::Mm1Delay;

use crate::error::CoreError;
use crate::single::SingleFileProblem;

/// Leaf ceiling of the multi-level member tree: a cluster (or chunk) at
/// most this large is solved flat; anything larger is partitioned when
/// the solve has levels to spend.
const LEAF_MAX: usize = 256;

/// Tuning knobs for [`solve_hierarchical_multilevel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalConfig {
    /// Upper clamp on the dynamic step of the aggregate and per-cluster
    /// solves (they use [`StepSize::Dynamic`], whose utility backtracking
    /// keeps heavily-loaded inner subproblems clear of their capacity
    /// poles).
    pub alpha: f64,
    /// Marginal-spread convergence threshold, shared by every stage.
    pub epsilon: f64,
    /// Iteration cap per aggregate/inner solve.
    pub max_inner_iterations: usize,
    /// Cap on cross-cluster refinement rounds.
    pub max_refine_rounds: usize,
    /// Step size of the refinement updates on the cluster shares.
    pub refine_step: f64,
    /// Worker threads the independent cluster (and member-tree chunk)
    /// solves fan out over. Solutions and span streams are bit-identical
    /// at every setting; only the wall clock changes.
    #[serde(default)]
    pub parallelism: Parallelism,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            alpha: 1.0,
            epsilon: 1e-6,
            max_inner_iterations: 200_000,
            max_refine_rounds: 8,
            refine_step: 0.05,
            parallelism: Parallelism::Auto,
        }
    }
}

/// The result of a hierarchical solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalSolution {
    /// The global allocation `x` over all `N` nodes (`Σ x_i = 1`).
    pub allocation: Vec<f64>,
    /// Final cluster shares `y_a`.
    pub cluster_shares: Vec<f64>,
    /// Number of clusters `K`.
    pub clusters: usize,
    /// Iterations spent by the aggregate solve.
    pub aggregate_iterations: usize,
    /// Iterations spent by all per-cluster solves, over all rounds.
    pub inner_iterations: usize,
    /// Cross-cluster refinement rounds executed.
    pub refine_rounds: usize,
    /// Whether refinement converged (cluster-marginal spread below ε).
    pub converged: bool,
    /// Cost of the returned allocation under the oracle's estimated
    /// access costs (equation 1 with estimated `C_i`).
    pub estimated_cost: f64,
    /// Depth of the cluster tree the solve used (1 = flat
    /// cluster-solve-refine, the pre-multilevel pipeline).
    #[serde(default = "default_levels")]
    pub levels: usize,
}

fn default_levels() -> usize {
    1
}

/// The cluster partition the hierarchical solve runs on: one cluster per
/// landmark, in landmark order, members ascending, no cluster larger than
/// `⌈1.1·N/K⌉`.
///
/// Nodes are placed in `(home distance, node index)` order, each into its
/// nearest landmark (by [`LandmarkOracle::landmark_distance`], ties to the
/// lower landmark index) that still has room. Every landmark is at
/// distance zero from itself, so it lands first in its own cluster and
/// no cluster is empty; where no home cluster overflows the result is
/// exactly [`LandmarkOracle::cluster_members`]. Deterministic: the order
/// uses [`f64::total_cmp`] and indices only.
pub fn capped_clusters(oracle: &LandmarkOracle) -> Vec<Vec<NodeId>> {
    let n = oracle.node_count();
    let k = oracle.landmark_count();
    // 10% headroom over the even split; K·cap ≥ 1.1·N > N, so every node
    // finds room.
    let cap = (11 * n).div_ceil(10 * k);
    let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    order.sort_by(|&p, &q| {
        oracle.home_distance(p).total_cmp(&oracle.home_distance(q)).then(p.cmp(&q))
    });
    let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in order {
        // The home is the nearest landmark (lowest index on ties), so it
        // is the answer whenever it has room; only overflow scans.
        let home = oracle.home(v);
        let a = if clusters[home].len() < cap {
            home
        } else {
            (0..k)
                .filter(|&b| clusters[b].len() < cap)
                .min_by(|&b, &c| {
                    oracle
                        .landmark_distance(b, v)
                        .total_cmp(&oracle.landmark_distance(c, v))
                        .then(b.cmp(&c))
                })
                .expect("K clusters of ⌈1.1·N/K⌉ hold all N nodes")
        };
        clusters[a].push(v);
    }
    for members in &mut clusters {
        members.sort_unstable();
    }
    clusters
}

/// What every inner solve of one hierarchical solve reads: shared, never
/// written, across the fan-out's workers.
struct Inner<'a> {
    oracle: &'a LandmarkOracle,
    config: &'a HierarchicalConfig,
    solver: &'a ResourceDirectedOptimizer,
    est_costs: &'a [f64],
    mus: &'a [f64],
    k: f64,
}

impl Inner<'_> {
    /// Equation 1 restricted to `members`, carrying `rate` units of
    /// traffic.
    fn problem(&self, members: &[NodeId], rate: f64) -> Result<SingleFileProblem, CoreError> {
        SingleFileProblem::from_parts(
            members.iter().map(|&i| self.est_costs[i.index()]).collect(),
            rate,
            members
                .iter()
                .map(|&i| Mm1Delay::new(self.mus[i.index()]))
                .collect::<Result<Vec<_>, _>>()?,
            self.k,
        )
    }
}

/// Solves the single-file problem hierarchically on `oracle`, over a
/// multi-level cluster tree.
///
/// `levels` bounds the depth of the tree: `1` is the flat
/// cluster-solve-refine pipeline, while deeper settings let any cluster
/// larger than ~256 members split recursively into near-even chunks of
/// its members sorted by distance to the cluster's landmark, each chunk
/// solved through the same aggregate/inner/refine pass. Use more levels
/// when the substrate byte ceiling forces `K` far below `N / 256` — at
/// `N = 10⁶` with `K ≈ 10²`, `levels = 3` keeps every inner solve a few
/// hundred variables wide.
///
/// Equivalent to [`solve_hierarchical_multilevel_observed`] with a
/// [`NoopRecorder`].
///
/// # Errors
///
/// Same conditions as [`solve_hierarchical_multilevel_observed`].
pub fn solve_hierarchical_multilevel(
    oracle: &LandmarkOracle,
    pattern: &AccessPattern,
    mus: &[f64],
    k: f64,
    config: &HierarchicalConfig,
    levels: usize,
) -> Result<HierarchicalSolution, CoreError> {
    solve_hierarchical_multilevel_observed(oracle, pattern, mus, k, config, levels, &mut NoopRecorder)
}

/// [`solve_hierarchical_multilevel`], recording the `hier.refine_rounds`
/// counter (one increment per refinement round), the stage spans and the
/// oracle's row-cache counters into `recorder`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for mismatched dimensions,
/// invalid config values or zero `levels`,
/// [`CoreError::InsufficientCapacity`] when `Σ μ_i ≤ λ`, and any solver
/// error from the aggregate or per-cluster stages.
pub fn solve_hierarchical_multilevel_observed(
    oracle: &LandmarkOracle,
    pattern: &AccessPattern,
    mus: &[f64],
    k: f64,
    config: &HierarchicalConfig,
    levels: usize,
    recorder: &mut dyn Recorder,
) -> Result<HierarchicalSolution, CoreError> {
    if levels == 0 {
        return Err(CoreError::InvalidParameter(
            "hierarchy depth must be at least 1 level".into(),
        ));
    }
    let n = oracle.node_count();
    if pattern.node_count() != n || mus.len() != n {
        return Err(CoreError::InvalidParameter(format!(
            "oracle covers {n} nodes, pattern {} and mus {}",
            pattern.node_count(),
            mus.len()
        )));
    }
    if !(config.alpha.is_finite()
        && config.alpha > 0.0
        && config.refine_step.is_finite()
        && config.refine_step > 0.0
        && config.epsilon.is_finite()
        && config.epsilon > 0.0)
    {
        return Err(CoreError::InvalidParameter(format!(
            "hierarchical config: alpha {}, refine_step {}, epsilon {}",
            config.alpha, config.refine_step, config.epsilon
        )));
    }
    let lambda = pattern.total_rate();

    // Tracing: the solve's phases land on a virtual iteration timeline —
    // each stage's width is the iterations it ran — nested under one
    // `hier.solve` span (a child of whatever context the caller installed).
    // The timeline is derived from solved iteration counts only, so a
    // traced run records the same spans every time.
    let mut tick = recorder.now();
    let base = tick;
    let prev_trace = recorder.current_trace();
    let root_ctx = if recorder.trace_enabled() {
        let id = recorder.reserve_span_ids(1);
        let ctx = match prev_trace {
            Some(parent) => parent.child(id),
            None => TraceContext::root(id),
        };
        emit_span_start(recorder, "hier.solve", ctx, base);
        // Install the solve as the current context so substrate markers
        // (cache hits, landmark-row drains) parent under it rather than
        // starting traces of their own.
        recorder.set_current_trace(Some(ctx));
        Some(ctx)
    } else {
        None
    };

    // The full problem under the oracle's estimated access costs: the
    // refinement marginals and the reported cost are evaluated on it.
    let est_costs = oracle.systemwide_access_costs(pattern)?;
    if let Some(root) = root_ctx {
        // The substrate pass takes no solver iterations: a zero-width span
        // marks where the hub-decomposed access costs were materialized.
        let id = recorder.reserve_span_ids(1);
        emit_span(recorder, "net.access_costs", root.child(id), tick, tick);
    }
    let full = SingleFileProblem::from_parts(
        est_costs.clone(),
        lambda,
        mus.iter().map(|&mu| Mm1Delay::new(mu)).collect::<Result<Vec<_>, _>>()?,
        k,
    )?;

    let clusters = capped_clusters(oracle);
    let kk = clusters.len();
    let pooled_mu: Vec<f64> = clusters
        .iter()
        .map(|members| members.iter().map(|&i| mus[i.index()]).sum())
        .collect();
    // Share ceiling per cluster: the margin keeps every inner subproblem
    // strictly inside its pooled capacity (Σ caps > 1 whenever Σ μ > λ).
    let rho = lambda / pooled_mu.iter().sum::<f64>();
    let margin = (0.5 * (1.0 - rho)).min(1e-3);
    let caps: Vec<f64> = pooled_mu.iter().map(|&mu_a| mu_a / lambda * (1.0 - margin)).collect();

    let solver = ResourceDirectedOptimizer::new(StepSize::Dynamic {
        safety: 0.9,
        max: config.alpha,
    })
        .with_epsilon(config.epsilon)
        .with_max_iterations(config.max_inner_iterations);
    let mut scratch = OptimizerScratch::new();
    let threads = config.parallelism.thread_count();
    let inner = Inner { oracle, config, solver: &solver, est_costs: &est_costs, mus, k };

    // Stage 1: aggregate K-cluster solve from a capacity-proportional
    // (hence feasible) start.
    let aggregate = SingleFileProblem::from_parts(
        (0..kk).map(|a| est_costs[oracle.landmarks()[a].index()]).collect(),
        lambda,
        pooled_mu.iter().map(|&mu_a| Mm1Delay::new(mu_a)).collect::<Result<Vec<_>, _>>()?,
        k,
    )?;
    let total_mu: f64 = pooled_mu.iter().sum();
    let y0: Vec<f64> = pooled_mu.iter().map(|&mu_a| mu_a / total_mu).collect();
    let agg_solution = solver.run_with_scratch(&aggregate, &y0, &mut scratch, &mut NoopRecorder)?;
    let aggregate_iterations = agg_solution.iterations;
    if let Some(root) = root_ctx {
        let id = recorder.reserve_span_ids(1);
        let end = tick + aggregate_iterations as u64;
        emit_span(recorder, "hier.aggregate", root.child(id), tick, end);
    }
    tick += aggregate_iterations as u64;
    let mut shares = agg_solution.allocation;
    clamp_to_caps(&mut shares, &caps);

    // Stage 2 state: per-cluster member splits z (x_i = y_a · z_i).
    let mut splits: Vec<Vec<f64>> = clusters
        .iter()
        .enumerate()
        .map(|(a, members)| {
            members.iter().map(|&i| mus[i.index()] / pooled_mu[a]).collect()
        })
        .collect();
    let mut inner_iterations = 0usize;
    let mut runs = Vec::new();
    solve_clusters(
        &inner, levels, &clusters, &shares, lambda, margin, threads, &mut splits, false,
        &mut runs,
    )?;
    record_runs(&runs, &mut inner_iterations, recorder, &mut tick, root_ctx);

    let mut x = compose(n, &clusters, &shares, &splits);
    let mut best_x = x.clone();
    let mut best_cost = full.cost_of(&best_x)?;
    let mut best_shares = shares.clone();

    // Stage 3: cross-cluster refinement with warm-started inner re-solves.
    let mut marginals = vec![0.0; n];
    let mut refine_rounds = 0usize;
    let mut converged = false;
    for _ in 0..config.max_refine_rounds {
        full.marginal_utilities(&x, &mut marginals)?;
        // Cluster marginal: allocation-weighted member marginal for active
        // clusters, best entrant marginal for empty ones.
        let cluster_marginals: Vec<f64> = clusters
            .iter()
            .enumerate()
            .map(|(a, members)| {
                if shares[a] > 0.0 {
                    members
                        .iter()
                        .zip(&splits[a])
                        .map(|(&i, &z)| z * marginals[i.index()])
                        .sum()
                } else {
                    members
                        .iter()
                        .map(|&i| marginals[i.index()])
                        .fold(f64::NEG_INFINITY, f64::max)
                }
            })
            .collect();
        let spread = cluster_marginals.iter().fold(f64::NEG_INFINITY, |m, &g| m.max(g))
            - cluster_marginals.iter().fold(f64::INFINITY, |m, &g| m.min(g));
        if spread < config.epsilon {
            converged = true;
            break;
        }
        refine_rounds += 1;
        recorder.incr("hier.refine_rounds", 1);
        let round_ctx = root_ctx.map(|root| {
            let id = recorder.reserve_span_ids(1);
            let ctx = root.child(id);
            emit_span_start(recorder, "hier.refine", ctx, tick);
            ctx
        });
        let round_start = tick;

        // Resource-directed step on the shares: move resource toward the
        // clusters whose members report higher marginal utility.
        let mean: f64 = shares.iter().zip(&cluster_marginals).map(|(&y, &g)| y * g).sum();
        for (y, &g) in shares.iter_mut().zip(&cluster_marginals) {
            *y += config.refine_step * (g - mean);
        }
        project_onto_simplex(&mut shares, 1.0);
        clamp_to_caps(&mut shares, &caps);

        runs.clear();
        solve_clusters(
            &inner, levels, &clusters, &shares, lambda, margin, threads, &mut splits, true,
            &mut runs,
        )?;
        record_runs(&runs, &mut inner_iterations, recorder, &mut tick, round_ctx);
        if let Some(ctx) = round_ctx {
            emit_span_end(recorder, "hier.refine", ctx, tick, tick - round_start);
        }
        x = compose(n, &clusters, &shares, &splits);
        let cost = full.cost_of(&x)?;
        if cost < best_cost {
            best_cost = cost;
            best_x.copy_from_slice(&x);
            best_shares.copy_from_slice(&shares);
        }
    }
    oracle.publish_metrics(recorder);
    if let Some(ctx) = root_ctx {
        emit_span_end(recorder, "hier.solve", ctx, tick, tick - base);
        recorder.set_current_trace(prev_trace);
    }

    Ok(HierarchicalSolution {
        allocation: best_x,
        cluster_shares: best_shares,
        clusters: kk,
        aggregate_iterations,
        inner_iterations,
        refine_rounds,
        converged,
        estimated_cost: best_cost,
        levels,
    })
}

/// Adds solver runs (iteration counts, in run order) to
/// `inner_iterations`. When `parent` is set (tracing), each run lands a
/// `hier.cluster_solve` child span of its iteration width, advancing
/// `tick` so the runs tile the timeline.
fn record_runs(
    runs: &[usize],
    inner_iterations: &mut usize,
    recorder: &mut dyn Recorder,
    tick: &mut u64,
    parent: Option<TraceContext>,
) {
    for &iterations in runs {
        *inner_iterations += iterations;
        if let Some(ctx) = parent {
            let id = recorder.reserve_span_ids(1);
            let end = *tick + iterations as u64;
            emit_span(recorder, "hier.cluster_solve", ctx.child(id), *tick, end);
        }
        *tick += iterations as u64;
    }
}

/// Solves every active cluster's inner problem over `threads` workers,
/// updating `splits` in place and appending every solver run to `runs` in
/// cluster order. With `warm` set, each solve is seeded from the
/// cluster's previous split.
#[allow(clippy::too_many_arguments)]
fn solve_clusters(
    inner: &Inner<'_>,
    levels: usize,
    clusters: &[Vec<NodeId>],
    shares: &[f64],
    lambda: f64,
    margin: f64,
    threads: usize,
    splits: &mut [Vec<f64>],
    warm: bool,
    runs: &mut Vec<usize>,
) -> Result<(), CoreError> {
    solve_groups(clusters, shares, threads, splits, runs, |a, nested, z, scratch, runs| {
        let rate = lambda * shares[a];
        if levels > 1 && clusters[a].len() > LEAF_MAX {
            // Oversized cluster with levels to spend: recurse into the
            // member tree instead of one huge flat inner solve.
            solve_member_tree(
                inner, a, &clusters[a], rate, levels - 1, nested, z, warm, scratch, runs,
            )
        } else {
            solve_leaf(inner, &clusters[a], rate, margin, z, warm, scratch, runs)
        }
    })
}

/// Runs `solve(g, nested_threads, split, scratch, runs)` for every group
/// with a positive share and at least two members, fanned out over up to
/// `threads` scoped workers (each with its own [`OptimizerScratch`]; a
/// worker's leftover budget `nested_threads` goes to the group's own
/// fan-out). A zero-share or singleton group needs no solve: its split
/// stays at the previous (or capacity-proportional) value.
///
/// Each group's solve reads only its own split and shared inputs, so its
/// result does not depend on which worker ran it. The new splits and the
/// groups' solver runs are written back in group order after the join,
/// and the first error in group order is returned — bit-identical to the
/// sequential loop at every thread count.
fn solve_groups<F>(
    groups: &[Vec<NodeId>],
    shares: &[f64],
    threads: usize,
    splits: &mut [Vec<f64>],
    runs: &mut Vec<usize>,
    solve: F,
) -> Result<(), CoreError>
where
    F: Fn(usize, usize, &mut Vec<f64>, &mut OptimizerScratch, &mut Vec<usize>)
            -> Result<(), CoreError>
        + Sync,
{
    type Solved = Result<(Vec<f64>, Vec<usize>), CoreError>;
    let active: Vec<usize> =
        (0..groups.len()).filter(|&g| shares[g] > 0.0 && groups[g].len() >= 2).collect();
    let workers = threads.min(active.len()).max(1);
    let nested = (threads / workers).max(1);
    let run_one = |j: usize, scratch: &mut OptimizerScratch| -> Solved {
        let g = active[j];
        let mut z = splits[g].clone();
        let mut group_runs = Vec::new();
        solve(g, nested, &mut z, scratch, &mut group_runs).map(|()| (z, group_runs))
    };
    let solved: Vec<Solved> = if workers <= 1 {
        let mut scratch = OptimizerScratch::new();
        (0..active.len()).map(|j| run_one(j, &mut scratch)).collect()
    } else {
        // Workers claim groups from a shared counter, so a large group
        // never holds up the rest; which worker ran a group is timing-
        // dependent, its result is not.
        let next = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, Solved)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = OptimizerScratch::new();
                        let mut out = Vec::new();
                        loop {
                            // Relaxed: the counter only hands out indices;
                            // results reach the caller through the join.
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            if j >= active.len() {
                                break out;
                            }
                            out.push((j, run_one(j, &mut scratch)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cluster solve worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<Solved>> = (0..active.len()).map(|_| None).collect();
        for (j, result) in per_worker.into_iter().flatten() {
            slots[j] = Some(result);
        }
        slots.into_iter().map(|slot| slot.expect("every group is claimed once")).collect()
    };
    for (&g, result) in active.iter().zip(solved) {
        let (z, group_runs) = result?;
        splits[g] = z;
        runs.extend(group_runs);
    }
    Ok(())
}

/// One flat inner solve: the split `z` of `rate` units of traffic over
/// `members`, recording its iteration count in `runs`.
#[allow(clippy::too_many_arguments)]
fn solve_leaf(
    inner: &Inner<'_>,
    members: &[NodeId],
    rate: f64,
    margin: f64,
    z: &mut Vec<f64>,
    warm: bool,
    scratch: &mut OptimizerScratch,
    runs: &mut Vec<usize>,
) -> Result<(), CoreError> {
    let problem = inner.problem(members, rate)?;
    // A seed carried over from a smaller share can overload a member once
    // the share grows; clamp it back inside the member capacities (the
    // half-margin leaves the caps summing above one, so the clamp always
    // lands feasible).
    let member_caps: Vec<f64> = members
        .iter()
        .map(|&i| inner.mus[i.index()] * (1.0 - 0.5 * margin) / rate)
        .collect();
    clamp_to_caps(z, &member_caps);
    if warm {
        scratch.start_from(z);
    }
    let solution = inner.solver.run_with_scratch(&problem, z, scratch, &mut NoopRecorder)?;
    runs.push(solution.iterations);
    *z = solution.allocation;
    Ok(())
}

/// Solves one node of the multi-level member tree: the split `z` of
/// `rate` units of traffic over `members` of landmark `landmark`'s
/// cluster (`Σ z = 1`).
///
/// A leaf (`members` within [`LEAF_MAX`], no levels left, or too small to
/// split) runs one flat inner solve. An internal node partitions the
/// members, sorted by `(distance to the landmark, index)`, into near-even
/// contiguous chunks, solves chunk shares on a pooled sub-aggregate,
/// recurses into each chunk (fanned out over `threads`), and runs a
/// bounded share-refinement pass — the flat three-stage pipeline replayed
/// at every level, warm-started from the incoming `z`. Every solver run
/// lands in `runs` in the sequential visiting order, so the caller's
/// `hier.cluster_solve` spans and `inner_iterations` stay exact at any
/// depth and thread count.
#[allow(clippy::too_many_arguments)]
fn solve_member_tree(
    inner: &Inner<'_>,
    landmark: usize,
    members: &[NodeId],
    rate: f64,
    levels_below: usize,
    threads: usize,
    z: &mut Vec<f64>,
    warm: bool,
    scratch: &mut OptimizerScratch,
    runs: &mut Vec<usize>,
) -> Result<(), CoreError> {
    let (mus, config) = (inner.mus, inner.config);
    let m = members.len();
    if m < 2 {
        return Ok(());
    }
    let pooled: f64 = members.iter().map(|&i| mus[i.index()]).sum();
    let rho = rate / pooled;
    let margin = (0.5 * (1.0 - rho)).min(1e-3);

    if levels_below == 0 || m <= LEAF_MAX {
        // Leaf: one flat inner solve over the members, mirroring the
        // flat path's per-cluster stage.
        return solve_leaf(inner, members, rate, margin, z, warm, scratch, runs);
    }

    // Internal node: deterministic partition into near-even contiguous
    // chunks of the sorted member list. Sorting by distance to the
    // cluster's landmark groups members of similar network position, so a
    // chunk's closest member is a fair access-cost representative for the
    // chunk.
    let order = sorted_by_landmark_distance(inner.oracle, landmark, members);
    let b = branching_factor(m, levels_below);
    let bounds: Vec<(usize, usize)> = (0..b).map(|c| (c * m / b, (c + 1) * m / b)).collect();
    let chunk_mu: Vec<f64> = bounds
        .iter()
        .map(|&(lo, hi)| order[lo..hi].iter().map(|&p| mus[members[p].index()]).sum())
        .collect();
    let chunk_cost: Vec<f64> = bounds
        .iter()
        .map(|&(lo, _)| inner.est_costs[members[order[lo]].index()])
        .collect();
    let caps: Vec<f64> = chunk_mu.iter().map(|&mu_c| mu_c / rate * (1.0 - margin)).collect();

    // Chunk shares seeded from the incoming split's chunk sums (they sum
    // to 1 whenever z does), then solved on the pooled sub-aggregate.
    let aggregate = SingleFileProblem::from_parts(
        chunk_cost,
        rate,
        chunk_mu.iter().map(|&mu_c| Mm1Delay::new(mu_c)).collect::<Result<Vec<_>, _>>()?,
        inner.k,
    )?;
    let mut shares: Vec<f64> = bounds
        .iter()
        .map(|&(lo, hi)| order[lo..hi].iter().map(|&p| z[p]).sum())
        .collect();
    if shares.iter().sum::<f64>() <= 0.5 {
        // Unusable incoming split (e.g. a cluster that held zero share
        // all along): fall back to the capacity-proportional start.
        for (y, &mu_c) in shares.iter_mut().zip(&chunk_mu) {
            *y = mu_c / pooled;
        }
    }
    clamp_to_caps(&mut shares, &caps);
    if warm {
        scratch.start_from(&shares);
    }
    let agg = inner.solver.run_with_scratch(&aggregate, &shares, scratch, &mut NoopRecorder)?;
    runs.push(agg.iterations);
    shares = agg.allocation;
    clamp_to_caps(&mut shares, &caps);

    // Per-chunk sub-splits w (z_p = share_c · w_p), seeded from the
    // incoming z where it carries mass, capacity-proportional otherwise.
    let chunk_members: Vec<Vec<NodeId>> = bounds
        .iter()
        .map(|&(lo, hi)| order[lo..hi].iter().map(|&p| members[p]).collect())
        .collect();
    let mut subsplits: Vec<Vec<f64>> = bounds
        .iter()
        .enumerate()
        .map(|(c, &(lo, hi))| {
            let total: f64 = order[lo..hi].iter().map(|&p| z[p]).sum();
            if total > 0.0 {
                order[lo..hi].iter().map(|&p| z[p] / total).collect()
            } else {
                order[lo..hi]
                    .iter()
                    .map(|&p| mus[members[p].index()] / chunk_mu[c])
                    .collect()
            }
        })
        .collect();
    let solve_chunks =
        |shares: &[f64], warm: bool, subsplits: &mut [Vec<f64>], runs: &mut Vec<usize>| {
            let solve_chunk = |c: usize, nested, w: &mut Vec<f64>, scratch: &mut _, runs: &mut _| {
                solve_member_tree(
                    inner, landmark, &chunk_members[c], rate * shares[c], levels_below - 1,
                    nested, w, warm, scratch, runs,
                )
            };
            solve_groups(&chunk_members, shares, threads, subsplits, runs, solve_chunk)
        };
    solve_chunks(&shares, warm, &mut subsplits, runs)?;

    // Bounded share refinement across the chunks. The root's refine loop
    // already re-visits this whole subtree warm each round, so a couple
    // of local rounds are enough to even out chunk marginals.
    let member_problem = inner.problem(members, rate)?;
    let mut zc = compose_members(m, &bounds, &order, &shares, &subsplits);
    let mut best_z = zc.clone();
    let mut best_cost = member_problem.cost_of(&zc)?;
    let mut marginals = vec![0.0; m];
    for _ in 0..config.max_refine_rounds.min(2) {
        member_problem.marginal_utilities(&zc, &mut marginals)?;
        let chunk_marginals: Vec<f64> = bounds
            .iter()
            .enumerate()
            .map(|(c, &(lo, hi))| {
                if shares[c] > 0.0 {
                    order[lo..hi]
                        .iter()
                        .zip(&subsplits[c])
                        .map(|(&p, &w)| w * marginals[p])
                        .sum()
                } else {
                    order[lo..hi]
                        .iter()
                        .map(|&p| marginals[p])
                        .fold(f64::NEG_INFINITY, f64::max)
                }
            })
            .collect();
        let spread = chunk_marginals.iter().fold(f64::NEG_INFINITY, |s, &g| s.max(g))
            - chunk_marginals.iter().fold(f64::INFINITY, |s, &g| s.min(g));
        if spread < config.epsilon {
            break;
        }
        let mean: f64 = shares.iter().zip(&chunk_marginals).map(|(&y, &g)| y * g).sum();
        for (y, &g) in shares.iter_mut().zip(&chunk_marginals) {
            *y += config.refine_step * (g - mean);
        }
        project_onto_simplex(&mut shares, 1.0);
        clamp_to_caps(&mut shares, &caps);
        solve_chunks(&shares, true, &mut subsplits, runs)?;
        zc = compose_members(m, &bounds, &order, &shares, &subsplits);
        let cost = member_problem.cost_of(&zc)?;
        if cost < best_cost {
            best_cost = cost;
            best_z.copy_from_slice(&zc);
        }
    }
    *z = best_z;
    Ok(())
}

/// Indices into `members` sorted by `(distance to landmark `landmark`,
/// node index)` — a deterministic, machine-independent order (`total_cmp`
/// breaks no ties differently across platforms, and the node index
/// settles exact-distance ties).
fn sorted_by_landmark_distance(
    oracle: &LandmarkOracle,
    landmark: usize,
    members: &[NodeId],
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by(|&p, &q| {
        oracle
            .landmark_distance(landmark, members[p])
            .total_cmp(&oracle.landmark_distance(landmark, members[q]))
            .then(members[p].cmp(&members[q]))
    });
    order
}

/// Smallest branching factor `B ≥ 2` whose `levels_below`-deep tree of
/// [`LEAF_MAX`]-sized leaves covers `m` members (`B^levels_below ·
/// LEAF_MAX ≥ m`), capped at `m` so no chunk is empty. Integer
/// arithmetic only: the result feeds committed checksums, so it must not
/// depend on platform `powf` rounding.
fn branching_factor(m: usize, levels_below: usize) -> usize {
    let mut b = 2usize;
    loop {
        let mut capacity = LEAF_MAX;
        let mut saturated = false;
        for _ in 0..levels_below {
            match capacity.checked_mul(b) {
                Some(c) => capacity = c,
                None => {
                    saturated = true;
                    break;
                }
            }
        }
        if saturated || capacity >= m {
            return b.min(m);
        }
        b += 1;
    }
}

/// Assembles a member split `z_p = share_c · w_p` from chunk shares and
/// per-chunk sub-splits, back in the original `members` order.
fn compose_members(
    m: usize,
    bounds: &[(usize, usize)],
    order: &[usize],
    shares: &[f64],
    subsplits: &[Vec<f64>],
) -> Vec<f64> {
    let mut z = vec![0.0; m];
    for (c, &(lo, hi)) in bounds.iter().enumerate() {
        if shares[c] <= 0.0 {
            continue;
        }
        for (&p, &w) in order[lo..hi].iter().zip(&subsplits[c]) {
            z[p] = shares[c] * w;
        }
    }
    z
}

/// Assembles the global allocation `x_i = y_{a(i)} · z_i`, where `a(i)`
/// is the cluster holding node `i`.
fn compose(n: usize, clusters: &[Vec<NodeId>], shares: &[f64], splits: &[Vec<f64>]) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for (a, members) in clusters.iter().enumerate() {
        if shares[a] <= 0.0 {
            continue;
        }
        for (&i, &z) in members.iter().zip(&splits[a]) {
            x[i.index()] = shares[a] * z;
        }
    }
    x
}

/// Caps each share at its cluster's capacity ceiling, redistributing the
/// excess to clusters with remaining headroom (preserves `Σ y = 1`;
/// `Σ caps > 1` guarantees termination with every cap respected).
fn clamp_to_caps(shares: &mut [f64], caps: &[f64]) {
    for _ in 0..shares.len() {
        let mut excess = 0.0;
        for (y, &cap) in shares.iter_mut().zip(caps) {
            if *y > cap {
                excess += *y - cap;
                *y = cap;
            }
        }
        if excess <= 0.0 {
            return;
        }
        let slack: f64 =
            shares.iter().zip(caps).map(|(&y, &cap)| (cap - y).max(0.0)).sum();
        if slack <= 0.0 {
            return;
        }
        for (y, &cap) in shares.iter_mut().zip(caps) {
            let head = cap - *y;
            if head > 0.0 {
                *y += excess * head / slack;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fap_net::{topology, LandmarkOracle};

    fn mesh_setup(n: usize, seed: u64) -> (LandmarkOracle, AccessPattern, Vec<f64>) {
        let g = topology::random_connected(n, 0.15, 1.0..4.0, seed).unwrap();
        let oracle = LandmarkOracle::build(&g, (n / 6).max(2), 11).unwrap();
        let pattern = AccessPattern::random(n, 0.2..2.0, seed + 1).unwrap();
        let mu = 4.0 * pattern.total_rate() / n as f64;
        (oracle, pattern, vec![mu; n])
    }

    #[test]
    fn allocation_is_feasible_and_deterministic() {
        let (oracle, pattern, mus) = mesh_setup(36, 5);
        let cfg = HierarchicalConfig::default();
        let a = solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 1).unwrap();
        let total: f64 = a.allocation.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
        assert!(a.allocation.iter().all(|&x| x >= 0.0));
        let b = solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 1).unwrap();
        for (p, q) in a.allocation.iter().zip(&b.allocation) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn refinement_never_worsens_the_estimated_cost() {
        let (oracle, pattern, mus) = mesh_setup(30, 9);
        let no_refine =
            HierarchicalConfig { max_refine_rounds: 0, ..HierarchicalConfig::default() };
        let base =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &no_refine, 1).unwrap();
        let cfg = HierarchicalConfig::default();
        let refined =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 1).unwrap();
        assert!(refined.estimated_cost <= base.estimated_cost + 1e-12);
    }

    #[test]
    fn close_to_exact_on_a_small_mesh() {
        let (oracle, pattern, mus) = mesh_setup(24, 3);
        let cfg = HierarchicalConfig::default();
        let refined =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 1).unwrap();
        // Exact optimum of the *estimated* problem bounds what the
        // hierarchical pipeline can achieve on it.
        let est = SingleFileProblem::from_parts(
            oracle.systemwide_access_costs(&pattern).unwrap(),
            pattern.total_rate(),
            mus.iter().map(|&m| Mm1Delay::new(m).unwrap()).collect(),
            1.0,
        )
        .unwrap();
        let exact = reference::solve(&est).unwrap();
        let exact_cost = est.cost_of(&exact.allocation).unwrap();
        assert!(
            refined.estimated_cost <= exact_cost * 1.05 + 1e-9,
            "hierarchical {} vs exact {exact_cost}",
            refined.estimated_cost
        );
    }

    #[test]
    fn records_refine_rounds() {
        let (oracle, pattern, mus) = mesh_setup(30, 7);
        let mut registry = fap_obs::MetricsRegistry::new();
        let cfg = HierarchicalConfig { epsilon: 1e-12, ..HierarchicalConfig::default() };
        let sol = solve_hierarchical_multilevel_observed(
            &oracle, &pattern, &mus, 1.0, &cfg, 1, &mut registry,
        )
        .unwrap();
        assert_eq!(registry.counter("hier.refine_rounds"), sol.refine_rounds as u64);
        assert!(sol.refine_rounds > 0, "tight epsilon should force refinement");
    }

    #[test]
    fn traced_solve_attributes_every_iteration_to_a_phase() {
        let (oracle, pattern, mus) = mesh_setup(30, 7);
        let cfg = HierarchicalConfig { epsilon: 1e-12, ..HierarchicalConfig::default() };
        let mut fr = fap_obs::FlightRecorder::default();
        let sol =
            solve_hierarchical_multilevel_observed(&oracle, &pattern, &mus, 1.0, &cfg, 1, &mut fr)
                .unwrap();
        assert_eq!(fr.completed_traces(), 1);
        let root = *fr.recent().next().unwrap();
        assert_eq!(root.name, "hier.solve");
        assert_eq!(
            root.dur,
            (sol.aggregate_iterations + sol.inner_iterations) as u64,
            "the root span covers exactly the iterations the stages ran"
        );
        // Self time partitions the root: leaves (aggregate + cluster
        // solves) own every tick, containers (refine rounds, the root) own
        // none — so `hier` holds it all and the partition is exact.
        let self_total: u64 = fr.layer_self_times().map(|(_, v)| v).sum();
        assert_eq!(self_total, root.dur);
        assert_eq!(fr.layer_self_time("hier"), root.dur);
        assert_eq!(fr.layer_self_time("net"), 0, "access costs are zero-width");
        assert_eq!(fr.dropped_spans(), 0);
        // Tracing never perturbs the solution.
        let untraced =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 1).unwrap();
        assert_eq!(sol, untraced);
    }

    #[test]
    fn multilevel_rejects_zero_levels() {
        let (oracle, pattern, mus) = mesh_setup(20, 2);
        assert!(matches!(
            solve_hierarchical_multilevel(
                &oracle, &pattern, &mus, 1.0, &HierarchicalConfig::default(), 0,
            ),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn multilevel_tree_is_feasible_deterministic_and_competitive() {
        // Two landmarks over 600 nodes force ~300-member clusters, past
        // the 256-node leaf ceiling, so a 3-level solve actually splits.
        let n = 600;
        let g = topology::random_connected(n, 0.02, 1.0..4.0, 17).unwrap();
        let oracle = LandmarkOracle::build(&g, 2, 11).unwrap();
        let pattern = AccessPattern::random(n, 0.2..2.0, 18).unwrap();
        let mu = 4.0 * pattern.total_rate() / n as f64;
        let mus = vec![mu; n];
        // Scale-relative epsilon and a modest iteration cap: the default
        // absolute 1e-6 is needlessly tight at a 600-node problem scale
        // and would make this a minutes-long test.
        let cfg = HierarchicalConfig {
            epsilon: 1e-4 * pattern.total_rate(),
            max_inner_iterations: 20_000,
            max_refine_rounds: 2,
            ..HierarchicalConfig::default()
        };
        let deep =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 3).unwrap();
        assert_eq!(deep.levels, 3);
        let total: f64 = deep.allocation.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
        assert!(deep.allocation.iter().all(|&x| x >= 0.0));
        let again =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 3).unwrap();
        for (p, q) in deep.allocation.iter().zip(&again.allocation) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // The tree is an approximation of the flat solve, not a free
        // lunch — but it must stay in the same cost neighbourhood.
        let flat =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &cfg, 1).unwrap();
        assert!(
            deep.estimated_cost <= flat.estimated_cost * 1.25 + 1e-9,
            "tree {} vs flat {}",
            deep.estimated_cost,
            flat.estimated_cost
        );
    }

    #[test]
    fn branching_factor_is_minimal_and_covers() {
        for &(m, levels) in
            &[(300usize, 1usize), (300, 2), (1024, 1), (5000, 2), (1_000_000, 3), (513, 1)]
        {
            let b = branching_factor(m, levels);
            assert!(b >= 2);
            assert!(b.pow(levels as u32) * LEAF_MAX >= m, "b={b} m={m} t={levels}");
            if b > 2 {
                let smaller = b - 1;
                assert!(
                    smaller.pow(levels as u32) * LEAF_MAX < m,
                    "b={b} not minimal for m={m} t={levels}"
                );
            }
        }
        // Tiny member lists never get more chunks than members.
        assert!(branching_factor(3, 5) <= 3);
    }

    #[test]
    fn member_sort_orders_by_landmark_distance_then_index() {
        let (oracle, _pattern, _mus) = mesh_setup(30, 4);
        let members: Vec<NodeId> = (0..30).map(NodeId::new).collect();
        let order = sorted_by_landmark_distance(&oracle, 1, &members);
        for w in order.windows(2) {
            let (p, q) = (members[w[0]], members[w[1]]);
            let (dp, dq) = (oracle.landmark_distance(1, p), oracle.landmark_distance(1, q));
            assert!(dp < dq || (dp == dq && p < q));
        }
    }

    #[test]
    fn capped_partition_respects_the_cap_covers_every_node_once_and_is_deterministic() {
        // Three landmarks on a sparse 300-node mesh: nearest-landmark
        // clusters are far from even, so the cap binds.
        let n = 300;
        let g = topology::random_connected(n, 0.02, 1.0..4.0, 17).unwrap();
        let oracle = LandmarkOracle::build(&g, 3, 11).unwrap();
        let homes = oracle.cluster_members();
        let cap = (11 * n).div_ceil(10 * 3);
        assert!(homes.iter().any(|c| c.len() > cap), "the cap must bind on this mesh");

        let clusters = capped_clusters(&oracle);
        assert_eq!(clusters.len(), 3);
        let mut seen = vec![0usize; n];
        for (a, members) in clusters.iter().enumerate() {
            assert!(members.len() <= cap, "cluster {a} holds {} > {cap}", members.len());
            assert!(members.contains(&oracle.landmarks()[a]), "landmark {a} in its cluster");
            assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
            for &v in members {
                seen[v.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "every node in exactly one cluster");
        assert_eq!(clusters, capped_clusters(&oracle));
        // A node only leaves its home when the home filled up.
        for (a, members) in clusters.iter().enumerate() {
            for &v in members {
                let home = oracle.home(v);
                assert!(home == a || clusters[home].len() == cap);
            }
        }
    }

    #[test]
    fn rejects_mismatched_dimensions() {
        let (oracle, _pattern, mus) = mesh_setup(20, 2);
        let short = AccessPattern::uniform(10, 1.0).unwrap();
        assert!(matches!(
            solve_hierarchical_multilevel(
                &oracle, &short, &mus, 1.0, &HierarchicalConfig::default(), 1,
            ),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn clamp_preserves_total_and_caps() {
        let mut y = vec![0.7, 0.2, 0.1];
        let caps = vec![0.4, 0.5, 0.6];
        clamp_to_caps(&mut y, &caps);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (v, c) in y.iter().zip(&caps) {
            assert!(v <= &(c + 1e-12));
        }
    }
}
