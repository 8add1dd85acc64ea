//! Multi-level cluster hierarchy contracts on the scale bench's pinned
//! 512-node mesh (16×32 torus, seeded workload): depth 1 is **bit-for-bit
//! the flat path** (the multi-level refactor cannot perturb committed
//! checksums), deeper trees stay feasible and deterministic, the sweep's
//! own depth policy reproduces the flat results it claims to, and the
//! cluster fan-out returns the same bits and span stream at every thread
//! count.

use fap::prelude::*;
use fap_bench::scale::{
    scale_graph, sparse_hierarchical_config, sparse_landmarks, sparse_levels, sparse_workload,
    SPARSE_SEED,
};
use fap::batch::Parallelism;
use fap::obs::Telemetry;
use fap_core::hierarchical::{
    capped_clusters, solve_hierarchical_multilevel, solve_hierarchical_multilevel_observed,
    HierarchicalSolution,
};

const N: usize = 512;

fn pipeline() -> (Graph, AccessPattern, f64, LandmarkOracle) {
    let graph = scale_graph(N);
    let (pattern, mu) = sparse_workload(N);
    let oracle = LandmarkOracle::build(&graph, sparse_landmarks(N), SPARSE_SEED).unwrap();
    (graph, pattern, mu, oracle)
}

/// The flat cluster-solve-refine pipeline's bits on the pinned mesh,
/// recorded from the dedicated flat entry point before depth became an
/// argument: its estimated cost and a rotate-xor fold of its allocation.
const FLAT_COST_BITS: u64 = 0x402d_a2db_f892_a2d2;
const FLAT_ALLOCATION_FOLD: u64 = 0x3c6d_302d_99a2_be14;

fn allocation_fold(x: &[f64]) -> u64 {
    x.iter().fold(0, |h, v| h.rotate_left(5) ^ v.to_bits())
}

/// Also the set-A clamp's regression case: in debug builds every replayed
/// clamp call of this solve is checked against the pass loop bit for bit.
#[test]
fn depth_one_is_bit_identical_to_the_flat_solver_on_the_pinned_mesh() {
    let (_, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);
    let deep =
        solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &config, 1).unwrap();
    assert_eq!(deep.levels, 1);
    assert_eq!((deep.refine_rounds, deep.inner_iterations), (8, 8080));
    assert_eq!(deep.estimated_cost.to_bits(), FLAT_COST_BITS);
    assert_eq!(allocation_fold(&deep.allocation), FLAT_ALLOCATION_FOLD);
    // The sweep's depth policy picks the flat path at this size, so the
    // committed BENCH_scale checksums are the flat solver's bits.
    assert_eq!(sparse_levels(N), 1);
}

#[test]
fn deeper_trees_stay_feasible_deterministic_and_competitive() {
    let (graph, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);
    let flat =
        solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &config, 1).unwrap();
    for levels in [2usize, 3] {
        let deep =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &config, levels)
                .unwrap();
        assert_eq!(deep.levels, levels);
        let total: f64 = deep.allocation.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "levels {levels}: sums to {total}");
        assert!(deep.allocation.iter().all(|&x| x >= 0.0));
        // Deterministic: a rerun reproduces the same bits.
        let again =
            solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &config, levels)
                .unwrap();
        assert_eq!(deep.estimated_cost.to_bits(), again.estimated_cost.to_bits());
        for (a, b) in deep.allocation.iter().zip(&again.allocation) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Quality: the tree approximation stays competitive with the flat
        // solve on the true dense objective.
        let dense = SingleFileProblem::mm1(&graph, &pattern, mu, 1.0).unwrap();
        let (flat_true, deep_true) = (
            dense.cost_of(&flat.allocation).unwrap(),
            dense.cost_of(&deep.allocation).unwrap(),
        );
        assert!(
            deep_true <= flat_true * 1.25 + 1e-9,
            "levels {levels}: true cost {deep_true} vs flat {flat_true}"
        );
    }
}

#[test]
fn zero_depth_is_rejected() {
    let (_, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);
    let err = solve_hierarchical_multilevel(&oracle, &pattern, &mus, 1.0, &config, 0)
        .unwrap_err();
    assert!(err.to_string().contains("at least 1 level"), "{err}");
}

/// A traced solve at `threads` workers: the solution and its event
/// stream rendered as JSONL.
fn traced_solve(
    oracle: &LandmarkOracle,
    pattern: &AccessPattern,
    mu: f64,
    levels: usize,
    threads: usize,
) -> (HierarchicalSolution, String) {
    let config = HierarchicalConfig {
        parallelism: Parallelism::Fixed(threads),
        ..sparse_hierarchical_config(pattern)
    };
    let mut tele = Telemetry::manual().with_tracing(true);
    let solution = solve_hierarchical_multilevel_observed(
        oracle, pattern, &vec![mu; N], 1.0, &config, levels, &mut tele,
    )
    .unwrap();
    let mut events = String::new();
    for event in tele.events() {
        fap::obs::jsonl::write_event(&mut events, event);
    }
    (solution, events)
}

#[test]
fn cluster_fan_out_is_bit_identical_at_one_two_and_four_threads() {
    let (graph, pattern, mu, oracle) = pipeline();
    // Two landmarks leave ~256-282-member clusters, so depth 2 runs the
    // member tree (and its chunk fan-out) rather than the flat leaves.
    let coarse = LandmarkOracle::build(&graph, 2, SPARSE_SEED).unwrap();
    let sizes: Vec<usize> = capped_clusters(&coarse).iter().map(Vec::len).collect();
    assert!(sizes.iter().any(|&s| s > 256), "cluster sizes {sizes:?}");
    for (oracle, levels) in [(&oracle, 1usize), (&coarse, 2)] {
        let (base, base_events) = traced_solve(oracle, &pattern, mu, levels, 1);
        assert!(base_events.contains("hier.cluster_solve"), "the trace records cluster solves");
        for threads in [2, 4] {
            let (solution, events) = traced_solve(oracle, &pattern, mu, levels, threads);
            let label = format!("depth {levels}, {threads} threads");
            let (cost, again) = (base.estimated_cost, solution.estimated_cost);
            assert_eq!(cost.to_bits(), again.to_bits(), "{label}");
            assert_eq!(base.aggregate_iterations, solution.aggregate_iterations, "{label}");
            assert_eq!(base.inner_iterations, solution.inner_iterations, "{label}");
            assert_eq!(base.refine_rounds, solution.refine_rounds, "{label}");
            for (a, b) in base.allocation.iter().zip(&solution.allocation) {
                assert_eq!(a.to_bits(), b.to_bits(), "{label}");
            }
            assert_eq!(base_events, events, "{label}: span stream");
        }
    }
}
