//! Property suite for the landmark distance oracle: the ALT bounds must
//! bracket the true shortest-path distance on arbitrary connected
//! topologies (admissibility — the triangle inequality made executable),
//! and farthest-point landmark selection must be a pure function of
//! `(graph, k, seed)`.

use fap::prelude::*;
use proptest::prelude::*;

fn random_oracle_setup(seed: u64, n: usize, k: usize) -> (Graph, LandmarkOracle) {
    let graph = topology::random_connected(n, 0.25, 1.0..5.0, seed).unwrap();
    let oracle = LandmarkOracle::build(&graph, k, seed ^ 0x5eed).unwrap();
    (graph, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Admissibility: for every pair, `lower ≤ d(u,v) ≤ upper`, with both
    /// bounds tight when one endpoint is a landmark.
    #[test]
    fn bounds_bracket_the_true_distance(seed in 0u64..300, n in 4usize..28, k in 2usize..6) {
        let (graph, oracle) = random_oracle_setup(seed, n, k);
        let truth = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let d = truth.cost(u, v);
                let lo = oracle.lower_bound(u, v);
                let hi = oracle.upper_bound(u, v);
                prop_assert!(
                    lo <= d + 1e-9 && d <= hi + 1e-9,
                    "d({u:?},{v:?}) = {d} outside [{lo}, {hi}]"
                );
            }
        }
        // At a landmark endpoint the table holds the exact distance, so
        // both bounds collapse onto it.
        for &l in oracle.landmarks() {
            for v in 0..n {
                let v = NodeId::new(v);
                let d = truth.cost(l, v);
                prop_assert!((oracle.upper_bound(l, v) - d).abs() < 1e-9);
                prop_assert!((oracle.lower_bound(l, v) - d).abs() < 1e-9);
            }
        }
    }

    /// The oracle is deterministic per `(graph, k, seed)`: same landmarks,
    /// bit-identical distance table, identical cluster assignment.
    #[test]
    fn farthest_point_selection_is_deterministic(seed in 0u64..300, n in 4usize..28, k in 2usize..6) {
        let graph = topology::random_connected(n, 0.25, 1.0..5.0, seed).unwrap();
        let a = LandmarkOracle::build(&graph, k, 99).unwrap();
        let b = LandmarkOracle::build(&graph, k, 99).unwrap();
        prop_assert_eq!(a.landmarks(), b.landmarks());
        for li in 0..a.landmark_count() {
            for v in 0..n {
                let v = NodeId::new(v);
                prop_assert_eq!(
                    a.landmark_distance(li, v).to_bits(),
                    b.landmark_distance(li, v).to_bits()
                );
            }
        }
        prop_assert_eq!(a.cluster_members(), b.cluster_members());
        // A different seed may pick a different first landmark, but the
        // result must still be a valid oracle over the same graph.
        let c = LandmarkOracle::build(&graph, k, 100).unwrap();
        prop_assert_eq!(c.landmark_count(), a.landmark_count());
    }

    /// The provider's cost estimate (the ALT upper bound) is symmetric on the
    /// undirected graphs the topology builders produce, and zero on the
    /// diagonal — the invariants the solvers lean on.
    #[test]
    fn point_costs_are_symmetric_and_zero_diagonal(seed in 0u64..200, n in 4usize..20) {
        let (_, oracle) = random_oracle_setup(seed, n, 3);
        for u in 0..n {
            prop_assert_eq!(oracle.cost(NodeId::new(u), NodeId::new(u)), 0.0);
            for v in (u + 1)..n {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let uv = oracle.cost(u, v);
                let vu = oracle.cost(v, u);
                prop_assert!((uv - vu).abs() < 1e-9, "asymmetric: {uv} vs {vu}");
            }
        }
    }
}
