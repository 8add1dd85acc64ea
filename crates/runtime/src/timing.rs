//! Wall-clock modeling of the protocol's communication rounds.
//!
//! Message *counts* (see [`crate::scheme`]) tell half the §5.1 story; the
//! other half is latency. A protocol round cannot finish before its slowest
//! message arrives, so the round time under the central scheme is one
//! round-trip to the farthest node, and under broadcast one worst-case
//! pairwise delay (requests fan out concurrently). This module estimates
//! those times from the network's cheapest-path cost matrix interpreted as
//! one-way delays, and picks the best coordinator placement — the node of
//! minimum eccentricity.

use serde::{Deserialize, Serialize};

use fap_net::{CostMatrix, NodeId};

use crate::error::RuntimeError;
use crate::scheme::ExchangeScheme;

/// Per-round and whole-run wall-clock estimates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundTiming {
    /// Time for one full exchange round.
    pub per_round: f64,
    /// Rounds accounted for.
    pub rounds: usize,
    /// `per_round × rounds`.
    pub total: f64,
}

/// Estimates the wall-clock time of `rounds` protocol rounds under `scheme`,
/// taking `delays.cost(i, j)` as the one-way delay from `i` to `j`.
///
/// Central: all nodes report concurrently (time = max delay *to* the
/// coordinator), then the coordinator answers everyone (max delay *from*
/// it). Broadcast: every node transmits to every other concurrently (one
/// worst-case pairwise delay).
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidParameter`] for a coordinator outside the
/// matrix or an empty matrix.
pub fn estimate_round_timing(
    delays: &CostMatrix,
    scheme: ExchangeScheme,
    rounds: usize,
) -> Result<RoundTiming, RuntimeError> {
    let n = delays.node_count();
    if n == 0 {
        return Err(RuntimeError::InvalidParameter("empty delay matrix".into()));
    }
    let per_round = match scheme {
        ExchangeScheme::Central { coordinator } => {
            if coordinator >= n {
                return Err(RuntimeError::InvalidParameter(format!(
                    "coordinator {coordinator} out of range for {n} nodes"
                )));
            }
            let c = NodeId::new(coordinator);
            let inbound = (0..n)
                .map(|i| delays.cost(NodeId::new(i), c))
                .fold(0.0, f64::max);
            let outbound = (0..n)
                .map(|i| delays.cost(c, NodeId::new(i)))
                .fold(0.0, f64::max);
            inbound + outbound
        }
        ExchangeScheme::Broadcast => {
            let mut worst = 0.0f64;
            for i in 0..n {
                for j in 0..n {
                    worst = worst.max(delays.cost(NodeId::new(i), NodeId::new(j)));
                }
            }
            worst
        }
    };
    Ok(RoundTiming { per_round, rounds, total: per_round * rounds as f64 })
}

/// The best coordinator placement: the node minimizing the round time of
/// the central scheme (minimum round-trip eccentricity; ties go to the
/// lowest index).
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidParameter`] for an empty matrix.
pub fn best_coordinator(delays: &CostMatrix) -> Result<usize, RuntimeError> {
    let n = delays.node_count();
    if n == 0 {
        return Err(RuntimeError::InvalidParameter("empty delay matrix".into()));
    }
    let mut best = 0usize;
    let mut best_time = f64::INFINITY;
    for candidate in 0..n {
        let t = estimate_round_timing(
            delays,
            ExchangeScheme::Central { coordinator: candidate },
            1,
        )?
        .per_round;
        if t < best_time {
            best_time = t;
            best = candidate;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_batch::Parallelism;
    use fap_net::topology;
    use fap_obs::NoopRecorder;

    fn star_delays() -> CostMatrix {
        topology::star(5, 1.0).unwrap()
            .shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap()
    }

    #[test]
    fn hub_is_the_best_coordinator_of_a_star() {
        let delays = star_delays();
        assert_eq!(best_coordinator(&delays).unwrap(), 0);
        // Hub round: in 1 + out 1 = 2; leaf round: in 2 + out 2 = 4.
        let hub = estimate_round_timing(&delays, ExchangeScheme::Central { coordinator: 0 }, 1)
            .unwrap();
        let leaf = estimate_round_timing(&delays, ExchangeScheme::Central { coordinator: 3 }, 1)
            .unwrap();
        assert_eq!(hub.per_round, 2.0);
        assert_eq!(leaf.per_round, 4.0);
    }

    #[test]
    fn broadcast_round_is_the_network_diameter() {
        let delays = star_delays();
        let t = estimate_round_timing(&delays, ExchangeScheme::Broadcast, 10).unwrap();
        assert_eq!(t.per_round, 2.0); // leaf-to-leaf through the hub
        assert_eq!(t.total, 20.0);
        assert_eq!(t.rounds, 10);
    }

    #[test]
    fn line_prefers_a_central_coordinator() {
        let delays = topology::line(7, 1.0).unwrap()
            .shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(best_coordinator(&delays).unwrap(), 3, "the middle of the line");
    }

    #[test]
    fn validates_inputs() {
        let delays = star_delays();
        assert!(estimate_round_timing(
            &delays,
            ExchangeScheme::Central { coordinator: 99 },
            1
        )
        .is_err());
    }

    #[test]
    fn central_at_best_spot_beats_or_ties_broadcast_round_on_a_star() {
        // On a star, a hub coordinator needs 2 time units per round; so does
        // the broadcast scheme (leaf-to-leaf) — the latency argument alone
        // does not separate the §5.1 schemes here, message counts do.
        let delays = star_delays();
        let central = estimate_round_timing(&delays, ExchangeScheme::Central { coordinator: 0 }, 1)
            .unwrap();
        let broadcast = estimate_round_timing(&delays, ExchangeScheme::Broadcast, 1).unwrap();
        assert_eq!(central.per_round, broadcast.per_round);
    }
}
