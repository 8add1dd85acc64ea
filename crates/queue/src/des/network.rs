//! Whole-network empirical evaluation of a file allocation.
//!
//! Given an allocation `x` (fraction of the file per node), an access
//! workload, and a communication-cost matrix, [`NetworkSimulation`]
//! generates Poisson access streams at every node, routes each access to
//! node `j` with probability `x_j` (the paper's uniform-record-access
//! assumption, §4), queues it at `j`'s single server, and measures the mean
//! response time and communication cost actually experienced — the
//! empirical counterpart of the analytic objective
//! `C = Σ_i (C_i + k·T_i)·x_i`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use fap_net::{AccessPattern, CostMatrix, NodeId};

use crate::des::distribution::{sample_exponential, ServiceDistribution};
use crate::des::server::simulate_fifo_detailed;
use crate::error::QueueError;
use crate::stats::OnlineStats;

/// Measurements from one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total accesses generated (including warm-up).
    pub accesses_generated: usize,
    /// Accesses included in the statistics (post-warm-up).
    pub accesses_measured: usize,
    /// Response time (queueing + service) per measured access.
    pub response: OnlineStats,
    /// Communication cost per measured access.
    pub comm_cost: OnlineStats,
    /// Per-destination-node response-time statistics.
    pub per_node_response: Vec<OnlineStats>,
    /// Per-destination-node measured arrival counts.
    pub per_node_accesses: Vec<u64>,
    /// Per-node server utilization (busy time over the full horizon).
    pub per_node_utilization: Vec<f64>,
}

impl SimReport {
    /// The empirical analogue of the paper's overall cost (eq. 1): mean
    /// communication cost plus `k` times mean response time, per access.
    pub fn mean_total_cost(&self, k: f64) -> f64 {
        self.comm_cost.mean() + k * self.response.mean()
    }
}

/// A configurable empirical evaluation of one file allocation.
///
/// # Example
///
/// Measure the paper's symmetric four-node ring at the optimal allocation and
/// confirm the empirical mean response time is close to the analytic
/// `1/(μ − λ/4) = 0.8`:
///
/// ```
/// use fap_net::{topology, AccessPattern, Parallelism};
/// use fap_obs::NoopRecorder;
/// use fap_queue::{NetworkSimulation, ServiceDistribution};
///
/// let graph = topology::ring(4, 1.0)?;
/// let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)?;
/// let pattern = AccessPattern::uniform(4, 1.0)?;
/// let service = ServiceDistribution::exponential(1.5)?;
/// let report = NetworkSimulation::new(vec![0.25; 4], pattern, costs, service)?
///     .with_duration(200_000.0)
///     .with_seed(7)
///     .run()?;
/// assert!((report.response.mean() - 0.8).abs() < 0.05);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSimulation {
    allocation: Vec<f64>,
    pattern: AccessPattern,
    costs: CostMatrix,
    service: Vec<ServiceDistribution>,
    duration: f64,
    warmup_fraction: f64,
    seed: u64,
}

impl NetworkSimulation {
    /// Creates a simulation of `allocation` with the same service
    /// distribution at every node.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidParameter`] if the allocation is not a
    /// non-negative vector summing to 1 (within `1e-6`), or if the
    /// allocation, workload and cost matrix disagree on the node count.
    pub fn new(
        allocation: Vec<f64>,
        pattern: AccessPattern,
        costs: CostMatrix,
        service: ServiceDistribution,
    ) -> Result<Self, QueueError> {
        let n = allocation.len();
        Self::with_service_per_node(allocation, pattern, costs, vec![service; n])
    }

    /// Creates a simulation with per-node service distributions
    /// (heterogeneous `μ_i`, paper §5.4).
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkSimulation::new`], plus a length check on
    /// `service`.
    pub fn with_service_per_node(
        allocation: Vec<f64>,
        pattern: AccessPattern,
        costs: CostMatrix,
        service: Vec<ServiceDistribution>,
    ) -> Result<Self, QueueError> {
        let n = allocation.len();
        if n == 0 {
            return Err(QueueError::InvalidParameter("empty allocation".into()));
        }
        if pattern.node_count() != n || costs.node_count() != n || service.len() != n {
            return Err(QueueError::InvalidParameter(format!(
                "inconsistent node counts: allocation {n}, workload {}, costs {}, service {}",
                pattern.node_count(),
                costs.node_count(),
                service.len()
            )));
        }
        let sum: f64 = allocation.iter().sum();
        if allocation.iter().any(|&x| !x.is_finite() || x < -1e-12) || (sum - 1.0).abs() > 1e-6 {
            return Err(QueueError::InvalidParameter(format!(
                "allocation must be non-negative and sum to 1, got sum {sum}"
            )));
        }
        Ok(NetworkSimulation {
            allocation,
            pattern,
            costs,
            service,
            duration: 10_000.0,
            warmup_fraction: 0.1,
            seed: 0,
        })
    }

    /// Sets the simulated time horizon (default `10_000`).
    #[must_use]
    pub fn with_duration(mut self, duration: f64) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the fraction of the horizon discarded as warm-up (default `0.1`).
    #[must_use]
    pub fn with_warmup_fraction(mut self, fraction: f64) -> Self {
        self.warmup_fraction = fraction;
        self
    }

    /// Sets the random seed (default `0`); runs are deterministic per seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidParameter`] if the duration or warm-up
    /// fraction is invalid.
    pub fn run(&self) -> Result<SimReport, QueueError> {
        if !self.duration.is_finite() || self.duration <= 0.0 {
            return Err(QueueError::InvalidParameter(format!("duration {}", self.duration)));
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err(QueueError::InvalidParameter(format!(
                "warm-up fraction {}",
                self.warmup_fraction
            )));
        }
        let n = self.allocation.len();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Cumulative allocation distribution for destination sampling.
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &x in &self.allocation {
            acc += x.max(0.0);
            cumulative.push(acc);
        }
        let total = acc;

        // Generate all accesses: (arrival_time, source, destination).
        let mut per_dest: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n];
        let mut generated = 0usize;
        for source in 0..n {
            let rate = self.pattern.rate(NodeId::new(source));
            if rate <= 0.0 {
                continue;
            }
            let mut t = 0.0;
            loop {
                t += sample_exponential(&mut rng, rate);
                if t >= self.duration {
                    break;
                }
                let u: f64 = rng.random_range(0.0..total);
                let dest = cumulative.partition_point(|&c| c <= u).min(n - 1);
                per_dest[dest].push((t, source));
                generated += 1;
            }
        }

        let warmup_time = self.warmup_fraction * self.duration;
        let mut response = OnlineStats::new();
        let mut comm = OnlineStats::new();
        let mut per_node_response = vec![OnlineStats::new(); n];
        let mut per_node_accesses = vec![0u64; n];
        let mut per_node_utilization = vec![0.0; n];
        let mut measured = 0usize;

        for (dest, mut accesses) in per_dest.into_iter().enumerate() {
            accesses.sort_by(|a, b| a.0.total_cmp(&b.0));
            let arrivals: Vec<f64> = accesses.iter().map(|&(t, _)| t).collect();
            let outcome = simulate_fifo_detailed(&arrivals, self.service[dest], &mut rng)?;
            per_node_utilization[dest] = outcome.busy_time / self.duration;
            let responses = &outcome.response_times;
            for ((t, source), r) in accesses.iter().zip(responses) {
                if *t < warmup_time {
                    continue;
                }
                measured += 1;
                response.push(*r);
                per_node_response[dest].push(*r);
                per_node_accesses[dest] += 1;
                comm.push(self.costs.cost(NodeId::new(*source), NodeId::new(dest)));
            }
        }

        Ok(SimReport {
            accesses_generated: generated,
            accesses_measured: measured,
            response,
            comm_cost: comm,
            per_node_response,
            per_node_accesses,
            per_node_utilization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::Parallelism;
    use fap_net::topology;
    use fap_obs::NoopRecorder;

    fn ring4() -> (AccessPattern, CostMatrix) {
        let g = topology::ring(4, 1.0).unwrap();
        let costs = g.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        (AccessPattern::uniform(4, 1.0).unwrap(), costs)
    }

    #[test]
    fn validates_allocation() {
        let (w, m) = ring4();
        let s = ServiceDistribution::exponential(1.5).unwrap();
        assert!(NetworkSimulation::new(vec![0.5, 0.5], w.clone(), m.clone(), s).is_err());
        assert!(
            NetworkSimulation::new(vec![0.5, 0.5, 0.5, -0.5], w.clone(), m.clone(), s).is_err()
        );
        assert!(NetworkSimulation::new(vec![0.4; 4], w, m, s).is_err()); // sums to 1.6
    }

    #[test]
    fn validates_run_parameters() {
        let (w, m) = ring4();
        let s = ServiceDistribution::exponential(1.5).unwrap();
        let sim = NetworkSimulation::new(vec![0.25; 4], w, m, s).unwrap();
        assert!(sim.clone().with_duration(-1.0).run().is_err());
        assert!(sim.with_warmup_fraction(1.5).run().is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let (w, m) = ring4();
        let s = ServiceDistribution::exponential(1.5).unwrap();
        let sim = NetworkSimulation::new(vec![0.25; 4], w, m, s)
            .unwrap()
            .with_duration(500.0)
            .with_seed(3);
        let a = sim.run().unwrap();
        let b = sim.run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn concentrated_allocation_sends_everything_to_one_node() {
        let (w, m) = ring4();
        let s = ServiceDistribution::exponential(1.5).unwrap();
        let report = NetworkSimulation::new(vec![0.0, 0.0, 0.0, 1.0], w, m, s)
            .unwrap()
            .with_duration(2_000.0)
            .run()
            .unwrap();
        assert_eq!(report.per_node_accesses[0], 0);
        assert_eq!(report.per_node_accesses[1], 0);
        assert_eq!(report.per_node_accesses[2], 0);
        assert!(report.per_node_accesses[3] > 0);
        // Mean comm cost should approach the ring average distance to node 3:
        // (1 + 2 + 1 + 0)/4 = 1.
        assert!((report.comm_cost.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn empirical_delay_matches_analytic_for_balanced_allocation() {
        let (w, m) = ring4();
        let s = ServiceDistribution::exponential(1.5).unwrap();
        let report = NetworkSimulation::new(vec![0.25; 4], w, m, s)
            .unwrap()
            .with_duration(100_000.0)
            .with_seed(11)
            .run()
            .unwrap();
        // Analytic: each node is M/M/1 with arrival λ/4 = 0.25, so T = 0.8.
        assert!(
            (report.response.mean() - 0.8).abs() < 0.05,
            "measured {}",
            report.response.mean()
        );
        // Empirical total cost ≈ analytic optimum 1.8 for k = 1.
        assert!((report.mean_total_cost(1.0) - 1.8).abs() < 0.1);
    }

    #[test]
    fn fragmented_beats_concentrated_empirically() {
        // The empirical counterpart of Figure 4's argument for fragmenting.
        let (w, m) = ring4();
        let s = ServiceDistribution::exponential(1.5).unwrap();
        let frag = NetworkSimulation::new(vec![0.25; 4], w.clone(), m.clone(), s)
            .unwrap()
            .with_duration(50_000.0)
            .with_seed(5)
            .run()
            .unwrap();
        let conc = NetworkSimulation::new(vec![0.0, 0.0, 0.0, 1.0], w, m, s)
            .unwrap()
            .with_duration(50_000.0)
            .with_seed(5)
            .run()
            .unwrap();
        assert!(frag.mean_total_cost(1.0) < conc.mean_total_cost(1.0));
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let (w, m) = ring4();
        let s = ServiceDistribution::exponential(1.5).unwrap();
        let report = NetworkSimulation::new(vec![0.25; 4], w, m, s)
            .unwrap()
            .with_duration(100_000.0)
            .with_seed(9)
            .run()
            .unwrap();
        // Each node: arrival λ/4 = 0.25, μ = 1.5 → ρ = 1/6.
        for rho in &report.per_node_utilization {
            assert!((rho - 1.0 / 6.0).abs() < 0.01, "rho {rho}");
        }
    }

    #[test]
    fn heterogeneous_service_rates_are_respected() {
        let (w, m) = ring4();
        // One fast node, three very slow ones; all load on the fast node.
        let service = vec![
            ServiceDistribution::exponential(10.0).unwrap(),
            ServiceDistribution::exponential(0.1).unwrap(),
            ServiceDistribution::exponential(0.1).unwrap(),
            ServiceDistribution::exponential(0.1).unwrap(),
        ];
        let report =
            NetworkSimulation::with_service_per_node(vec![1.0, 0.0, 0.0, 0.0], w, m, service)
                .unwrap()
                .with_duration(20_000.0)
                .run()
                .unwrap();
        // Fast M/M/1 at λ=1, μ=10: T = 1/9.
        assert!((report.response.mean() - 1.0 / 9.0).abs() < 0.02);
    }
}
