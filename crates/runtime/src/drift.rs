//! Workload-drift trajectories and the online reallocation control loop.
//!
//! The paper's §8 sketches an "adaptive scheme" that re-runs the
//! optimization as system parameters change; this module makes that loop
//! concrete. A [`DriftScenario`] generates a deterministic, seeded
//! λ-trajectory — one access-rate vector per epoch — and [`DriftRun`]
//! drives a [`TrackingOptimizer`] along it: every epoch re-solves the
//! file-allocation problem incrementally (warm-started from, and
//! hysteresis-anchored at, the previous epoch's allocation), plans the
//! bounded-bandwidth migration that realizes the new allocation, and
//! scores itself against two baselines:
//!
//! * the **clairvoyant** per-epoch optimum — a cold unpenalized solve of
//!   each epoch's problem, the best any allocator could do with perfect
//!   foresight; the shortfall `Σ_t (u*_t − u_tracked_t)` is the *tracked
//!   regret*;
//! * the **static** allocation — the epoch-0 optimum held fixed forever
//!   (the paper's nightly-batch posture); its shortfall is the *static
//!   regret* the tracker must beat.
//!
//! Everything is virtual-time deterministic: trajectories are closed-form
//! functions of `(seed, epoch, node)`, solves are the bit-deterministic
//! `fap-econ` iterations, and the only parallelism — the independent
//! clairvoyant solves — merges results in epoch order, so reports are
//! bit-identical at every thread count.

use fap_batch::Parallelism;
use fap_core::SingleFileProblem;
use fap_econ::{
    AllocationProblem, MigrationPlan, MigrationPlanner, OptimizerScratch,
    ResourceDirectedOptimizer, StepSize, TrackingOptimizer,
};
use fap_net::cost::CostMatrix;
use fap_net::workload::AccessPattern;
use fap_net::Graph;
use fap_obs::{NoopRecorder, Recorder, SpanGuard, Value};
use serde::{Deserialize, Serialize};

use crate::error::RuntimeError;

/// A deterministic λ-trajectory family.
///
/// Every variant is a closed-form function of `(seed, epoch, node)` — no
/// RNG state is carried between epochs, so trajectories can be evaluated
/// out of order (the clairvoyant solves exploit that) and are reproducible
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DriftScenario {
    /// Day/night load: each node's rate swings sinusoidally around its
    /// base with evenly staggered phases, so the hot side of the network
    /// wanders — the canonical tracking workload.
    Diurnal {
        /// Epochs per full cycle.
        period: usize,
        /// Relative swing in `[0, 1)`: rates span `base·(1 ± amplitude)`.
        amplitude: f64,
    },
    /// A flash crowd: at epoch `at`, one node's rate jumps by `factor`
    /// and then decays geometrically back toward its base.
    FlashCrowd {
        /// Epoch the crowd arrives.
        at: usize,
        /// Peak multiplier on the hot node's base rate (≥ 1).
        factor: f64,
        /// Epochs for the excess to halve.
        half_life: usize,
    },
    /// A permanent step change: at epoch `at`, the top half of the nodes
    /// (by index) scale their rates by `factor` — the admission
    /// controller's nightmare, and the simplest regime change.
    Step {
        /// Epoch of the step.
        at: usize,
        /// Multiplier applied from the step onward.
        factor: f64,
    },
    /// Node churn: one node's demand vanishes at `leave` (its clients go
    /// away; the node itself stays reachable as a replica site) and
    /// returns at `rejoin`.
    NodeChurn {
        /// Epoch the node's demand leaves.
        leave: usize,
        /// Epoch its demand returns.
        rejoin: usize,
    },
}

impl DriftScenario {
    /// A stable lowercase label for telemetry and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DriftScenario::Diurnal { .. } => "diurnal",
            DriftScenario::FlashCrowd { .. } => "flash-crowd",
            DriftScenario::Step { .. } => "step",
            DriftScenario::NodeChurn { .. } => "node-churn",
        }
    }

    /// The named preset behind `fap track --drift-scenario <label>` and
    /// the drift benchmark: scenario parameters scaled to a run of
    /// `epochs` epochs (two diurnal cycles, a flash crowd a quarter in,
    /// a step a third in, churn over the middle half). Returns `None` for
    /// an unknown label — the caller owns the error message.
    pub fn preset(label: &str, epochs: usize) -> Option<DriftScenario> {
        let e = epochs.max(4);
        Some(match label {
            "diurnal" => DriftScenario::Diurnal { period: (e / 2).max(2), amplitude: 0.6 },
            "flash-crowd" => {
                DriftScenario::FlashCrowd { at: e / 4, factor: 4.0, half_life: (e / 8).max(1) }
            }
            "step" => DriftScenario::Step { at: e / 3, factor: 2.0 },
            "node-churn" => DriftScenario::NodeChurn { leave: e / 4, rejoin: (3 * e) / 4 },
            _ => return None,
        })
    }
}

/// SplitMix64: the workspace's stateless seeded hash for closed-form
/// pseudo-randomness.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform variate in `[0, 1)` from `(seed, lane)`.
fn unit(seed: u64, lane: u64) -> f64 {
    (splitmix64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64
        / (1u64 << 53) as f64
}

/// Configuration of a drift-tracking run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// The λ-trajectory to track.
    pub scenario: DriftScenario,
    /// Number of re-solve epochs.
    pub epochs: usize,
    /// Trajectory seed (base rates and any scenario randomness).
    pub seed: u64,
    /// Per-node M/M/1 service rate μ.
    pub mu: f64,
    /// Delay weight `k` of the paper's objective.
    pub k: f64,
    /// Optimizer step size α.
    pub alpha: f64,
    /// Convergence tolerance ε.
    pub epsilon: f64,
    /// Per-epoch iteration cap.
    pub max_iterations: usize,
    /// Hysteresis weight η (movement cost per unit of fragment mass).
    pub hysteresis: f64,
    /// Huber-smoothing width μ of the hysteresis penalty.
    pub smoothing: f64,
    /// Fragment mass a migration round may move.
    pub migration_bandwidth: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            scenario: DriftScenario::Diurnal { period: 24, amplitude: 0.6 },
            epochs: 48,
            seed: 7,
            mu: 6.0,
            k: 1.0,
            alpha: 0.05,
            epsilon: 1e-8,
            max_iterations: 200_000,
            hysteresis: 0.002,
            smoothing: 1e-3,
            migration_bandwidth: 0.25,
        }
    }
}

impl DriftConfig {
    /// Validates the numeric parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.epochs == 0 {
            return Err(RuntimeError::InvalidParameter("epochs must be positive".into()));
        }
        for (name, value, positive) in [
            ("mu", self.mu, true),
            ("k", self.k, false),
            ("alpha", self.alpha, true),
            ("epsilon", self.epsilon, true),
            ("hysteresis", self.hysteresis, false),
            ("smoothing", self.smoothing, true),
            ("migration bandwidth", self.migration_bandwidth, true),
        ] {
            let bad = !value.is_finite() || value < 0.0 || (positive && value == 0.0);
            if bad {
                return Err(RuntimeError::InvalidParameter(format!(
                    "{name} {value} must be {}finite",
                    if positive { "positive and " } else { "non-negative and " }
                )));
            }
        }
        Ok(())
    }

    /// The access-rate vector of `epoch` for an `n`-node system — the
    /// closed-form trajectory described on [`DriftScenario`].
    ///
    /// Base rates are seeded uniforms in `[0.2, 0.5)`; scenario modulation
    /// keeps every rate strictly positive so each epoch's problem is
    /// well-posed.
    pub fn rates_at(&self, epoch: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let base = 0.2 + 0.3 * unit(self.seed, i as u64);
                let factor = match self.scenario {
                    DriftScenario::Diurnal { period, amplitude } => {
                        let phase = i as f64 / n as f64;
                        // Reduce to the cycle fraction first so epochs a
                        // whole period apart evaluate identical arguments
                        // (bit-exact periodicity).
                        let cycle = (epoch % period.max(1)) as f64 / period.max(1) as f64 + phase;
                        1.0 + amplitude * (2.0 * std::f64::consts::PI * cycle).sin()
                    }
                    DriftScenario::FlashCrowd { at, factor, half_life } => {
                        let hot = (splitmix64(self.seed ^ 0xF1A5) % n as u64) as usize;
                        if i == hot && epoch >= at {
                            let age = (epoch - at) as f64 / half_life.max(1) as f64;
                            1.0 + (factor - 1.0) * 0.5f64.powf(age)
                        } else {
                            1.0
                        }
                    }
                    DriftScenario::Step { at, factor } => {
                        if epoch >= at && i >= n / 2 {
                            factor
                        } else {
                            1.0
                        }
                    }
                    DriftScenario::NodeChurn { leave, rejoin } => {
                        let churner = (splitmix64(self.seed ^ 0xC4A7) % n as u64) as usize;
                        if i == churner && epoch >= leave && epoch < rejoin {
                            1e-6
                        } else {
                            1.0
                        }
                    }
                };
                (base * factor).max(1e-9)
            })
            .collect()
    }
}

/// One epoch of a [`DriftReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Total arrival rate `Σ λ_i` this epoch.
    pub total_rate: f64,
    /// True utility of the tracked allocation under this epoch's problem.
    pub tracked_utility: f64,
    /// Utility of this epoch's clairvoyant (cold, unpenalized) optimum.
    pub clairvoyant_utility: f64,
    /// Utility of the static epoch-0 optimum under this epoch's problem.
    pub static_utility: f64,
    /// `‖x_t − x_{t−1}‖₁`: fragment mass the tracker moved.
    pub movement: f64,
    /// Re-solve iterations.
    pub iterations: usize,
    /// Whether the re-solve was warm-started.
    pub warm: bool,
    /// Bandwidth-bounded migration rounds scheduled.
    pub migration_rounds: usize,
    /// Individual copy steps scheduled.
    pub migration_steps: usize,
}

/// The outcome of a drift-tracking run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Scenario label ([`DriftScenario::label`]).
    pub scenario: String,
    /// Per-epoch records, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// `Σ_t max(0, u*_t − u_tracked_t)`: shortfall versus clairvoyance.
    pub tracked_regret: f64,
    /// `Σ_t max(0, u*_t − u_static_t)`: shortfall of never reallocating.
    pub static_regret: f64,
    /// Total fragment mass moved across the run.
    pub total_movement: f64,
    /// Total copy steps scheduled.
    pub total_copies: usize,
    /// Total migration rounds scheduled.
    pub total_rounds: usize,
    /// The allocation after the final epoch.
    pub final_allocation: Vec<f64>,
}

impl DriftReport {
    /// Tracked regret as a fraction of static regret (`∞` when the static
    /// baseline has none).
    pub fn regret_ratio(&self) -> f64 {
        if self.static_regret > 0.0 {
            self.tracked_regret / self.static_regret
        } else if self.tracked_regret > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// The drift-tracking control loop over a fixed topology.
#[derive(Debug)]
pub struct DriftRun {
    costs: CostMatrix,
    config: DriftConfig,
    nodes: usize,
}

impl DriftRun {
    /// Prepares a run of `config` on `graph` (routing costs are computed
    /// once; the topology is static for the run).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for invalid
    /// configuration or a disconnected graph.
    pub fn new(graph: &Graph, config: DriftConfig) -> Result<Self, RuntimeError> {
        config.validate()?;
        let costs = graph
            .shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)
            .map_err(|e| RuntimeError::InvalidParameter(format!("graph: {e}")))?;
        Ok(DriftRun { costs, nodes: graph.node_count(), config })
    }

    /// The run's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    fn optimizer(&self) -> ResourceDirectedOptimizer {
        ResourceDirectedOptimizer::new(StepSize::Fixed(self.config.alpha))
            .with_epsilon(self.config.epsilon)
            .with_max_iterations(self.config.max_iterations)
    }

    fn problem_at(&self, epoch: usize) -> Result<SingleFileProblem, RuntimeError> {
        let rates = self.config.rates_at(epoch, self.nodes);
        let pattern = AccessPattern::new(rates)
            .map_err(|e| RuntimeError::Drift { epoch, reason: e.to_string() })?;
        SingleFileProblem::mm1_with_costs(&self.costs, &pattern, self.config.mu, self.config.k)
            .map_err(|e| RuntimeError::Drift { epoch, reason: e.to_string() })
    }

    /// Runs the control loop, recording `track.*` telemetry and one
    /// `track.epoch` span per re-solve into `recorder`.
    ///
    /// `parallelism` fans out the independent clairvoyant solves; the
    /// tracked sequence itself is inherently serial (each epoch's anchor
    /// is the previous answer). Results are merged in epoch order, so the
    /// report is bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Drift`] when an epoch's problem cannot be
    /// built (e.g. the trajectory exceeds service capacity) or its solve
    /// fails.
    pub fn run(
        &self,
        parallelism: Parallelism,
        recorder: &mut dyn Recorder,
    ) -> Result<DriftReport, RuntimeError> {
        let epochs = self.config.epochs;
        let problems: Vec<SingleFileProblem> =
            (0..epochs).map(|t| self.problem_at(t)).collect::<Result<_, _>>()?;
        let initial = vec![1.0 / self.nodes as f64; self.nodes];

        // Clairvoyant per-epoch optima: independent cold solves, fanned out
        // over contiguous chunks and merged in epoch order.
        let clairvoyant = self.solve_clairvoyant(&problems, &initial, parallelism)?;

        // The static baseline never reallocates after epoch 0.
        let static_allocation = &clairvoyant[0].0;

        let optimizer = self.optimizer();
        let mut tracker = TrackingOptimizer::new(optimizer, self.config.hysteresis)
            .and_then(|t| t.with_smoothing(self.config.smoothing))
            .map_err(|e| RuntimeError::InvalidParameter(e.to_string()))?;
        let planner = MigrationPlanner::new(self.config.migration_bandwidth)
            .map_err(|e| RuntimeError::InvalidParameter(e.to_string()))?;

        let mut report = DriftReport {
            scenario: self.config.scenario.label().to_string(),
            epochs: Vec::with_capacity(epochs),
            tracked_regret: 0.0,
            static_regret: 0.0,
            total_movement: 0.0,
            total_copies: 0,
            total_rounds: 0,
            final_allocation: initial.clone(),
        };

        for (t, problem) in problems.iter().enumerate() {
            recorder.set_time(t as u64);
            let span = SpanGuard::begin("track.epoch", recorder);
            let before = report.final_allocation.clone();
            let tracked = tracker
                .track(problem, &initial, recorder)
                .map_err(|e| RuntimeError::Drift { epoch: t, reason: e.to_string() })?;
            let plan: MigrationPlan = planner
                .plan(&before, &tracked.allocation)
                .map_err(|e| RuntimeError::Drift { epoch: t, reason: e.to_string() })?;
            span.end(recorder);

            let (_, clairvoyant_utility) = clairvoyant[t];
            let static_utility = problem
                .utility(static_allocation)
                .map_err(|e| RuntimeError::Drift { epoch: t, reason: e.to_string() })?;
            let epoch_regret = (clairvoyant_utility - tracked.true_utility).max(0.0);
            let epoch_static_regret = (clairvoyant_utility - static_utility).max(0.0);

            report.tracked_regret += epoch_regret;
            report.static_regret += epoch_static_regret;
            report.total_movement += tracked.movement;
            report.total_copies += plan.step_count();
            report.total_rounds += plan.round_count();

            if recorder.is_enabled() {
                recorder.incr("track.epochs", 1);
                if tracked.warm {
                    recorder.incr("track.warm_epochs", 1);
                }
                recorder.incr("track.copies_scheduled", plan.step_count() as u64);
                recorder.incr("track.migration_rounds", plan.round_count() as u64);
                recorder.observe("track.movement", tracked.movement);
                recorder.observe("track.resolve_iterations", tracked.iterations as f64);
                recorder.gauge("track.tracked_utility", tracked.true_utility);
                recorder.gauge("track.clairvoyant_utility", clairvoyant_utility);
                recorder.gauge("track.static_utility", static_utility);
                recorder.gauge("track.regret", report.tracked_regret);
                recorder.gauge("track.static_regret", report.static_regret);
                recorder.emit(
                    "track_epoch",
                    &[
                        ("epoch", Value::U64(t as u64)),
                        ("total_rate", Value::F64(problem.total_rate())),
                        ("tracked_utility", Value::F64(tracked.true_utility)),
                        ("clairvoyant_utility", Value::F64(clairvoyant_utility)),
                        ("static_utility", Value::F64(static_utility)),
                        ("movement", Value::F64(tracked.movement)),
                        ("iterations", Value::U64(tracked.iterations as u64)),
                    ],
                );
            }

            report.epochs.push(EpochRecord {
                epoch: t,
                total_rate: problem.total_rate(),
                tracked_utility: tracked.true_utility,
                clairvoyant_utility,
                static_utility,
                movement: tracked.movement,
                iterations: tracked.iterations,
                warm: tracked.warm,
                migration_rounds: plan.round_count(),
                migration_steps: plan.step_count(),
            });
            report.final_allocation = tracked.allocation;
        }
        Ok(report)
    }

    /// Cold unpenalized per-epoch optima `(allocation, utility)`, fanned
    /// out over `parallelism` workers on contiguous epoch chunks.
    fn solve_clairvoyant(
        &self,
        problems: &[SingleFileProblem],
        initial: &[f64],
        parallelism: Parallelism,
    ) -> Result<Vec<(Vec<f64>, f64)>, RuntimeError> {
        let threads = parallelism.threads_for(problems.len());
        let optimizer = self.optimizer();
        let solve_chunk = |chunk: &[SingleFileProblem], offset: usize| {
            let mut scratch = OptimizerScratch::new();
            let mut out = Vec::with_capacity(chunk.len());
            for (j, problem) in chunk.iter().enumerate() {
                let solution = optimizer
                    .run_with_scratch(problem, initial, &mut scratch, &mut NoopRecorder)
                    .map_err(|e| RuntimeError::Drift { epoch: offset + j, reason: e.to_string() })?;
                out.push((solution.allocation, solution.final_utility));
            }
            Ok::<_, RuntimeError>(out)
        };
        if threads <= 1 {
            return solve_chunk(problems, 0);
        }
        let chunk_len = problems.len().div_ceil(threads);
        let chunks: Vec<&[SingleFileProblem]> = problems.chunks(chunk_len).collect();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(c, chunk)| scope.spawn(move || solve_chunk(chunk, c * chunk_len)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect::<Vec<_>>()
        });
        let mut merged = Vec::with_capacity(problems.len());
        for r in results {
            merged.extend(r?);
        }
        Ok(merged)
    }
}

/// Re-exported so daemon/CLI layers can compute movement without pulling
/// `fap-econ` directly.
pub use fap_econ::tracking::l1_distance as movement_l1;

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::topology;
    use fap_obs::Telemetry;

    fn ring() -> Graph {
        topology::ring(6, 1.0).unwrap()
    }

    fn config(scenario: DriftScenario) -> DriftConfig {
        DriftConfig { scenario, epochs: 12, max_iterations: 60_000, ..DriftConfig::default() }
    }

    #[test]
    fn trajectories_are_deterministic_and_positive() {
        let c = config(DriftScenario::Diurnal { period: 8, amplitude: 0.5 });
        for t in 0..20 {
            let a = c.rates_at(t, 6);
            let b = c.rates_at(t, 6);
            assert_eq!(a, b);
            assert!(a.iter().all(|r| *r > 0.0));
        }
        // Different seeds drift differently.
        let mut other = c.clone();
        other.seed += 1;
        assert_ne!(c.rates_at(3, 6), other.rates_at(3, 6));
    }

    #[test]
    fn diurnal_rates_cycle() {
        let c = config(DriftScenario::Diurnal { period: 8, amplitude: 0.5 });
        assert_eq!(c.rates_at(0, 6), c.rates_at(8, 6));
        assert_ne!(c.rates_at(0, 6), c.rates_at(4, 6));
    }

    #[test]
    fn step_changes_only_the_top_half_from_the_step_epoch() {
        let c = config(DriftScenario::Step { at: 5, factor: 2.0 });
        let before = c.rates_at(4, 6);
        let after = c.rates_at(5, 6);
        for i in 0..3 {
            assert_eq!(before[i], after[i], "bottom half unchanged");
        }
        for i in 3..6 {
            assert!((after[i] - 2.0 * before[i]).abs() < 1e-12, "top half doubled");
        }
    }

    #[test]
    fn flash_crowd_decays_back_toward_base() {
        let c = config(DriftScenario::FlashCrowd { at: 2, factor: 5.0, half_life: 2 });
        let base = c.rates_at(0, 6);
        let peak = c.rates_at(2, 6);
        let later = c.rates_at(12, 6);
        let hot = (0..6).max_by(|&a, &b| (peak[a] / base[a]).total_cmp(&(peak[b] / base[b]))).unwrap();
        assert!((peak[hot] / base[hot] - 5.0).abs() < 1e-12);
        let cooled = later[hot] / base[hot];
        assert!(cooled > 1.0 && cooled < 1.5, "decayed to {cooled}");
    }

    #[test]
    fn node_churn_suppresses_one_node_demand() {
        let c = config(DriftScenario::NodeChurn { leave: 3, rejoin: 7 });
        let before = c.rates_at(2, 6);
        let during = c.rates_at(5, 6);
        let after = c.rates_at(7, 6);
        let churner = (0..6).min_by(|&a, &b| during[a].total_cmp(&during[b])).unwrap();
        assert!(during[churner] < 1e-5);
        assert_eq!(before, after, "demand returns exactly");
        assert!(before[churner] > 0.1);
    }

    #[test]
    fn tracked_regret_beats_static_regret_on_diurnal_drift() {
        let run = DriftRun::new(&ring(), config(DriftScenario::Diurnal { period: 6, amplitude: 0.6 }))
            .unwrap();
        let report = run.run(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        assert_eq!(report.epochs.len(), 12);
        assert!(!report.epochs[0].warm && report.epochs[1].warm);
        // The tracker follows the drift; holding the epoch-0 optimum does not.
        assert!(report.static_regret > 0.0);
        assert!(
            report.regret_ratio() <= 0.1,
            "tracked regret {} vs static {}",
            report.tracked_regret,
            report.static_regret
        );
        assert!(report.total_movement > 0.0);
        assert!(report.total_copies > 0);
    }

    #[test]
    fn reports_are_bit_identical_across_thread_counts() {
        let run = DriftRun::new(&ring(), config(DriftScenario::Diurnal { period: 6, amplitude: 0.6 }))
            .unwrap();
        let sequential = run.run(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel = run.run(Parallelism::Fixed(threads), &mut NoopRecorder).unwrap();
            assert_eq!(sequential, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn hysteresis_reduces_movement_at_bounded_regret_cost() {
        let base = config(DriftScenario::Diurnal { period: 6, amplitude: 0.6 });
        let mut eager = base.clone();
        eager.hysteresis = 0.0;
        let run_with = |c: DriftConfig| {
            DriftRun::new(&ring(), c).unwrap().run(Parallelism::Sequential, &mut NoopRecorder)
                .unwrap()
        };
        let damped = run_with(base);
        let free = run_with(eager);
        assert!(
            damped.total_movement < free.total_movement,
            "hysteresis must reduce movement: {} vs {}",
            damped.total_movement,
            free.total_movement
        );
    }

    #[test]
    fn migration_plans_respect_bandwidth() {
        let mut c = config(DriftScenario::Step { at: 3, factor: 3.0 });
        c.migration_bandwidth = 0.05;
        let run = DriftRun::new(&ring(), c).unwrap();
        let report = run.run(Parallelism::Sequential, &mut NoopRecorder).unwrap();
        // The step epoch needs multiple bounded rounds.
        let step_epoch = &report.epochs[3];
        if step_epoch.movement > 0.05 {
            assert!(step_epoch.migration_rounds >= 2);
        }
        assert!(report.total_rounds >= report.epochs.iter().filter(|e| e.movement > 1e-9).count());
    }

    #[test]
    fn telemetry_records_epochs_and_spans() {
        let run = DriftRun::new(&ring(), config(DriftScenario::Diurnal { period: 6, amplitude: 0.6 }))
            .unwrap();
        let mut telemetry = Telemetry::manual().with_tracing(true);
        let report = run.run(Parallelism::Sequential, &mut telemetry).unwrap();
        // Recording, spans included, never changes the report.
        assert_eq!(report, run.run(Parallelism::Sequential, &mut NoopRecorder).unwrap());
        let metrics = telemetry.registry();
        assert_eq!(metrics.counter("track.epochs"), report.epochs.len() as u64);
        assert_eq!(metrics.counter("track.warm_epochs"), report.epochs.len() as u64 - 1);
        assert!(metrics.counter("track.copies_scheduled") > 0);
        assert_eq!(metrics.gauge_value("track.regret"), Some(report.tracked_regret));
    }

    #[test]
    fn presets_cover_every_label_and_roundtrip() {
        for label in ["diurnal", "flash-crowd", "step", "node-churn"] {
            let scenario = DriftScenario::preset(label, 24).unwrap();
            assert_eq!(scenario.label(), label);
        }
        assert!(DriftScenario::preset("teleport", 24).is_none());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = config(DriftScenario::Step { at: 1, factor: 2.0 });
        c.epochs = 0;
        assert!(DriftRun::new(&ring(), c).is_err());
        let mut c = config(DriftScenario::Step { at: 1, factor: 2.0 });
        c.alpha = 0.0;
        assert!(DriftRun::new(&ring(), c).is_err());
        let mut c = config(DriftScenario::Step { at: 1, factor: 2.0 });
        c.migration_bandwidth = -1.0;
        assert!(DriftRun::new(&ring(), c).is_err());
    }
}
