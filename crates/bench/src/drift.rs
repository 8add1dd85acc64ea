//! The drift benchmark: the online-reallocation control loop over every
//! scenario preset, hard-gated on its two contracts.
//!
//! For each scenario [`bench_drift`] runs the seeded [`DriftRun`] once
//! sequentially (timed) and once per thread count in the grid, asserting
//! the reports are bit-identical — the tracker's determinism contract.
//! The diurnal point additionally asserts the regret gate ([`REGRET_GATE`]):
//! tracked regret at most 10% of the static-allocation regret. Results
//! serialize to the `BENCH_drift.json` schema committed at the repo root;
//! regenerate with `fap bench drift` (prefer `--release`).
//! `fap bench drift --check` re-runs the committed grid through
//! [`crate::check`]: regret bits, virtual counts and the regret gate are
//! hard failures, host CPU count and wall-clock drift only advisories.

use std::fmt::Write as _;

use fap_batch::Parallelism;
use fap_net::topology;
use fap_obs::NoopRecorder;
use fap_runtime::{DriftConfig, DriftReport, DriftRun, DriftScenario};
use serde::{Deserialize, Serialize};

use crate::gate::{Field, Point, Suite};
use crate::{host_threads, time_ms};

/// The regret gate: tracked regret must stay within this fraction of the
/// static-allocation regret on the diurnal scenario.
pub const REGRET_GATE: f64 = 0.1;

/// One scenario's measured run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftPoint {
    /// Scenario label ([`DriftScenario::label`]).
    pub scenario: String,
    /// `Σ_t max(0, u*_t − u_tracked_t)` over the run.
    pub tracked_regret: f64,
    /// `Σ_t max(0, u*_t − u_static_t)` over the run.
    pub static_regret: f64,
    /// `tracked_regret / static_regret`.
    pub regret_ratio: f64,
    /// Total fragment mass the tracker moved.
    pub total_movement: f64,
    /// Total copy steps the migration planner scheduled.
    pub total_copies: usize,
    /// Total bandwidth-bounded migration rounds scheduled.
    pub total_rounds: usize,
    /// Total re-solve iterations across all epochs (virtual count).
    pub iterations: u64,
    /// Epochs that re-solved warm (all but the first).
    pub warm_epochs: usize,
    /// A content checksum over the report (regrets, movement, final
    /// allocation and per-epoch utilities), equal at every thread count.
    pub checksum: f64,
    /// Sequential wall clock, milliseconds. Machine-dependent — advisory.
    pub run_ms: f64,
}

/// The full drift benchmark report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftBenchReport {
    /// Logical CPUs of the recording host
    /// (`std::thread::available_parallelism()`).
    pub host_threads: usize,
    /// Ring size the scenarios run on.
    pub nodes: usize,
    /// Epochs per scenario.
    pub epochs: usize,
    /// Trajectory seed.
    pub seed: u64,
    /// The scenario labels, in run order.
    pub scenarios: Vec<String>,
    /// Thread counts each run was re-checked at for bit-identity.
    pub thread_grid: Vec<usize>,
    /// One point per scenario.
    pub points: Vec<DriftPoint>,
}

/// The benchmark's [`DriftConfig`] for a scenario preset: the library
/// defaults with the grid's epoch count and seed, and an iteration cap
/// sized for the small ring.
///
/// # Panics
///
/// Panics on an unknown scenario label (the grids are fixed).
pub fn drift_config(label: &str, epochs: usize, seed: u64) -> DriftConfig {
    let scenario = DriftScenario::preset(label, epochs)
        .unwrap_or_else(|| panic!("unknown drift scenario '{label}'"));
    DriftConfig { scenario, epochs, seed, max_iterations: 60_000, ..DriftConfig::default() }
}

fn checksum_report(report: &DriftReport) -> f64 {
    report.tracked_regret
        + report.static_regret
        + report.total_movement
        + report.final_allocation.iter().sum::<f64>()
        + report.epochs.iter().map(|e| e.tracked_utility + e.movement).sum::<f64>()
}

/// Runs the sweep: each scenario once sequentially (timed), then once per
/// thread count asserting the report is bit-identical.
///
/// # Panics
///
/// Panics if any threaded report differs bitwise from the sequential one,
/// or if the diurnal point misses the [`REGRET_GATE`] — the tracker's two
/// contracts.
pub fn bench_drift(
    scenarios: &[String],
    nodes: usize,
    epochs: usize,
    seed: u64,
    thread_grid: &[usize],
) -> DriftBenchReport {
    let graph = topology::ring(nodes, 1.0).expect("valid ring");
    let mut points = Vec::with_capacity(scenarios.len());
    for label in scenarios {
        let run = DriftRun::new(&graph, drift_config(label, epochs, seed))
            .expect("valid drift config");
        let (run_ms, sequential) = time_ms(|| run.run(Parallelism::Sequential, &mut NoopRecorder));
        let sequential = sequential.expect("the benchmark trajectory must solve cleanly");
        for &threads in thread_grid {
            let parallel = run.run(Parallelism::Fixed(threads), &mut NoopRecorder)
                .expect("threaded run must succeed");
            assert_eq!(
                sequential, parallel,
                "drift report diverged at scenario = {label}, threads = {threads}"
            );
        }
        let point = DriftPoint {
            scenario: label.clone(),
            tracked_regret: sequential.tracked_regret,
            static_regret: sequential.static_regret,
            regret_ratio: sequential.regret_ratio(),
            total_movement: sequential.total_movement,
            total_copies: sequential.total_copies,
            total_rounds: sequential.total_rounds,
            iterations: sequential.epochs.iter().map(|e| e.iterations as u64).sum(),
            warm_epochs: sequential.epochs.iter().filter(|e| e.warm).count(),
            checksum: checksum_report(&sequential),
            run_ms,
        };
        if label == "diurnal" {
            assert!(
                point.regret_ratio <= REGRET_GATE,
                "diurnal regret ratio {} exceeds the {REGRET_GATE} gate \
                 (tracked {} vs static {})",
                point.regret_ratio,
                point.tracked_regret,
                point.static_regret
            );
        }
        points.push(point);
    }
    DriftBenchReport {
        host_threads: host_threads(),
        nodes,
        epochs,
        seed,
        scenarios: scenarios.to_vec(),
        thread_grid: thread_grid.to_vec(),
        points,
    }
}

impl Suite for DriftBenchReport {
    const NAME: &'static str = "drift";

    fn default_grid() -> Self {
        DriftBenchReport {
            nodes: 8,
            epochs: 24,
            seed: 7,
            scenarios: ["diurnal", "flash-crowd", "step", "node-churn"].map(String::from).to_vec(),
            thread_grid: vec![2, 4],
            ..Self::default()
        }
    }

    fn run(&self) -> Self {
        bench_drift(&self.scenarios, self.nodes, self.epochs, self.seed, &self.thread_grid)
    }

    fn grid(&self) -> String {
        format!(
            "{} nodes × {} epochs, seed {}, scenarios {:?}, threads {:?}",
            self.nodes, self.epochs, self.seed, self.scenarios, self.thread_grid
        )
    }

    /// The control loop is deterministic on any machine: regret and
    /// checksum bits and the virtual counts are exact, and the diurnal
    /// point's regret ratio stays under [`REGRET_GATE`].
    fn points(&self) -> Vec<Point> {
        let host = Point {
            id: "host".into(),
            fields: vec![Field::drift("host_threads", self.host_threads as f64)],
        };
        let scenarios = self.points.iter().map(|p| {
            let mut fields = vec![
                Field::exact("tracked_regret", p.tracked_regret),
                Field::exact("static_regret", p.static_regret),
                Field::exact("checksum", p.checksum),
                Field::exact("iterations", p.iterations as f64),
                Field::exact("total_copies", p.total_copies as f64),
                Field::exact("total_rounds", p.total_rounds as f64),
                Field::exact("warm_epochs", p.warm_epochs as f64),
                Field::timing("run_ms", p.run_ms),
            ];
            if p.scenario == "diurnal" {
                fields.push(Field::ceiling("regret_ratio", p.regret_ratio, REGRET_GATE));
            }
            Point { id: format!("scenario={}", p.scenario), fields }
        });
        std::iter::once(host).chain(scenarios).collect()
    }

    fn summary(&self) -> String {
        let mut out = format!(
            "{} host CPUs; {} scenario points ({} nodes, {} epochs)\n",
            self.host_threads,
            self.points.len(),
            self.nodes,
            self.epochs
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "  {:<12} regret {:>10.6} vs static {:>10.6} (ratio {:>7.4})  \
                 moved {:>7.4} in {:>3} copies / {:>3} rounds  {:>8.2} ms",
                p.scenario,
                p.tracked_regret,
                p.static_regret,
                p.regret_ratio,
                p.total_movement,
                p.total_copies,
                p.total_rounds,
                p.run_ms
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> DriftBenchReport {
        bench_drift(&DriftBenchReport::default_grid().scenarios, 6, 12, 7, &[2, 3])
    }

    #[test]
    fn the_sweep_covers_every_preset_gates_diurnal_and_reruns_clean() {
        let report = small_grid();
        assert_eq!(report.points.len(), 4);
        let diurnal = &report.points[0];
        assert_eq!(diurnal.scenario, "diurnal");
        assert!(diurnal.regret_ratio <= REGRET_GATE);
        for p in &report.points {
            assert!(p.checksum.is_finite());
            assert!(p.iterations > 0);
            assert_eq!(p.warm_epochs, report.epochs - 1, "all but epoch 0 run warm");
        }
        let outcome = crate::check(&report, &report.run());
        assert!(outcome.is_pass(), "failures: {:?}", outcome.hard_failures);
    }
}
