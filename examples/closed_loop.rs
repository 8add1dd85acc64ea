//! The full adaptive loop the paper envisions (§8): nobody hands the
//! system a λ-vector. Each epoch, the nodes *observe* their own access
//! traffic, a rolling estimator turns the observations into rate estimates,
//! the decentralized algorithm re-optimizes from the currently deployed
//! allocation, and the discrete-event simulator measures what the users
//! actually experience — before and after the workload shifts.
//!
//! ```text
//! cargo run --release --example closed_loop
//! ```

use fap::net::estimate::{AccessEvent, RollingEstimator};
use fap::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const WINDOW: f64 = 2_000.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 6;
    let graph = topology::ring(n, 1.0)?;
    let costs = graph.shortest_path_matrix(Parallelism::Sequential, &mut NoopRecorder)?;
    let mut rng = StdRng::seed_from_u64(17);

    let mut estimator = RollingEstimator::new(n, WINDOW, 0.5)?;
    let mut allocator =
        AdaptiveAllocator::new(&graph, 1.5, 1.0, StepSize::Fixed(0.1))?.with_epsilon(1e-6);

    // The *true* workload, unknown to the system: uniform for 4 epochs,
    // then node 4 turns hot.
    let phases: [(usize, AccessPattern); 2] = [
        (4, AccessPattern::uniform(n, 1.0)?),
        (5, AccessPattern::hotspot(n, 1.0, NodeId::new(4), 0.6)?),
    ];

    let mut epoch = 0usize;
    for (epochs, truth) in &phases {
        println!("--- true workload: {:?}", rounded(truth.rates()));
        for _ in 0..*epochs {
            epoch += 1;
            // 1. Nodes observe their own traffic for one window.
            let events = sample_window(truth, &mut rng);

            // 2. The estimator updates the λ estimate.
            let estimate = estimator
                .observe_window(&events)?
                .expect("traffic was observed");

            // 3. The allocator re-optimizes from the deployed allocation.
            allocator.observe(estimate.clone())?;
            let solution = allocator.reoptimize(10_000)?;

            // 4. Deploy and measure against the *true* workload.
            let report = NetworkSimulation::new(
                allocator.allocation().to_vec(),
                truth.clone(),
                costs.clone(),
                ServiceDistribution::exponential(1.5)?,
            )?
            .with_duration(20_000.0)
            .with_seed(epoch as u64)
            .run()?;

            println!(
                "epoch {epoch}: est λ = {:?}  ->  measured cost {:.4} (model {:.4}, {} iters)",
                rounded(estimate.rates()),
                report.mean_total_cost(1.0),
                solution.final_cost(),
                solution.iterations,
            );
        }
    }

    // After the shift, the hot node's neighborhood holds the bulk of the
    // file — learned purely from observed traffic.
    let x = allocator.allocation();
    println!("final allocation: {:?}", rounded(x));
    assert!(x[4] > 1.0 / n as f64, "hot node should hold an above-average share");
    Ok(())
}

/// Draws one observation window of Poisson access events under `truth`.
fn sample_window(truth: &AccessPattern, rng: &mut StdRng) -> Vec<AccessEvent> {
    let mut events = Vec::new();
    for i in 0..truth.node_count() {
        let rate = truth.rate(NodeId::new(i));
        if rate <= 0.0 {
            continue;
        }
        let mut t = 0.0;
        loop {
            let u: f64 = rng.random_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            if t >= WINDOW {
                break;
            }
            events.push(AccessEvent { source: NodeId::new(i), time: t });
        }
    }
    events
}

fn rounded(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| (v * 1000.0).round() / 1000.0).collect()
}
