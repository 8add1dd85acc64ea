//! Multiple copies on a virtual ring (paper §7).
//!
//! Allocates m = 2 copies of a file around a four-node virtual ring, first
//! on the oscillation-prone communication-dominated ring with link costs
//! (4, 1, 1, 1), then shows the paper's §7.3 remedy: adaptive step decay
//! plus cost-delta halting.
//!
//! ```text
//! cargo run --example multicopy_ring
//! ```

use fap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // §7.3: four-node ring, two copies, λ_i = 0.25, μ = 1.5, k = 1.
    let ring = VirtualRing::new(
        vec![4.0, 1.0, 1.0, 1.0], // one expensive link: communication dominates
        vec![0.25; 4],
        vec![1.5; 4],
        2.0,
        1.0,
    )?;
    let start = [2.0, 0.0, 0.0, 0.0];

    println!("fixed alpha = 0.1 (no adaptation) — the Figure 8 oscillation:");
    let fixed = fap::ring::RingSolver::new(0.1)
        .without_adaptation()
        .with_max_iterations(60)
        .solve(&ring, &start, &mut NoopRecorder)?;
    for (i, cost) in fixed.cost_series.iter().enumerate().take(30) {
        println!("  iteration {i:>2}: cost {cost:.4}");
    }
    println!("  oscillation amplitude: {:.4}", fixed.oscillation_amplitude());

    println!("\nadaptive step decay — the paper's remedy:");
    let adaptive =
        RingSolver::new(0.1).with_max_iterations(3_000).solve(&ring, &start, &mut NoopRecorder)?;
    println!(
        "  halted={} after {} iterations; alpha decayed {:.3} -> {:.4}",
        adaptive.converged,
        adaptive.iterations,
        adaptive.alpha_series.first().unwrap(),
        adaptive.alpha_series.last().unwrap()
    );
    println!("  best cost {:.4} at allocation {:?}", adaptive.best_cost, rounded(&adaptive.best_allocation));

    // Note §7.2: a node may hold more than one whole copy if that is
    // cheapest; nothing constrains x_i ≤ 1 during optimization.
    let total: f64 = adaptive.best_allocation.iter().sum();
    println!("  total file in system: {total:.4} (= m = 2 copies)");
    Ok(())
}

fn rounded(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| (v * 1000.0).round() / 1000.0).collect()
}
