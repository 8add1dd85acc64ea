//! Quickstart: the paper's §6 experiment end to end.
//!
//! Builds the four-node ring of Figure 2, runs the decentralized
//! resource-directed algorithm from the paper's starting allocation, and
//! prints the convergence profile of Figure 3.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The network: a 4-node ring with unit link costs (paper Figure 2).
    let graph = topology::ring(4, 1.0)?;
    // Every node generates accesses; λ = 1 in total, split evenly.
    let pattern = AccessPattern::uniform(4, 1.0)?;
    // M/M/1 nodes with μ = 1.5; delay weighted by k = 1 (paper §6).
    let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;

    // The decentralized iteration: α = 0.19, ε = 0.001 (one of the
    // Figure-3 curves), starting from the paper's (0.8, 0.1, 0.1, 0.0).
    let solution = ResourceDirectedOptimizer::new(StepSize::Fixed(0.19))
        .with_boundary(BoundaryRule::Unconstrained)
        .with_epsilon(1e-3)
        .run(&problem, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)?;

    println!("converged: {} after {} iterations", solution.converged, solution.iterations);
    println!("cost per iteration (the Figure-3 convergence profile):");
    for record in solution.trace.records() {
        println!("  iteration {:>3}: cost {:.6}", record.iteration, record.cost());
    }
    println!("final allocation: {:?}", solution.allocation);
    println!("final cost: {:.6} (optimum: 1.8)", solution.final_cost());

    // Cross-check against the centralized closed-form solver.
    let exact = reference::solve(&problem)?;
    println!("water-filling reference cost: {:.6}", exact.cost);
    assert!((solution.final_cost() - exact.cost).abs() < 1e-3);
    Ok(())
}
