//! Observability: recording a solve, a chaos run and a parallel kernel.
//!
//! Every entry point takes its recorder as the last argument. Here one
//! [`Telemetry`] sink per run collects everything the run emits —
//! counters, gauges, histograms and the structured event stream — and
//! exports it as JSONL (the format `fap report` digests) or as a
//! human-readable summary table; passing `&mut NoopRecorder` instead
//! records nothing and returns the same bits. Everything here runs on
//! virtual time (iterations and rounds), so rerunning this example prints
//! byte-identical telemetry.
//!
//! ```text
//! cargo run --example observability
//! ```

use fap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The §6 solve, observed. The optimizer emits one `iter` event per
    //    iteration (utility, marginal spread, gradient and step norms) and
    //    maintains the `econ.*` counters and histograms.
    let graph = fap::net::topology::ring(4, 1.0)?;
    let pattern = AccessPattern::uniform(4, 1.0)?;
    let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;

    let mut solver_telemetry = Telemetry::manual();
    let solution = ResourceDirectedOptimizer::new(StepSize::Fixed(0.19))
        .with_epsilon(1e-3)
        .run(&problem, &[0.8, 0.1, 0.1, 0.0], &mut solver_telemetry)?;
    println!("solver: converged = {} after {} iterations", solution.converged, solution.iterations);
    println!("{}", solver_telemetry.summary());

    // 2. The same protocol under a seeded fault plan. Fault counters, the
    //    round-latency histogram and per-fault events all land in the sink;
    //    the report's own fault summary is derived from the same stream.
    let plan = ChaosPlan::new(42).with_drop(0.2).with_delay(0.2, 3).with_retries(1);
    let mut sim_telemetry = Telemetry::manual();
    let report = SimRun::new(&problem, ExchangeScheme::Broadcast, 0.19)
        .with_epsilon(1e-3)
        .with_chaos(plan)
        .run(&[0.8, 0.1, 0.1, 0.0], &mut sim_telemetry)?;
    println!(
        "sim: converged = {} after {} rounds, {} reports dropped",
        report.converged, report.rounds, report.faults.dropped
    );
    println!("{}", sim_telemetry.summary());

    // 3. A parallel kernel with chunk timing. Wall-clock measurements only
    //    happen because this recorder is enabled — with a `NoopRecorder`
    //    not even `Instant::now` is called.
    let big = fap::net::topology::torus(6, 8, 1.0)?;
    let mut kernel_telemetry = Telemetry::wall();
    let matrix = big.shortest_path_matrix(Parallelism::Auto, &mut kernel_telemetry)?;
    println!(
        "kernel: {}×{} cost matrix over {:?} threads",
        big.node_count(),
        big.node_count(),
        kernel_telemetry.registry().gauge_value("net.fanout_threads").unwrap_or(1.0)
    );
    let chunks = kernel_telemetry.registry().histogram("net.dijkstra_chunk_ns");
    if let Some(chunks) = chunks {
        println!("  {} chunks, mean {:.0} ns", chunks.count(), chunks.mean());
    }
    assert!(matrix.as_matrix().as_slice().iter().all(|c| c.is_finite()));

    // 4. The JSONL export — what `fap solve --metrics-out` writes and
    //    `fap report` reads. Deterministic for the seeded runs above.
    let jsonl = sim_telemetry.to_jsonl();
    let first_lines: Vec<&str> = jsonl.lines().take(3).collect();
    println!("first 3 of {} JSONL lines:", jsonl.lines().count());
    for line in first_lines {
        println!("  {line}");
    }
    Ok(())
}
