//! Per-point probe for the sparse sweep: runs [`fap_bench::scale::bench_sparse`]
//! — the exact gated bench path, including the ≤5% utility-gap and 1 GiB
//! substrate assertions — one `N` at a time, so a slow or failing point can
//! be attributed without waiting for the full `fap bench scale` grid.
//!
//! ```text
//! cargo run --release -p fap-bench --example sparse_probe -- 16384 65536
//! ```

use fap_bench::scale::bench_sparse;

fn main() {
    let ns: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("usage: sparse_probe <N>..."))
        .collect();
    for &n in if ns.is_empty() { &[4096usize][..] } else { &ns } {
        let p = &bench_sparse(&[n])[0];
        let gap = p.gap.map_or("n/a".into(), |g| format!("{:.4}%", g * 100.0));
        println!(
            "N={:<7} K={:<3} build {:>9.1} ms  solve {:>9.1} ms  refine {}  gap {gap}  {:.1} MiB",
            p.n,
            p.landmarks,
            p.build_ms,
            p.solve_ms,
            p.refine_rounds,
            p.provider_bytes as f64 / (1 << 20) as f64,
        );
    }
}
