//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sparse-solve|serve-steady|serve-drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The serve workloads draw their rates from
//! `--seed`; `sparse-solve` solves one fixed instance. The run measures
//! for about `--seconds`, checks every output, prints a
//! table of every metric (unit, sample count, what it should move) and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics `BENCHMARK.json` tracks — the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. A traced run also
//! writes its spans to `.bench_build/spans/<workload>-<seed>.jsonl`.
//! The exit code is 0 only when every correctness check passed.

mod report;
mod serve;
mod spans;
mod sparse;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Kind;
use spans::SpanLog;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy)]
enum Workload {
    SparseSolve,
    ServeSteady,
    ServeDrift,
}

impl Workload {
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "sparse-solve" => Ok(Workload::SparseSolve),
            "serve-steady" => Ok(Workload::ServeSteady),
            "serve-drift" => Ok(Workload::ServeDrift),
            other => Err(format!(
                "unknown workload '{other}' (expected sparse-solve, serve-steady or serve-drift)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SparseSolve => "sparse-solve",
            Workload::ServeSteady => "serve-steady",
            Workload::ServeDrift => "serve-drift",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` when a correctness check failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let (end_to_end, per_layer) = report::tracked_metrics("BENCHMARK.json")?;
    let (calib_ms, calib_reps) = stats::calibrate();
    let mut spans = SpanLog::new(args.trace);
    let mut outcome = match args.workload {
        Workload::SparseSolve => sparse::run(args.seconds, args.trace, &mut spans),
        Workload::ServeSteady => serve::run(
            serve::Mix::Steady,
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        ),
        Workload::ServeDrift => serve::run(
            serve::Mix::Drift,
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        ),
    };
    outcome.put("host.calib_ms", calib_ms, calib_reps);
    if args.trace {
        let path = PathBuf::from(format!(
            ".bench_build/spans/{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        spans.write_jsonl(&path)?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
    }
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    print!("{}", outcome.table(args.workload.name(), kind));
    let tracked = if args.trace { &per_layer } else { &end_to_end };
    println!("{}", outcome.json_line(tracked)?);
    Ok(outcome.correct())
}
