//! The `fap` command-line tool.
//!
//! ```text
//! fap solve <scenario.json>              solve and print the allocation
//! fap simulate <scenario.json>           solve, then measure with the DES
//! fap sim <scenario.json> [chaos.json]   run the protocol under faults
//! fap serve <requests.json> [--shards N] [--warm-start] [--oracle-update]
//!                                        batch-solve a request list, sharded
//! fap served [--servers C] [--warm MODE] [--admission-bound W] ...
//!                                        persistent daemon (JSONL on stdin,
//!                                        or --socket <path> on Unix; a
//!                                        {"cmd":"drift"} line runs the
//!                                        tracking loop in-session)
//! fap track [--drift-scenario S] ...     online reallocation under drift:
//!                                        per-epoch regret vs clairvoyant
//!                                        and static baselines
//! fap serve-example                      print a template request list
//! fap report <metrics.jsonl>             summarize an exported metrics file
//! fap report --json <metrics.jsonl>      the summary as one JSON object
//! fap report --diff <a.jsonl> <b.jsonl>  compare two metrics files
//! fap trace <metrics.jsonl> [--top k]    span trees, critical paths, self time
//! fap trace --folded <metrics.jsonl>     folded stacks for flamegraph.pl
//! fap trace --diff <a.jsonl> <b.jsonl>   per-layer self-time deltas
//! fap sweep-k <scenario.json> <k,k,...>  the §8.2 k trade-off
//! fap bench <scale|serve|drift> [out]    measure a grid into BENCH_<suite>.json
//! fap bench <suite> --check [committed]  re-run the committed grid and gate it
//! fap example                            print a template scenario
//! fap chaos-example                      print a template fault plan
//! ```
//!
//! `solve`, `sim`, `serve`, `served` and `track` accept
//! `--metrics-out <path.jsonl>`
//! to export the run's telemetry and `--metrics-summary` to print the
//! metrics table. By default the export is buffered in memory and written
//! at the end; `--metrics-flush-every <N>` streams it instead, flushing to
//! the file every `N` events (bounded memory on long runs, byte-identical
//! output). Telemetry runs on virtual time (iterations/rounds), so two
//! runs of the same seeded scenario export byte-identical JSONL.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;

use fap_bench::{drift::DriftBenchReport, scale::ScaleReport, serve::ServeReport, Suite};
use fap_cli::{chaos_sim, simulate, solve, summarize, sweep_k, Scenario};
use fap_obs::{JsonlSink, Recorder, Telemetry};
use fap_runtime::ChaosPlan;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fap solve <scenario.json> [--metrics-out <path.jsonl>] [--metrics-summary]
  fap simulate <scenario.json>
  fap sim <scenario.json> [chaos.json] [--metrics-out <path.jsonl>] [--metrics-summary]
  fap serve <requests.json> [--shards <n>] [--warm-start] [--oracle-update] [--metrics-out <path.jsonl>] [--metrics-summary]
  fap served [--shards <n>] [--servers <c>] [--warm off|batch|session]
             [--admission-bound <ticks>] [--warmup <n>] [--admission-window <n>]
             [--cache-bytes <n>] [--wall-clock] [--oracle-update]
             [--socket <path>] [metrics flags]
  fap track [--drift-scenario diurnal|flash-crowd|step|node-churn] [--nodes <n>]
            [--epochs <n>] [--seed <s>] [--hysteresis <eta>] [--smoothing <mu>]
            [--migration-bandwidth <b>] [--threads <n>] [--json] [metrics flags]
  fap serve-example
  fap report <metrics.jsonl>
  fap report --json <metrics.jsonl>
  fap report --diff <a.jsonl> <b.jsonl>
  fap trace <metrics.jsonl> [--top <k>]
  fap trace --folded <metrics.jsonl>
  fap trace --diff <a.jsonl> <b.jsonl>
  fap sweep-k <scenario.json> <k1,k2,...>
  fap bench scale [--check] [BENCH_scale.json] [--sparse-max-n <n>]
  fap bench serve|drift [--check] [BENCH_<suite>.json]
  fap example
  fap chaos-example

metrics flags also accept --metrics-flush-every <n> to stream the export
(requires --metrics-out; flushes every n events instead of buffering)

solve, sim and serve also accept cost-substrate flags:
  --cost-backend dense|landmark   exact n^2 matrix (default) or the sparse
                                  landmark oracle (scales past the dense
                                  element budget)
  --landmarks <k>                 landmark count K (implies landmark backend)
  --landmark-seed <s>             farthest-point selection seed

serve and served also accept --oracle-update: repair cached landmark
oracles across small topology edits (edge re-price, node join/leave)
instead of rebuilding them";

/// Telemetry flags shared by `solve`/`sim`/`serve`.
#[derive(Debug, Default)]
struct MetricsOptions {
    out: Option<String>,
    summary: bool,
    flush_every: Option<usize>,
}

/// The recorder a command writes into: buffered [`Telemetry`] by default,
/// or a streaming [`JsonlSink`] under `--metrics-flush-every`.
enum MetricsSink {
    Buffered(Telemetry),
    Streaming(JsonlSink<BufWriter<File>>),
}

impl MetricsSink {
    fn recorder(&mut self) -> &mut dyn Recorder {
        match self {
            MetricsSink::Buffered(telemetry) => telemetry,
            MetricsSink::Streaming(sink) => sink,
        }
    }
}

impl MetricsOptions {
    fn requested(&self) -> bool {
        self.out.is_some() || self.summary || self.flush_every.is_some()
    }

    /// Opens the recorder the flags ask for. The streaming sink opens its
    /// output file up front, so a bad path fails before the run starts.
    fn sink(&self) -> Result<MetricsSink, String> {
        match self.flush_every {
            Some(n) => {
                let path = self
                    .out
                    .as_ref()
                    .ok_or("--metrics-flush-every requires --metrics-out")?;
                let file =
                    File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                Ok(MetricsSink::Streaming(JsonlSink::new(BufWriter::new(file), n)))
            }
            None => Ok(MetricsSink::Buffered(Telemetry::manual())),
        }
    }

    /// Exports and/or prints the recorded telemetry as the flags
    /// requested. Both paths produce byte-identical JSONL; the streaming
    /// one has already written its event lines and only appends the
    /// registry trailer here.
    fn finish(&self, sink: MetricsSink) -> Result<(), String> {
        match sink {
            MetricsSink::Buffered(telemetry) => {
                if let Some(path) = &self.out {
                    std::fs::write(path, telemetry.to_jsonl())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                }
                if self.summary {
                    print!("{}", telemetry.summary());
                }
            }
            MetricsSink::Streaming(streaming) => {
                if self.summary {
                    print!("{}", streaming.summary());
                }
                let path = self.out.as_deref().unwrap_or_default();
                streaming.finish().map_err(|e| format!("writing {path}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Splits `--cost-backend` / `--landmarks` / `--landmark-seed` out of the
/// raw argument list. `--landmarks`/`--landmark-seed` imply the landmark
/// backend; combining them with an explicit `--cost-backend dense` is an
/// error.
fn extract_backend_flags(
    args: &[String],
) -> Result<(Vec<String>, Option<fap_cache::CostBackend>), String> {
    let mut positional = Vec::new();
    let mut kind: Option<String> = None;
    let mut landmarks: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cost-backend" => {
                let k = iter.next().ok_or("--cost-backend requires dense|landmark")?;
                kind = Some(k.clone());
            }
            "--landmarks" => {
                let k = iter.next().ok_or("--landmarks requires a count")?;
                let k: usize =
                    k.parse().map_err(|e| format!("bad landmark count '{k}': {e}"))?;
                if k == 0 {
                    return Err("--landmarks must be at least 1".into());
                }
                landmarks = Some(k);
            }
            "--landmark-seed" => {
                let s = iter.next().ok_or("--landmark-seed requires a seed")?;
                seed = Some(s.parse().map_err(|e| format!("bad landmark seed '{s}': {e}"))?);
            }
            _ => positional.push(arg.clone()),
        }
    }
    let sparse = || fap_cache::CostBackend::Landmark {
        landmarks: landmarks.unwrap_or(fap_cache::DEFAULT_LANDMARKS),
        seed: seed.unwrap_or(fap_cache::DEFAULT_LANDMARK_SEED),
    };
    let backend = match kind.as_deref() {
        None if landmarks.is_some() || seed.is_some() => Some(sparse()),
        None => None,
        Some("landmark") => Some(sparse()),
        Some("dense") => {
            if landmarks.is_some() || seed.is_some() {
                return Err("--landmarks/--landmark-seed require the landmark backend".into());
            }
            Some(fap_cache::CostBackend::Dense)
        }
        Some(other) => {
            return Err(format!("unknown cost backend '{other}' (expected dense|landmark)"))
        }
    };
    Ok((positional, backend))
}

/// Splits `--metrics-out <path>` / `--metrics-summary` /
/// `--metrics-flush-every <n>` out of the raw argument list, leaving the
/// positional arguments.
fn extract_metrics_flags(args: &[String]) -> Result<(Vec<String>, MetricsOptions), String> {
    let mut positional = Vec::new();
    let mut options = MetricsOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metrics-out" => {
                let path = iter.next().ok_or("--metrics-out requires a path")?;
                options.out = Some(path.clone());
            }
            "--metrics-summary" => options.summary = true,
            "--metrics-flush-every" => {
                let n = iter.next().ok_or("--metrics-flush-every requires a count")?;
                let n: usize = n
                    .parse()
                    .map_err(|e| format!("bad flush interval '{n}': {e}"))?;
                options.flush_every = Some(n);
            }
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, options))
}

/// `fap bench <suite>`: measures the suite's committed grid into `path`,
/// or with `check` re-runs the grid committed at `path` and gates the rerun
/// against it. `sparse_max_n` drops the sparse points above it first.
fn bench<S: Suite>(check: bool, path: &str, sparse_max_n: Option<usize>) -> Result<(), String> {
    let name = S::NAME;
    let mut grid = if check {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str::<S>(&text).map_err(|e| format!("parsing {path}: {e}"))?
    } else {
        S::default_grid()
    };
    if let Some(n) = sparse_max_n {
        grid.cap_sparse(n)?;
    }
    let report = grid.run();
    if check {
        let outcome = fap_bench::check(&grid, &report);
        for advisory in &outcome.advisories {
            println!("advisory: {advisory}");
        }
        return if outcome.is_pass() {
            println!("bench {name} check passed: every hard gate held against {path}");
            Ok(())
        } else {
            Err(format!("bench {name} check failed:\n  {}", outcome.hard_failures.join("\n  ")))
        };
    }
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    print!("{}", report.summary());
    println!("wrote {path}");
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let (args, metrics) = extract_metrics_flags(args)?;
    if metrics.requested()
        && !matches!(
            args.first().map(String::as_str),
            Some("solve" | "sim" | "serve" | "served" | "track")
        )
    {
        return Err(
            "--metrics-out/--metrics-summary/--metrics-flush-every only apply to solve, sim, serve, served and track"
                .into(),
        );
    }
    let (args, backend) = extract_backend_flags(&args)?;
    if backend.is_some()
        && !matches!(
            args.first().map(String::as_str),
            Some("solve" | "sim" | "serve")
        )
    {
        return Err(
            "--cost-backend/--landmarks/--landmark-seed only apply to solve, sim and serve"
                .into(),
        );
    }
    match &args[..] {
        [] => Err("no command given".into()),
        [cmd, rest @ ..] => match (cmd.as_str(), rest) {
            ("example", []) => {
                println!("{}", Scenario::example().to_json());
                Ok(())
            }
            ("solve", [path]) => {
                let mut scenario = Scenario::load(Path::new(path)).map_err(|e| e.to_string())?;
                if let Some(backend) = backend {
                    scenario.cost_backend = backend;
                }
                let mut sink = metrics.sink()?;
                let output = solve(&scenario, sink.recorder()).map_err(|e| e.to_string())?;
                metrics.finish(sink)?;
                println!("converged:  {} ({} iterations)", output.converged, output.iterations);
                println!("cost:       {:.6}", output.cost);
                println!("reference:  {:.6} (gap {:.2e})", output.reference_cost, output.reference_gap);
                println!("allocation:");
                for (i, x) in output.allocation.iter().enumerate() {
                    println!("  node {i:>3}: {x:.6}");
                }
                Ok(())
            }
            ("simulate", [path]) => {
                let scenario = Scenario::load(Path::new(path)).map_err(|e| e.to_string())?;
                let (output, report) = simulate(&scenario).map_err(|e| e.to_string())?;
                println!("model cost:     {:.6}", output.cost);
                println!(
                    "measured cost:  {:.6} over {} accesses",
                    report.mean_total_cost(scenario.k),
                    report.accesses_measured
                );
                println!(
                    "mean response:  {:.6} ± {:.6}",
                    report.response.mean(),
                    report.response.ci95_half_width()
                );
                println!("mean comm cost: {:.6}", report.comm_cost.mean());
                println!("utilization per node:");
                for (i, rho) in report.per_node_utilization.iter().enumerate() {
                    println!("  node {i:>3}: {rho:.4}");
                }
                Ok(())
            }
            ("chaos-example", []) => {
                let plan = ChaosPlan::new(42)
                    .with_drop(0.1)
                    .with_delay(0.2, 2)
                    .with_staleness_bound(2)
                    .with_retries(1);
                let json = serde_json::to_string_pretty(&plan)
                    .map_err(|e| e.to_string())?;
                println!("{json}");
                Ok(())
            }
            ("sim", [path, rest @ ..]) if rest.len() <= 1 => {
                let mut scenario = Scenario::load(Path::new(path)).map_err(|e| e.to_string())?;
                if let Some(backend) = backend {
                    scenario.cost_backend = backend;
                }
                let plan = match rest {
                    [chaos_path] => {
                        let text = std::fs::read_to_string(chaos_path)
                            .map_err(|e| format!("reading {chaos_path}: {e}"))?;
                        serde_json::from_str::<ChaosPlan>(&text)
                            .map_err(|e| format!("parsing {chaos_path}: {e}"))?
                    }
                    _ => ChaosPlan::new(0),
                };
                let mut sink = metrics.sink()?;
                let report = chaos_sim(&scenario, plan, sink.recorder())
                    .map_err(|e| e.to_string())?;
                metrics.finish(sink)?;
                let json = serde_json::to_string_pretty(&report)
                    .map_err(|e| e.to_string())?;
                println!("{json}");
                Ok(())
            }
            ("serve", rest) => {
                let mut path: Option<&String> = None;
                let mut shards = fap_batch::Parallelism::Auto;
                let mut warm_start = false;
                let mut oracle_update = false;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--shards" => {
                            let n = iter.next().ok_or("--shards requires a count")?;
                            let n: usize = n
                                .parse()
                                .map_err(|e| format!("bad shard count '{n}': {e}"))?;
                            if n == 0 {
                                return Err("--shards must be at least 1".into());
                            }
                            shards = fap_batch::Parallelism::Fixed(n);
                        }
                        "--warm-start" => warm_start = true,
                        "--oracle-update" => oracle_update = true,
                        _ if path.is_none() => path = Some(arg),
                        other => return Err(format!("unexpected argument '{other}'")),
                    }
                }
                let path = path.ok_or("serve requires a request-list file")?;
                let mut specs =
                    fap_cli::load_specs(Path::new(path)).map_err(|e| e.to_string())?;
                if let Some(backend) = backend {
                    for spec in &mut specs {
                        spec.set_cost_backend(backend);
                    }
                }
                let mut sink = metrics.sink()?;
                let output = fap_cli::serve::serve_specs(
                    &specs,
                    shards,
                    warm_start,
                    oracle_update,
                    sink.recorder(),
                )
                .map_err(|e| e.to_string())?;
                print!("{}", fap_cli::serve::render_output(&specs, &output));
                metrics.finish(sink)?;
                Ok(())
            }
            ("served", rest) => {
                let mut config = fap_served::DaemonConfig::default();
                let mut socket: Option<String> = None;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--shards" => {
                            let n = iter.next().ok_or("--shards requires a count")?;
                            let n: usize = n
                                .parse()
                                .map_err(|e| format!("bad shard count '{n}': {e}"))?;
                            if n == 0 {
                                return Err("--shards must be at least 1".into());
                            }
                            config.shards = fap_batch::Parallelism::Fixed(n);
                        }
                        "--servers" => {
                            let c = iter.next().ok_or("--servers requires a count")?;
                            let c: u32 = c
                                .parse()
                                .map_err(|e| format!("bad server count '{c}': {e}"))?;
                            config.servers = c;
                        }
                        "--warm" => {
                            let mode = iter.next().ok_or("--warm requires off|batch|session")?;
                            config.warm = fap_served::WarmMode::parse(mode)?;
                        }
                        "--admission-bound" => {
                            let w = iter.next().ok_or("--admission-bound requires a tick count")?;
                            let w: f64 = w
                                .parse()
                                .map_err(|e| format!("bad admission bound '{w}': {e}"))?;
                            if w.is_nan() || w < 0.0 {
                                return Err("--admission-bound must be non-negative".into());
                            }
                            config.admission_bound = Some(w);
                        }
                        "--warmup" => {
                            let n = iter.next().ok_or("--warmup requires a sample count")?;
                            config.admission_warmup = n
                                .parse()
                                .map_err(|e| format!("bad warmup '{n}': {e}"))?;
                        }
                        "--admission-window" => {
                            let n =
                                iter.next().ok_or("--admission-window requires a sample count")?;
                            let n: usize = n
                                .parse()
                                .map_err(|e| format!("bad admission window '{n}': {e}"))?;
                            if n == 0 {
                                return Err("--admission-window must be at least 1".into());
                            }
                            config.admission_window = n;
                        }
                        "--cache-bytes" => {
                            let n = iter.next().ok_or("--cache-bytes requires a byte count")?;
                            let n: u64 = n
                                .parse()
                                .map_err(|e| format!("bad cache budget '{n}': {e}"))?;
                            config.cache_bytes = Some(n);
                        }
                        "--wall-clock" => config.wall_clock = true,
                        "--oracle-update" => config.oracle_update = true,
                        "--socket" => {
                            let path = iter.next().ok_or("--socket requires a path")?;
                            socket = Some(path.clone());
                        }
                        other => return Err(format!("unexpected argument '{other}'")),
                    }
                }
                let mut sink = metrics.sink()?;
                match socket {
                    Some(path) => {
                        #[cfg(unix)]
                        {
                            fap_cli::served::run_socket(
                                Path::new(&path),
                                &config,
                                sink.recorder(),
                            )?;
                        }
                        #[cfg(not(unix))]
                        {
                            let _ = path;
                            return Err("--socket requires a Unix platform".into());
                        }
                    }
                    None => {
                        let stdin = std::io::stdin();
                        let stdout = std::io::stdout();
                        let mut out = BufWriter::new(stdout.lock());
                        fap_cli::run_daemon(
                            stdin.lock(),
                            &mut out,
                            &config,
                            sink.recorder(),
                        )?;
                        use std::io::Write as _;
                        out.flush().map_err(|e| e.to_string())?;
                    }
                }
                metrics.finish(sink)?;
                Ok(())
            }
            ("track", rest) => {
                let options = fap_cli::parse_track_args(rest)?;
                let mut sink = metrics.sink()?;
                let report = fap_cli::run_track(&options, sink.recorder())?;
                if options.json {
                    let json =
                        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                    println!("{json}");
                } else {
                    print!("{}", fap_cli::render_track(&options, &report));
                }
                metrics.finish(sink)?;
                Ok(())
            }
            ("serve-example", []) => {
                println!("{}", fap_cli::serve::example_specs_json());
                Ok(())
            }
            ("report", [path]) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))?;
                let summary = summarize(&text).map_err(|e| format!("{path}: {e}"))?;
                print!("{}", fap_cli::render(&summary));
                Ok(())
            }
            ("report", [flag, path]) if flag == "--json" => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))?;
                let summary = summarize(&text).map_err(|e| format!("{path}: {e}"))?;
                print!("{}", fap_cli::render_json(&summary));
                Ok(())
            }
            ("report", [flag, path_a, path_b]) if flag == "--diff" => {
                let load = |path: &String| -> Result<fap_cli::ReportSummary, String> {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("reading {path}: {e}"))?;
                    summarize(&text).map_err(|e| format!("{path}: {e}"))
                };
                let (a, b) = (load(path_a)?, load(path_b)?);
                print!("{}", fap_cli::render_diff(path_a, &a, path_b, &b));
                Ok(())
            }
            ("trace", rest) if !rest.is_empty() => {
                let mut paths: Vec<&String> = Vec::new();
                let mut folded = false;
                let mut diff = false;
                let mut top = 3usize;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--folded" => folded = true,
                        "--diff" => diff = true,
                        "--top" => {
                            let n = iter.next().ok_or("--top requires a count")?;
                            top = n.parse().map_err(|e| format!("bad top count '{n}': {e}"))?;
                            if top == 0 {
                                return Err("--top must be at least 1".into());
                            }
                        }
                        other if other.starts_with("--") => {
                            return Err(format!("unexpected argument '{other}'"))
                        }
                        _ => paths.push(arg),
                    }
                }
                let load = |path: &String| -> Result<fap_cli::TraceReport, String> {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("reading {path}: {e}"))?;
                    fap_cli::trace::analyze(&text).map_err(|e| format!("{path}: {e}"))
                };
                match (diff, folded, &paths[..]) {
                    (true, false, [a, b]) => {
                        print!("{}", fap_cli::trace::render_diff(a, &load(a)?, b, &load(b)?));
                    }
                    (true, _, _) => {
                        return Err("trace --diff takes exactly two metrics files".into())
                    }
                    (false, true, [path]) => {
                        print!("{}", fap_cli::trace::render_folded(&load(path)?));
                    }
                    (false, false, [path]) => {
                        print!("{}", fap_cli::trace::render(&load(path)?, top));
                    }
                    _ => return Err("trace takes exactly one metrics file".into()),
                }
                Ok(())
            }
            ("bench", [suite, rest @ ..]) => {
                let mut check = false;
                let mut sparse_max_n: Option<usize> = None;
                let mut path: Option<String> = None;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--check" => check = true,
                        "--sparse-max-n" => {
                            let n =
                                iter.next().ok_or("--sparse-max-n requires a node count")?;
                            sparse_max_n = Some(
                                n.parse().map_err(|e| format!("bad node count '{n}': {e}"))?,
                            );
                        }
                        _ if path.is_none() && !arg.starts_with("--") => path = Some(arg.clone()),
                        other => return Err(format!("unexpected argument '{other}'")),
                    }
                }
                let path = path.unwrap_or_else(|| format!("BENCH_{suite}.json"));
                match suite.as_str() {
                    "scale" => bench::<ScaleReport>(check, &path, sparse_max_n),
                    "serve" => bench::<ServeReport>(check, &path, sparse_max_n),
                    "drift" => bench::<DriftBenchReport>(check, &path, sparse_max_n),
                    other => Err(format!("unknown bench suite '{other}' (expected scale|serve|drift)")),
                }
            }
            ("sweep-k", [path, list]) => {
                let scenario = Scenario::load(Path::new(path)).map_err(|e| e.to_string())?;
                let candidates: Vec<f64> = list
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().map_err(|e| format!("bad k '{s}': {e}")))
                    .collect::<Result<_, _>>()?;
                let sweep = sweep_k(&scenario, &candidates).map_err(|e| e.to_string())?;
                println!("{:>10} {:>14} {:>12} {:>10}", "k", "communication", "mean delay", "spread");
                for point in sweep {
                    println!(
                        "{:>10.4} {:>14.6} {:>12.6} {:>10.6}",
                        point.k, point.communication, point.mean_delay, point.allocation_spread
                    );
                }
                Ok(())
            }
            (cmd, _) => Err(format!("unknown or malformed command '{cmd}'")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn bench_rejects_a_sparse_cap_off_the_scale_suite_and_unknown_suites() {
        for suite in ["serve", "drift"] {
            let err = run(&args(&format!("bench {suite} --sparse-max-n 64"))).unwrap_err();
            assert!(err.contains("--sparse-max-n only applies to `fap bench scale`"), "{err}");
        }
        let err = run(&args("bench nope --check")).unwrap_err();
        assert!(err.contains("unknown bench suite 'nope'"), "{err}");
    }
}
