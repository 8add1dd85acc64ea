//! `fap track`: the workload-drift control loop at the command line, plus
//! the daemon's `{"cmd":"drift", ...}` handler.
//!
//! `fap track` builds a ring topology, generates a seeded λ-trajectory
//! from a scenario preset, and drives the `fap-runtime` tracking loop
//! along it, printing a per-epoch table and the regret summary (tracked
//! vs clairvoyant vs static). The daemon handler exposes the same loop
//! over the JSONL session protocol — it lives here rather than in
//! `fap-served` so the wire daemon stays independent of the runtime
//! crate, the same layering that keeps its batch syntax pluggable.

use std::fmt::Write as _;

use fap_batch::Parallelism;
use fap_net::topology;
use fap_obs::jsonl::{push_json_f64, push_json_str};
use fap_obs::Recorder;
use fap_runtime::{DriftConfig, DriftReport, DriftRun, DriftScenario};
use serde::Value;

/// Epochs a daemon drift command runs when the envelope names none —
/// smaller than the CLI default so an interactive session answers fast.
pub const DAEMON_DRIFT_EPOCHS: usize = 24;

/// Parsed `fap track` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackOptions {
    /// Ring size the trajectory runs over.
    pub nodes: usize,
    /// The full control-loop configuration.
    pub config: DriftConfig,
    /// Thread fan-out for the clairvoyant solves.
    pub parallelism: Parallelism,
    /// Print the raw [`DriftReport`] as JSON instead of the table.
    pub json: bool,
}

impl Default for TrackOptions {
    fn default() -> Self {
        TrackOptions {
            nodes: 8,
            config: DriftConfig::default(),
            parallelism: Parallelism::Auto,
            json: false,
        }
    }
}

/// Reads a non-negative finite float flag value.
fn numeric_flag(
    iter: &mut std::slice::Iter<'_, String>,
    name: &str,
) -> Result<f64, String> {
    let v = iter.next().ok_or_else(|| format!("{name} requires a value"))?;
    let v: f64 = v.parse().map_err(|e| format!("bad {name} '{v}': {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{name} must be non-negative and finite"));
    }
    Ok(v)
}

/// Parses the arguments after `fap track`.
///
/// # Errors
///
/// Returns a message naming the first bad flag or value.
pub fn parse_track_args(rest: &[String]) -> Result<TrackOptions, String> {
    let mut options = TrackOptions::default();
    let mut label = "diurnal".to_string();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--drift-scenario" => {
                let l = iter
                    .next()
                    .ok_or("--drift-scenario requires diurnal|flash-crowd|step|node-churn")?;
                label = l.clone();
            }
            "--nodes" => {
                let n = iter.next().ok_or("--nodes requires a count")?;
                let n: usize = n.parse().map_err(|e| format!("bad node count '{n}': {e}"))?;
                if n < 2 {
                    return Err("--nodes must be at least 2".into());
                }
                options.nodes = n;
            }
            "--epochs" => {
                let n = iter.next().ok_or("--epochs requires a count")?;
                let n: usize = n.parse().map_err(|e| format!("bad epoch count '{n}': {e}"))?;
                if n == 0 {
                    return Err("--epochs must be at least 1".into());
                }
                options.config.epochs = n;
            }
            "--seed" => {
                let s = iter.next().ok_or("--seed requires a value")?;
                options.config.seed =
                    s.parse().map_err(|e| format!("bad seed '{s}': {e}"))?;
            }
            "--hysteresis" => {
                options.config.hysteresis = numeric_flag(&mut iter, "--hysteresis")?;
            }
            "--smoothing" => {
                options.config.smoothing = numeric_flag(&mut iter, "--smoothing")?;
            }
            "--migration-bandwidth" => {
                options.config.migration_bandwidth =
                    numeric_flag(&mut iter, "--migration-bandwidth")?;
            }
            "--threads" => {
                let n = iter.next().ok_or("--threads requires a count")?;
                let n: usize = n.parse().map_err(|e| format!("bad thread count '{n}': {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                options.parallelism = Parallelism::Fixed(n);
            }
            "--json" => options.json = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    options.config.scenario = DriftScenario::preset(&label, options.config.epochs)
        .ok_or_else(|| {
            format!("unknown drift scenario '{label}' (expected diurnal|flash-crowd|step|node-churn)")
        })?;
    Ok(options)
}

/// Runs the tracking loop the options describe, recording `track.*`
/// telemetry into `recorder`.
///
/// # Errors
///
/// Returns a message for an invalid configuration or a failed epoch.
pub fn run_track(
    options: &TrackOptions,
    recorder: &mut dyn Recorder,
) -> Result<DriftReport, String> {
    let graph = topology::ring(options.nodes, 1.0).map_err(|e| e.to_string())?;
    let run = DriftRun::new(&graph, options.config.clone()).map_err(|e| e.to_string())?;
    run.run(options.parallelism, recorder).map_err(|e| e.to_string())
}

/// Renders the per-epoch table and regret summary `fap track` prints.
pub fn render_track(options: &TrackOptions, report: &DriftReport) -> String {
    let mut out = String::new();
    let c = &options.config;
    let _ = writeln!(
        out,
        "scenario {} on a {}-node ring: {} epochs, seed {}, eta {}, bandwidth {}",
        report.scenario, options.nodes, c.epochs, c.seed, c.hysteresis, c.migration_bandwidth
    );
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>12} {:>12} {:>12} {:>9} {:>7} {:>6}",
        "epoch", "rate", "tracked", "clairvoyant", "static", "movement", "iters", "rounds"
    );
    for e in &report.epochs {
        let _ = writeln!(
            out,
            "{:>5} {:>10.4} {:>12.6} {:>12.6} {:>12.6} {:>9.4} {:>7} {:>6}",
            e.epoch,
            e.total_rate,
            e.tracked_utility,
            e.clairvoyant_utility,
            e.static_utility,
            e.movement,
            e.iterations,
            e.migration_rounds
        );
    }
    let _ = writeln!(
        out,
        "regret:    tracked {:.6}, static {:.6} (ratio {:.4})",
        report.tracked_regret,
        report.static_regret,
        report.regret_ratio()
    );
    let _ = writeln!(
        out,
        "migration: {:.4} mass moved in {} copies over {} rounds",
        report.total_movement, report.total_copies, report.total_rounds
    );
    out
}

fn field_f64(value: &Value, name: &str) -> Option<f64> {
    match value.get(name)? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn field_usize(value: &Value, name: &str) -> Option<usize> {
    match value.get(name)? {
        Value::Int(i) if *i >= 0 => Some(*i as usize),
        Value::UInt(u) => Some(*u as usize),
        _ => None,
    }
}

/// Handles a daemon input line when it is a `{"cmd":"drift", ...}`
/// envelope: runs the tracking loop and returns the response line to
/// write. Returns `None` for every other line (including malformed JSON
/// — the daemon owns those errors).
///
/// Optional envelope fields: `scenario` (label, default `diurnal`),
/// `nodes`, `epochs` (default [`DAEMON_DRIFT_EPOCHS`]), `seed`,
/// `hysteresis`, `smoothing`, `migration_bandwidth`, `threads`.
pub fn drift_command_line(line: &str, recorder: &mut dyn Recorder) -> Option<String> {
    let value = serde_json::parse_value(line.trim()).ok()?;
    match value.get("cmd") {
        Some(Value::Str(cmd)) if cmd == "drift" => {}
        _ => return None,
    }
    Some(match drift_response(&value, recorder) {
        Ok(line) => line,
        Err(message) => {
            let mut out = String::from("{\"kind\":\"error\",\"message\":");
            push_json_str(&mut out, &format!("drift: {message}"));
            out.push('}');
            out
        }
    })
}

fn drift_response(value: &Value, recorder: &mut dyn Recorder) -> Result<String, String> {
    let mut options = TrackOptions {
        config: DriftConfig { epochs: DAEMON_DRIFT_EPOCHS, ..DriftConfig::default() },
        ..TrackOptions::default()
    };
    let label = match value.get("scenario") {
        Some(Value::Str(label)) => label.clone(),
        None => "diurnal".to_string(),
        Some(_) => return Err("scenario must be a string label".into()),
    };
    if let Some(nodes) = field_usize(value, "nodes") {
        if nodes < 2 {
            return Err("nodes must be at least 2".into());
        }
        options.nodes = nodes;
    }
    if let Some(epochs) = field_usize(value, "epochs") {
        options.config.epochs = epochs;
    }
    if let Some(seed) = field_usize(value, "seed") {
        options.config.seed = seed as u64;
    }
    if let Some(eta) = field_f64(value, "hysteresis") {
        options.config.hysteresis = eta;
    }
    if let Some(mu) = field_f64(value, "smoothing") {
        options.config.smoothing = mu;
    }
    if let Some(b) = field_f64(value, "migration_bandwidth") {
        options.config.migration_bandwidth = b;
    }
    if let Some(threads) = field_usize(value, "threads") {
        if threads == 0 {
            return Err("threads must be at least 1".into());
        }
        options.parallelism = Parallelism::Fixed(threads);
    }
    options.config.scenario = DriftScenario::preset(&label, options.config.epochs)
        .ok_or_else(|| format!("unknown scenario '{label}'"))?;
    let report = run_track(&options, recorder)?;
    Ok(drift_line(&options, &report))
}

/// The deterministic one-line JSON summary of a daemon drift run.
fn drift_line(options: &TrackOptions, report: &DriftReport) -> String {
    let mut out = String::from("{\"kind\":\"drift\",\"scenario\":");
    push_json_str(&mut out, &report.scenario);
    let _ = write!(
        out,
        ",\"nodes\":{},\"epochs\":{}",
        options.nodes,
        report.epochs.len()
    );
    for (key, value) in [
        ("tracked_regret", report.tracked_regret),
        ("static_regret", report.static_regret),
        ("regret_ratio", report.regret_ratio()),
        ("total_movement", report.total_movement),
    ] {
        out.push(',');
        push_json_str(&mut out, key);
        out.push(':');
        push_json_f64(&mut out, value);
    }
    let _ = write!(
        out,
        ",\"total_copies\":{},\"total_rounds\":{}}}",
        report.total_copies, report.total_rounds
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::{MetricsRegistry, NoopRecorder};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parsing_covers_every_flag() {
        let options = parse_track_args(&args(&[
            "--drift-scenario",
            "step",
            "--nodes",
            "6",
            "--epochs",
            "18",
            "--seed",
            "11",
            "--hysteresis",
            "0.01",
            "--smoothing",
            "0.005",
            "--migration-bandwidth",
            "0.5",
            "--threads",
            "3",
            "--json",
        ]))
        .unwrap();
        assert_eq!(options.nodes, 6);
        assert_eq!(options.config.epochs, 18);
        assert_eq!(options.config.seed, 11);
        assert_eq!(options.config.hysteresis, 0.01);
        assert_eq!(options.config.smoothing, 0.005);
        assert_eq!(options.config.migration_bandwidth, 0.5);
        assert_eq!(options.parallelism, Parallelism::Fixed(3));
        assert!(options.json);
        assert_eq!(options.config.scenario.label(), "step");
    }

    #[test]
    fn bad_flags_are_rejected_with_messages() {
        assert!(parse_track_args(&args(&["--drift-scenario", "teleport"]))
            .unwrap_err()
            .contains("unknown drift scenario"));
        assert!(parse_track_args(&args(&["--nodes", "1"])).unwrap_err().contains("at least 2"));
        assert!(parse_track_args(&args(&["--epochs", "0"])).unwrap_err().contains("at least 1"));
        assert!(parse_track_args(&args(&["--hysteresis", "-1"]))
            .unwrap_err()
            .contains("non-negative"));
        assert!(parse_track_args(&args(&["--frobnicate"])).unwrap_err().contains("unexpected"));
    }

    #[test]
    fn the_default_run_tracks_and_renders() {
        let mut options = parse_track_args(&args(&["--epochs", "10", "--nodes", "5"])).unwrap();
        options.parallelism = Parallelism::Sequential;
        let report = run_track(&options, &mut NoopRecorder).unwrap();
        assert_eq!(report.epochs.len(), 10);
        let rendered = render_track(&options, &report);
        assert!(rendered.contains("scenario diurnal on a 5-node ring"));
        assert!(rendered.contains("regret:"), "{rendered}");
        assert!(rendered.contains("migration:"), "{rendered}");
        assert_eq!(rendered.lines().count(), 2 + 10 + 2, "header, table, summary");
    }

    #[test]
    fn drift_commands_answer_with_a_summary_line_and_metrics() {
        let mut registry = MetricsRegistry::new();
        let line = drift_command_line(
            "{\"cmd\":\"drift\",\"scenario\":\"diurnal\",\"nodes\":5,\"epochs\":8,\"threads\":1}",
            &mut registry,
        )
        .expect("drift command must be handled");
        assert!(line.starts_with("{\"kind\":\"drift\",\"scenario\":\"diurnal\""), "{line}");
        assert!(line.contains("\"epochs\":8"), "{line}");
        assert!(line.contains("\"regret_ratio\":"), "{line}");
        assert!(!line.contains('\n'));
        assert_eq!(registry.counter("track.epochs"), 8);

        // Identical envelopes must answer byte-identically.
        let again = drift_command_line(
            "{\"cmd\":\"drift\",\"scenario\":\"diurnal\",\"nodes\":5,\"epochs\":8,\"threads\":1}",
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(line, again);
    }

    #[test]
    fn non_drift_lines_pass_through_and_bad_fields_error_inline() {
        assert!(drift_command_line("{\"cmd\":\"status\"}", &mut NoopRecorder).is_none());
        assert!(drift_command_line("{\"at\":0,\"batch\":[]}", &mut NoopRecorder).is_none());
        assert!(drift_command_line("not json", &mut NoopRecorder).is_none());
        let err = drift_command_line(
            "{\"cmd\":\"drift\",\"scenario\":\"teleport\"}",
            &mut NoopRecorder,
        )
        .unwrap();
        assert!(err.starts_with("{\"kind\":\"error\""), "{err}");
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
