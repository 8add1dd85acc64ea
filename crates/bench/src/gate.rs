//! The gate engine behind `fap bench <suite> --check`: one comparison of
//! a fresh rerun against a committed report, shared by the three suites.
//!
//! Each report ([`Suite`]) states its grid identity and lists, per point,
//! the fields it gates, each with one [`Gate`] class. [`check`] then
//! applies the rules the suites share: a grid mismatch, a point-count or
//! point-identity mismatch, and a gated field measured on one side only
//! are hard failures; everything else follows the field's class.

use serde::{Deserialize, Serialize};

/// A fresh timing above this multiple of the committed one is reported as
/// an advisory: the committed numbers came from another (possibly slower
/// or faster) machine.
pub const TIMING_TOLERANCE: f64 = 1.5;

/// How a gated field compares a fresh value against the committed one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Bits or counts (compared via [`f64::to_bits`]): any difference is a
    /// hard failure.
    Exact,
    /// A hard bound: a fresh value above the committed report's bound
    /// fails.
    Ceiling(f64),
    /// Machine- or scheduling-dependent: a difference is reported, never
    /// failing.
    Drift,
    /// Wall clock in milliseconds: an advisory above
    /// [`TIMING_TOLERANCE`]× the committed value.
    Timing,
}

/// One gated field of a point.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name, as in the report's JSON schema.
    pub name: &'static str,
    /// The value, `None` where the point does not measure the field.
    pub value: Option<f64>,
    /// How the value is compared.
    pub gate: Gate,
}

impl Field {
    /// A field whose bits or count must reproduce exactly.
    pub fn exact(name: &'static str, value: f64) -> Self {
        Field { name, value: Some(value), gate: Gate::Exact }
    }

    /// A field that must stay at or under `bound`.
    pub fn ceiling(name: &'static str, value: f64, bound: f64) -> Self {
        Field { name, value: Some(value), gate: Gate::Ceiling(bound) }
    }

    /// A field whose drift is only reported.
    pub fn drift(name: &'static str, value: f64) -> Self {
        Field { name, value: Some(value), gate: Gate::Drift }
    }

    /// A wall-clock field in milliseconds.
    pub fn timing(name: &'static str, value: f64) -> Self {
        Field { name, value: Some(value), gate: Gate::Timing }
    }
}

/// One point of a report: its identity and its gated fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// What the point measures (`"sparse N=64 K=64 L=1"`); a committed and
    /// a fresh point at the same position must agree on it.
    pub id: String,
    /// The gated fields, in a fixed order.
    pub fields: Vec<Field>,
}

/// A committed bench grid: `fap bench <NAME>` writes and checks
/// `BENCH_<NAME>.json`.
pub trait Suite: Serialize + Deserialize {
    /// The suite's name (`scale`, `serve` or `drift`).
    const NAME: &'static str;

    /// The grid the committed artifact is generated at, with nothing
    /// measured yet: [`Suite::run`] fills in the points.
    fn default_grid() -> Self;

    /// Measures this report's grid afresh.
    fn run(&self) -> Self;

    /// Keeps only the sparse points at `N ≤ max_n` (`--sparse-max-n`).
    ///
    /// # Errors
    ///
    /// Suites without a sparse sweep reject the option.
    fn cap_sparse(&mut self, _max_n: usize) -> Result<(), String> {
        Err(format!("--sparse-max-n only applies to `fap bench scale`, not `{}`", Self::NAME))
    }

    /// The grid identity: the inputs every point was measured at.
    fn grid(&self) -> String;

    /// Every point with its gated fields, starting with a `host` point for
    /// the report-level host and thread counts.
    fn points(&self) -> Vec<Point>;

    /// The table `fap bench` prints after measuring the grid.
    fn summary(&self) -> String;
}

/// The result of checking a fresh report against a committed one.
///
/// *Hard failures* are gate violations: the grid changed, an exact field
/// no longer reproduces, or a ceiling is exceeded. *Advisories* are
/// environment-dependent drift (thread counts, scheduling, wall clock),
/// reported but never failing the check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Gate violations; any entry fails the check.
    pub hard_failures: Vec<String>,
    /// Environment drift; informational only.
    pub advisories: Vec<String>,
}

impl CheckOutcome {
    /// Whether the check passed (no hard failures).
    pub fn is_pass(&self) -> bool {
        self.hard_failures.is_empty()
    }

    fn compare(&mut self, id: &str, committed: &Field, fresh: &Field) {
        let label = format!("{id}: {}", committed.name);
        let (was, now) = match (committed.value, fresh.value) {
            (Some(was), Some(now)) => (was, now),
            (None, None) => return,
            (was, now) => {
                self.hard_failures
                    .push(format!("{label} coverage changed: committed {was:?}, fresh {now:?}"));
                return;
            }
        };
        match committed.gate {
            Gate::Exact if was.to_bits() != now.to_bits() => self
                .hard_failures
                .push(format!("{label} diverged: committed {was}, fresh {now}")),
            Gate::Ceiling(bound) if now > bound => self
                .hard_failures
                .push(format!("{label} is {now}, over the committed {bound} bound")),
            Gate::Drift if was.to_bits() != now.to_bits() => self.advisories.push(format!(
                "{label} differs: committed {was}, fresh {now}"
            )),
            Gate::Timing if now > was * TIMING_TOLERANCE => self.advisories.push(format!(
                "{label} {now:.2} ms exceeds {TIMING_TOLERANCE}× committed {was:.2} ms"
            )),
            _ => {}
        }
    }
}

/// Compares a `fresh` run against the `committed` report of the same
/// suite: the grid and every point's identity must match, then each gated
/// field is judged by its [`Gate`] (ceilings against the committed bound).
pub fn check<S: Suite>(committed: &S, fresh: &S) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let (grid, fresh_grid) = (committed.grid(), fresh.grid());
    if grid != fresh_grid {
        outcome.hard_failures.push(format!("grid mismatch: committed {grid}, fresh {fresh_grid}"));
    }
    let (points, fresh_points) = (committed.points(), fresh.points());
    if points.len() != fresh_points.len() {
        outcome.hard_failures.push(format!(
            "point count mismatch: committed {}, fresh {}",
            points.len(),
            fresh_points.len()
        ));
        return outcome;
    }
    for (old, new) in points.iter().zip(&fresh_points) {
        if old.id != new.id {
            outcome.hard_failures.push(format!(
                "point identity mismatch: committed {}, fresh {}",
                old.id, new.id
            ));
            continue;
        }
        for (was, now) in old.fields.iter().zip(&new.fields) {
            outcome.compare(&old.id, was, now);
        }
    }
    outcome
}
