//! The committed `BENCH_*.json` artifacts against the one gate engine
//! (`fap_bench::check`), without re-running any grid.
//!
//! Each artifact must pass its own gates, which reads the ceilings it
//! records: the sparse utility gap within the committed bound, every
//! single-edge repair within 10% of a rebuild, the diurnal regret ratio
//! within the regret gate. Each mutation below then pins the class the
//! engine gives one kind of drift: a hard failure or an advisory.

use fap_bench::drift::{DriftBenchReport, REGRET_GATE};
use fap_bench::gate::Gate;
use fap_bench::scale::ScaleReport;
use fap_bench::serve::ServeReport;
use fap_bench::{check, CheckOutcome, Suite};

fn committed<S: Suite>() -> S {
    let path = format!("{}/BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), S::NAME);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

/// Fields with a measured value under a ceiling.
fn ceilings<S: Suite>(report: &S) -> usize {
    report
        .points()
        .iter()
        .flat_map(|p| &p.fields)
        .filter(|f| matches!(f.gate, Gate::Ceiling(_)) && f.value.is_some())
        .count()
}

#[derive(Debug, Clone, Copy)]
enum Class {
    Hard,
    Advisory,
}

#[test]
fn every_committed_artifact_passes_its_own_gates() {
    let (scale, serve, drift) =
        (committed::<ScaleReport>(), committed::<ServeReport>(), committed::<DriftBenchReport>());
    assert_eq!(check(&scale, &scale), CheckOutcome::default());
    assert_eq!(check(&serve, &serve), CheckOutcome::default());
    assert_eq!(check(&drift, &drift), CheckOutcome::default());
    // `fap bench <suite>` regenerates exactly the committed grids.
    assert_eq!(ScaleReport::default_grid().grid(), scale.grid());
    assert_eq!(ServeReport::default_grid().grid(), serve.grid());
    assert_eq!(DriftBenchReport::default_grid().grid(), drift.grid());
    // The ceilings bind: one repair budget per sparse point, a gap at every
    // sparse point where the dense reference fits, and the diurnal gate.
    let gaps = scale.sparse_points.iter().filter(|p| p.gap.is_some()).count();
    assert_eq!(gaps, 4);
    assert_eq!(ceilings(&scale), scale.sparse_points.len() + gaps);
    assert_eq!(ceilings(&drift), 1);
}

/// One mutation of a committed report, the class the engine must give
/// it, and a message the engine must report in that class.
type Case<S> = (Class, &'static str, fn(&mut S));

/// Checks each mutated copy of the committed `S` against the committed one;
/// advisories must never fail the check.
fn assert_cases<S: Suite + Clone>(cases: &[Case<S>]) {
    let committed: S = committed();
    for &(class, needle, mutate) in cases {
        let mut fresh = committed.clone();
        mutate(&mut fresh);
        let outcome = check(&committed, &fresh);
        let (entries, pass) = match class {
            Class::Hard => (&outcome.hard_failures, false),
            Class::Advisory => (&outcome.advisories, true),
        };
        assert!(
            entries.iter().any(|m| m.contains(needle)) && outcome.is_pass() == pass,
            "{}: expected a {class:?} entry containing '{needle}', got {outcome:?}",
            S::NAME
        );
    }
}

#[test]
fn the_scale_gates_classify_every_drift() {
    use Class::{Advisory, Hard};
    assert_cases::<ScaleReport>(&[
        (Hard, "all_pairs N=64 M=1: checksum diverged", |r| r.points[0].checksum += 1.0),
        (Hard, "grid mismatch", |r| r.ns = vec![13]),
        (Hard, "update_work×10 is", |r| r.sparse_points[0].update_work = 4096), // = K·N
        (Hard, "update_work diverged", |r| r.sparse_points[0].update_work += 1),
        (Hard, "gap is 0.06, over the committed 0.05 bound", |r| {
            r.sparse_points[1].gap = Some(0.06);
        }),
        (Hard, "gap coverage changed", |r| r.sparse_points[3].gap = None),
        (Hard, "point count mismatch", |r| r.sparse_points.truncate(9)),
        (Advisory, "sparse N=64 K=64 L=1: checksum differs", |r| {
            r.sparse_points[0].checksum += 1e-9;
        }),
        (Advisory, "sequential_ms", |r| r.points[0].sequential_ms *= 100.0),
        (Advisory, "host: threads differs", |r| r.threads += 1),
        (Advisory, "host: host_threads differs", |r| r.host_threads += 1),
    ]);
}

#[test]
fn the_serve_gates_classify_every_drift() {
    use Class::{Advisory, Hard};
    assert_cases::<ServeReport>(&[
        (Hard, "requests=12 shards=1: checksum diverged", |r| r.points[0].checksum += 1.0),
        (Hard, "grid mismatch", |r| r.shard_counts = vec![7]),
        (Hard, "iters_saved diverged", |r| r.warm_points[0].iters_saved += 1),
        (Hard, "warm requests=12: checksum diverged", |r| r.warm_points[0].checksum += 1e-9),
        (Hard, "hits diverged", |r| r.cache_points[0].hits += 1),
        (Advisory, "steals differs", |r| r.points[0].steals += 3),
        (Advisory, "sharded_ms", |r| r.points[0].sharded_ms *= 100.0),
        (Advisory, "host: host_threads differs", |r| r.host_threads += 1),
    ]);
}

#[test]
fn the_drift_gates_classify_every_drift() {
    use Class::{Advisory, Hard};
    assert_cases::<DriftBenchReport>(&[
        (Hard, "tracked_regret diverged", |r| r.points[1].tracked_regret += 1e-9),
        (Hard, "total_copies diverged", |r| r.points[2].total_copies += 1),
        (Hard, "scenario=diurnal: regret_ratio is", |r| r.points[0].regret_ratio = 2.0 * REGRET_GATE),
        (Hard, "grid mismatch", |r| r.epochs += 1),
        (Hard, "point identity mismatch", |r| r.points[0].scenario = "step".into()),
        (Advisory, "run_ms", |r| r.points[0].run_ms *= 100.0),
        (Advisory, "host: host_threads differs", |r| r.host_threads += 1),
    ]);
}
