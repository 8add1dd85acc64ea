//! Tier-1 guarantees of the chaos simulator: seeded determinism,
//! zero-fault equivalence with the other two executors, and a golden-trace
//! regression for the canonical Figure-3 scenario.

use fap::prelude::*;
use fap::runtime::threaded::run_threaded;
use fap::runtime::FaultCounters;

/// The paper's §6 four-node symmetric ring.
fn paper_problem() -> SingleFileProblem {
    let graph = topology::ring(4, 1.0).unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
}

const FIG3_ALPHA: f64 = 0.19;
const FIG3_EPSILON: f64 = 1e-3;
const FIG3_START: [f64; 4] = [0.8, 0.1, 0.1, 0.0];

/// A fairly hostile plan used by the determinism tests.
fn hostile_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed)
        .with_drop(0.25)
        .with_duplication(0.1)
        .with_delay(0.3, 2)
        .with_staleness_bound(2)
        .with_retries(1)
        .crash(5, 2)
        .rejoin(15, 2)
}

/// Two runs with the same seed produce byte-identical reports — every
/// counter, every trace record, every iterate.
#[test]
fn same_seed_is_deterministic() {
    let p = paper_problem();
    let run = || {
        SimRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
            .with_epsilon(FIG3_EPSILON)
            .with_max_rounds(10_000)
            .with_chaos(hostile_plan(42))
            .run(&FIG3_START, &mut NoopRecorder)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    // And the serialized form is byte-identical too.
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

/// Different seeds actually explore different fault histories.
#[test]
fn different_seeds_diverge() {
    let p = paper_problem();
    let run = |seed| {
        SimRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
            .with_epsilon(FIG3_EPSILON)
            .with_max_rounds(10_000)
            .with_chaos(hostile_plan(seed))
            .run(&FIG3_START, &mut NoopRecorder)
            .unwrap()
    };
    assert_ne!(run(1).faults, run(2).faults);
}

/// Zero faults ⇒ the three executors (lock-step rounds, real threads,
/// simulated network) agree bit for bit on the Figure-3 scenario.
#[test]
fn executors_agree_without_faults() {
    let p = paper_problem();

    let round = DistributedRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
        .with_epsilon(FIG3_EPSILON)
        .with_max_rounds(10_000)
        .run(&FIG3_START)
        .unwrap();
    let threaded = run_threaded(&p, FIG3_ALPHA, FIG3_EPSILON, &FIG3_START, 10_000).unwrap();
    let sim = SimRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
        .with_epsilon(FIG3_EPSILON)
        .with_max_rounds(10_000)
        .with_chaos(ChaosPlan::new(7)) // seed is irrelevant: zero-fault plan
        .run(&FIG3_START, &mut NoopRecorder)
        .unwrap();

    assert!(round.converged && threaded.converged && sim.converged);
    assert_eq!(round.allocation, threaded.allocation);
    assert_eq!(round.allocation, sim.allocation);
    assert_eq!(round.rounds, threaded.rounds);
    assert_eq!(round.rounds, sim.rounds);
    assert_eq!(round.final_utility, threaded.final_utility);
    assert_eq!(round.final_utility, sim.final_utility);
    assert_eq!(round.trace, sim.trace);
    assert_eq!(round.messages, sim.messages);

    let zero = FaultCounters::default();
    assert_eq!(
        FaultCounters { sent: sim.faults.sent, delivered: sim.faults.delivered, ..zero },
        sim.faults,
        "a zero-fault plan must not record drops, delays, retries or crashes"
    );
    assert_eq!(sim.faults.sent, sim.faults.delivered);
}

/// The event-driven engine ([`SimRun::run`]) is bit-identical to the
/// round-synchronous reference ([`SimRun::run_round_synchronous`]) on
/// zero-fault plans, across many seeds and both exchange schemes — and on
/// zero faults both also match the plain lock-step [`DistributedRun`].
#[test]
fn event_driven_engine_matches_round_synchronous_without_faults() {
    let p = paper_problem();
    let schemes = [ExchangeScheme::Broadcast, ExchangeScheme::Central { coordinator: 0 }];
    for scheme in schemes {
        let reference = DistributedRun::new(&p, scheme, FIG3_ALPHA)
            .with_epsilon(FIG3_EPSILON)
            .with_max_rounds(10_000)
            .run(&FIG3_START)
            .unwrap();
        for seed in 0..10u64 {
            let sim = SimRun::new(&p, scheme, FIG3_ALPHA)
                .with_epsilon(FIG3_EPSILON)
                .with_max_rounds(10_000)
                .with_chaos(ChaosPlan::new(seed)); // zero-fault, any seed
            let event_driven = sim.run(&FIG3_START, &mut NoopRecorder).unwrap();
            let lock_step = sim.run_round_synchronous(&FIG3_START, &mut NoopRecorder).unwrap();
            assert_eq!(
                event_driven, lock_step,
                "engines disagree (scheme {scheme:?}, seed {seed})"
            );
            assert_eq!(event_driven.allocation, reference.allocation);
            assert_eq!(event_driven.rounds, reference.rounds);
            assert_eq!(event_driven.trace, reference.trace);
        }
    }
}

/// The two engines stay bit-identical even under hostile fault plans:
/// channel fates are stateless per-coordinate draws, so execution order
/// cannot leak into the outcome.
#[test]
fn event_driven_engine_matches_round_synchronous_under_chaos() {
    let p = paper_problem();
    let schemes = [ExchangeScheme::Broadcast, ExchangeScheme::Central { coordinator: 3 }];
    for scheme in schemes {
        for seed in 0..8u64 {
            let sim = SimRun::new(&p, scheme, FIG3_ALPHA)
                .with_epsilon(FIG3_EPSILON)
                .with_max_rounds(10_000)
                .with_chaos(hostile_plan(seed));
            let event_driven = sim.run(&FIG3_START, &mut NoopRecorder).unwrap();
            let lock_step = sim.run_round_synchronous(&FIG3_START, &mut NoopRecorder).unwrap();
            assert_eq!(
                event_driven, lock_step,
                "engines disagree under chaos (scheme {scheme:?}, seed {seed})"
            );
        }
    }
}

/// The canonical Figure-3 trace (α = 0.19, ε = 10⁻³, start 0.8/0.1/0.1/0)
/// is pinned byte-exactly in `tests/golden/fig3_trace.json`. Regenerate
/// with `UPDATE_GOLDEN=1 cargo test --test chaos_sim` after an intentional
/// numerical change.
#[test]
fn golden_fig3_trace_matches() {
    let p = paper_problem();
    let report = DistributedRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
        .with_epsilon(FIG3_EPSILON)
        .with_max_rounds(10_000)
        .run(&FIG3_START)
        .unwrap();
    assert!(report.converged);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3_trace.json");
    let produced = serde_json::to_string_pretty(&report.trace).unwrap();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, produced + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("tests/golden/fig3_trace.json missing; run with UPDATE_GOLDEN=1");
    let golden_trace: fap::econ::Trace = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        report.trace, golden_trace,
        "Figure-3 trajectory drifted from the golden trace"
    );
    // Guard the serialized form as well, so formatting/precision changes in
    // the serializer are caught, not silently rewritten.
    assert_eq!(produced.trim_end(), golden.trim_end());
}
