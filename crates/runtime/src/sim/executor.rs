//! The fault-injecting protocol executor.
//!
//! [`SimRun`] executes the same §5.2 round structure as
//! [`DistributedRun`](crate::DistributedRun), but every report crosses the
//! [`LossyChannel`] and the membership evolves under the
//! [`ChaosPlan`]'s crash/rejoin schedule. The executor models:
//!
//! * **timeout + bounded retry** — a receiver that does not get a report on
//!   time requests retransmission up to the plan's retry budget;
//! * **stale-marginal reuse** — a report that still fails to arrive is
//!   served from the last known marginal, if that is no older than the
//!   plan's staleness bound;
//! * **exclusion** — an agent with no usable report is left out of the
//!   round's reallocation entirely; the transfers among the included agents
//!   still sum to zero, so feasibility `Σx = 1` survives every fault;
//! * **crash/rejoin** — a crashed agent's fragment is redistributed over
//!   the survivors (as in [`FailurePlan`](crate::FailurePlan)); a rejoining
//!   agent re-enters with an empty fragment.
//!
//! One deliberate abstraction keeps the state canonical: the simulator
//! maintains a single global view of fragments and of the stale-report
//! table (virtual synchrony). Under the broadcast scheme a report "counts"
//! for a round only once it has reached *every* live peer; until then the
//! sender is served stale or excluded, identically at all nodes. This is
//! what real broadcast protocols enforce with view-synchronous delivery,
//! and it is the property that lets every node apply the identical step —
//! the paper's §5.2 requirement — even over an unreliable network.
//!
//! Under a zero-fault plan the executor performs bit-for-bit the arithmetic
//! of the round executor: same marginal evaluation order, same step, same
//! trace, same message accounting.
//!
//! Two engines execute this protocol. [`SimRun::run`] drives the
//! *event-driven* engine (`event_driven.rs`): agents react to
//! `BeginRound`/`Arrival`/`Wake`/`Deadline` events on a virtual-clock
//! [`Reactor`](crate::Reactor) — the same reactor that runs the `fap
//! served` daemon loop. [`SimRun::run_round_synchronous`] keeps the
//! original lock-step `loop` as the executable specification. Channel
//! fates are stateless per-coordinate draws, so the two engines are
//! bit-identical under every chaos plan, which the equivalence suite pins.

use fap_econ::projection::{compute_step, BoundaryRule, StepOutcome};
use fap_econ::trace::IterationRecord;
use fap_econ::{marginal_spread, Trace};
use fap_obs::{MetricsRegistry, Recorder, Tee, Value};

use super::chaos::ChaosPlan;
use super::channel::LossyChannel;
use super::report::{FaultCounters, SimReport};
use crate::error::RuntimeError;
use crate::local::LocalObjective;
use crate::message::MessageStats;
use crate::round;
use crate::scheme::{ExchangeScheme, MessageCounting};

/// Marker marginal for crashed agents, matching the failure executor: bad
/// enough that no step computation will ever allocate toward them.
pub(super) const DEAD_MARGINAL: f64 = -1e30;

/// One entry of the stale-report table.
#[derive(Debug, Clone, Copy)]
pub(super) struct StaleEntry {
    pub(super) round: usize,
    pub(super) marginal: f64,
}

/// A configurable fault-injected run of the protocol.
///
/// # Example
///
/// Run the paper's §6 experiment over a channel that drops a quarter of all
/// messages, with one retry and a two-round staleness bound:
///
/// ```
/// use fap_core::SingleFileProblem;
/// use fap_net::{topology, AccessPattern};
/// use fap_obs::NoopRecorder;
/// use fap_runtime::{ChaosPlan, ExchangeScheme, SimRun};
///
/// let graph = topology::ring(4, 1.0)?;
/// let pattern = AccessPattern::uniform(4, 1.0)?;
/// let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;
/// let plan = ChaosPlan::new(42).with_drop(0.25).with_retries(1).with_staleness_bound(2);
/// let report = SimRun::new(&problem, ExchangeScheme::Broadcast, 0.19)
///     .with_epsilon(1e-3)
///     .with_chaos(plan)
///     .run(&[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)?;
/// assert!(report.converged);
/// let total: f64 = report.allocation.iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimRun<'a, O> {
    pub(super) objective: &'a O,
    pub(super) scheme: ExchangeScheme,
    pub(super) counting: MessageCounting,
    pub(super) alpha: f64,
    pub(super) epsilon: f64,
    pub(super) boundary: BoundaryRule,
    pub(super) max_rounds: usize,
    pub(super) total_resource: f64,
    pub(super) plan: ChaosPlan,
}

impl<'a, O: LocalObjective> SimRun<'a, O> {
    /// Creates a simulated run of `objective` under `scheme` with step size
    /// `alpha` and a fault-free plan. Defaults match
    /// [`DistributedRun`](crate::DistributedRun): ε = 10⁻³, clamp-to-zero
    /// boundary, 10 000-round cap, point-to-point counting.
    pub fn new(objective: &'a O, scheme: ExchangeScheme, alpha: f64) -> Self {
        SimRun {
            objective,
            scheme,
            counting: MessageCounting::PointToPoint,
            alpha,
            epsilon: 1e-3,
            boundary: BoundaryRule::ClampToZero,
            max_rounds: 10_000,
            total_resource: 1.0,
            plan: ChaosPlan::default(),
        }
    }

    /// Sets the termination tolerance ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the boundary rule.
    #[must_use]
    pub fn with_boundary(mut self, boundary: BoundaryRule) -> Self {
        self.boundary = boundary;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets how messages are counted.
    #[must_use]
    pub fn with_counting(mut self, counting: MessageCounting) -> Self {
        self.counting = counting;
        self
    }

    /// Installs the fault-injection plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Runs the simulated protocol from the feasible `initial` fragments,
    /// recording the run into `recorder`: the `sim.*` fault counters, the
    /// `sim.report_latency_rounds` histogram on virtual (round) time, one
    /// `round` event per round, `fault`/`delivery` events from the channel,
    /// `crash`/`rejoin`/`stale`/`excluded` events from the executor, and a
    /// closing `run_end` event. Virtual time is the round counter —
    /// [`Recorder::set_time`] is driven once per round — so two runs with
    /// the same seed record byte-identical telemetry.
    ///
    /// The report's [`FaultCounters`] are read back from the same stream
    /// (see [`FaultCounters::from_registry`]); there is no separate
    /// tallying, so the summary and the telemetry can never disagree.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for bad configuration, an
    /// infeasible start, or an invalid chaos plan (including a plan that
    /// crashes a central coordinator), and propagates objective failures.
    pub fn run(
        &self,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<SimReport, RuntimeError> {
        Self::tallied(recorder, |tee| self.run_event_driven(initial, tee))
    }

    /// Runs the protocol on the *round-synchronous* reference engine: one
    /// lock-step `loop` iteration per round, exactly as §5.2 writes it,
    /// recording into `recorder` exactly as [`SimRun::run`] does.
    ///
    /// [`SimRun::run`] executes the event-driven engine instead (agents
    /// react to `BeginRound`/`Arrival`/`Wake`/`Deadline` events on a
    /// virtual-clock [`Reactor`](crate::Reactor)); because channel fates
    /// are stateless per-coordinate draws, both engines are bit-identical
    /// under *every* chaos plan — a property the equivalence suite pins by
    /// comparing this method's output with [`SimRun::run`]'s. The lock-step
    /// engine is kept as the executable specification.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimRun::run`].
    pub fn run_round_synchronous(
        &self,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<SimReport, RuntimeError> {
        Self::tallied(recorder, |tee| self.run_loop(initial, tee))
    }

    /// Runs `engine` on `recorder` teed with a local registry, then reads
    /// the report's [`FaultCounters`] back from that registry.
    fn tallied(
        recorder: &mut dyn Recorder,
        engine: impl FnOnce(&mut dyn Recorder) -> Result<SimReport, RuntimeError>,
    ) -> Result<SimReport, RuntimeError> {
        let mut local = MetricsRegistry::new();
        let mut report = engine(&mut Tee::new(&mut local, recorder))?;
        report.faults = FaultCounters::from_registry(&local);
        Ok(report)
    }

    fn run_loop(
        &self,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<SimReport, RuntimeError> {
        let n = self.objective.agent_count();
        self.validate(initial, n)?;
        recorder.register_histogram(
            "sim.report_latency_rounds",
            &[0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0],
        );

        let mut x = initial.to_vec();
        let weights = vec![1.0; n];
        let mut alive = vec![true; n];
        let mut stale: Vec<Option<StaleEntry>> = vec![None; n];
        let mut channel = LossyChannel::new(&self.plan);
        let mut messages = MessageStats::default();
        let mut trace = Trace::new();
        let mut iterates = vec![x.clone()];
        let mut fresh_rounds = Vec::new();
        let mut membership_rounds = Vec::new();
        let mut rounds = 0usize;

        loop {
            recorder.set_time(rounds as u64);
            let mut membership_changed = false;
            // Membership events fire at the start of the round: crashes
            // first, then rejoins (as the plan validation replays them).
            for &(when, agent) in &self.plan.crashes {
                if when == rounds && alive[agent] {
                    membership_changed = true;
                    alive[agent] = false;
                    stale[agent] = None;
                    recorder.incr("sim.crashes", 1);
                    recorder.emit(
                        "crash",
                        &[("round", Value::U64(rounds as u64)), ("agent", Value::U64(agent as u64))],
                    );
                    let lost = x[agent];
                    x[agent] = 0.0;
                    let survivors = alive.iter().filter(|a| **a).count();
                    let share = lost / survivors as f64;
                    for i in 0..n {
                        if alive[i] {
                            x[i] += share;
                        }
                    }
                }
            }
            for &(when, agent) in &self.plan.rejoins {
                if when == rounds && !alive[agent] {
                    membership_changed = true;
                    alive[agent] = true;
                    stale[agent] = None;
                    recorder.incr("sim.rejoins", 1);
                    recorder.emit(
                        "rejoin",
                        &[("round", Value::U64(rounds as u64)), ("agent", Value::U64(agent as u64))],
                    );
                    x[agent] = 0.0;
                }
            }
            let alive_count = alive.iter().filter(|a| **a).count();

            // Delayed reports completing this round refresh the stale table
            // — deterministically ordered by the event queue.
            for late in channel.arrivals(rounds) {
                if alive[late.from]
                    && stale[late.from].is_none_or(|e| e.round < late.sent_round)
                {
                    stale[late.from] =
                        Some(StaleEntry { round: late.sent_round, marginal: late.marginal });
                }
            }

            // §5.2 step (a): live agents evaluate marginals locally (the
            // same 0..n order as the round executor).
            let mut g = vec![0.0; n];
            let mut utility = 0.0;
            for i in 0..n {
                if alive[i] {
                    g[i] = self.objective.local_marginal(i, x[i])?;
                    utility += self.objective.local_utility(i, x[i])?;
                }
            }
            messages.record_round(self.scheme.messages_per_round(alive_count, self.counting));

            // Dissemination over the lossy channel. `fresh[i]` means agent
            // i's round-`rounds` report reached everyone who needed it in
            // time (after retries).
            let mut fresh = vec![false; n];
            for i in 0..n {
                if !alive[i] {
                    continue;
                }
                let targets = self.report_targets(i, &alive);
                if targets.is_empty() {
                    // Nothing to transmit (sole survivor, or the central
                    // coordinator itself): trivially heard.
                    fresh[i] = true;
                    stale[i] = Some(StaleEntry { round: rounds, marginal: g[i] });
                    continue;
                }
                match channel.broadcast_report(rounds, i, &targets, g[i], x[i], recorder) {
                    Some(done) if done == rounds => {
                        fresh[i] = true;
                        stale[i] = Some(StaleEntry { round: rounds, marginal: g[i] });
                    }
                    // Late or lost: the stale table is refreshed by
                    // `arrivals` when (and if) the report completes.
                    _ => {}
                }
            }
            let all_fresh = (0..n).all(|i| !alive[i] || fresh[i]);
            fresh_rounds.push(all_fresh);
            membership_rounds.push(membership_changed);

            // Effective marginals: fresh where heard, stale within the
            // bound, otherwise the agent is excluded from the step.
            let mut g_eff = vec![0.0; n];
            let mut included = vec![false; n];
            for i in 0..n {
                if !alive[i] {
                    g_eff[i] = DEAD_MARGINAL;
                } else if fresh[i] {
                    g_eff[i] = g[i];
                    included[i] = true;
                } else {
                    match stale[i] {
                        Some(entry)
                            if rounds - entry.round <= self.plan.staleness_bound as usize =>
                        {
                            g_eff[i] = entry.marginal;
                            included[i] = true;
                            recorder.incr("sim.stale_reuses", 1);
                            recorder.emit(
                                "stale",
                                &[
                                    ("round", Value::U64(rounds as u64)),
                                    ("agent", Value::U64(i as u64)),
                                    ("age", Value::U64((rounds - entry.round) as u64)),
                                ],
                            );
                        }
                        _ => {
                            g_eff[i] = g[i];
                            recorder.incr("sim.excluded_agent_rounds", 1);
                            recorder.emit(
                                "excluded",
                                &[
                                    ("round", Value::U64(rounds as u64)),
                                    ("agent", Value::U64(i as u64)),
                                ],
                            );
                        }
                    }
                }
            }

            // §5.2 step (b): the identical reallocation over the included
            // agents — the full-width path whenever every agent was heard
            // fresh, bit-identical to the round executor.
            let outcome = if all_fresh && alive_count == n {
                compute_step(&x, &g_eff, &weights, self.alpha, self.boundary)
            } else {
                let idx: Vec<usize> = (0..n).filter(|&i| included[i]).collect();
                let sub_x: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
                let sub_g: Vec<f64> = idx.iter().map(|&i| g_eff[i]).collect();
                let sub_w = vec![1.0; idx.len()];
                let sub = compute_step(&sub_x, &sub_g, &sub_w, self.alpha, self.boundary);
                let mut deltas = vec![0.0; n];
                let mut active = vec![false; n];
                for (slot, &i) in idx.iter().enumerate() {
                    deltas[i] = sub.deltas[slot];
                    active[i] = sub.active[slot];
                }
                StepOutcome { deltas, active, scale: sub.scale }
            };
            let spread = marginal_spread(&g_eff, &outcome.active);
            trace.push(IterationRecord {
                iteration: rounds,
                utility,
                spread,
                alpha: self.alpha,
                active_count: outcome.active_count(),
            });
            recorder.emit(
                "round",
                &[
                    ("round", Value::U64(rounds as u64)),
                    ("utility", Value::F64(utility)),
                    ("spread", Value::F64(spread)),
                    ("active", Value::U64(outcome.active_count() as u64)),
                    ("fresh", Value::Bool(all_fresh)),
                    ("membership", Value::Bool(membership_changed)),
                ],
            );

            // The coordinator distributes the step over the same lossy
            // channel; assignments are acknowledged-and-retried until
            // applied, so the round commits atomically (counted, not
            // fate-altering).
            if let ExchangeScheme::Central { coordinator } = self.scheme {
                self.account_assignments(rounds, coordinator, &alive, &mut channel, recorder);
            }

            let converged = all_fresh
                && spread < self.epsilon
                && round::boundary_consistent(&x, &g_eff, &outcome.active, self.epsilon);
            if converged || rounds >= self.max_rounds {
                recorder.emit(
                    "run_end",
                    &[
                        ("rounds", Value::U64(rounds as u64)),
                        ("converged", Value::Bool(converged)),
                        ("final_utility", Value::F64(utility)),
                    ],
                );
                // The caller fills `faults` from the recorded stream — see
                // `SimRun::tallied`.
                return Ok(SimReport {
                    allocation: x,
                    rounds,
                    converged,
                    final_utility: utility,
                    messages,
                    trace,
                    faults: FaultCounters::default(),
                    iterates,
                    fresh_rounds,
                    membership_rounds,
                });
            }

            // §5.2 step (c): each agent applies its own Δx_i.
            for (xi, d) in x.iter_mut().zip(&outcome.deltas) {
                *xi += d;
            }
            iterates.push(x.clone());
            rounds += 1;
        }
    }

    /// Who needs agent `i`'s report: everyone live (broadcast) or the
    /// coordinator (central).
    pub(super) fn report_targets(&self, i: usize, alive: &[bool]) -> Vec<usize> {
        match self.scheme {
            ExchangeScheme::Broadcast => {
                (0..alive.len()).filter(|&j| j != i && alive[j]).collect()
            }
            ExchangeScheme::Central { coordinator } => {
                if i == coordinator {
                    Vec::new()
                } else {
                    vec![coordinator]
                }
            }
        }
    }

    /// Accounts for the coordinator's step-assignment downlink: every live
    /// non-coordinator gets its Δx over the same lossy channel, retried
    /// until delivered (the control plane is made reliable by ARQ; only the
    /// transmission bill varies with the fault plan).
    pub(super) fn account_assignments(
        &self,
        round: usize,
        coordinator: usize,
        alive: &[bool],
        channel: &mut LossyChannel<'_>,
        recorder: &mut dyn Recorder,
    ) {
        use super::channel::Fate;
        for (to, &is_alive) in alive.iter().enumerate() {
            if to == coordinator || !is_alive {
                continue;
            }
            let mut attempt = 0u32;
            loop {
                if attempt > 0 {
                    recorder.incr("sim.retries", 1);
                }
                recorder.incr("sim.sent", 1);
                match channel.fate(round, coordinator, to, attempt) {
                    Fate::Delivered { delay: 0, duplicated } => {
                        recorder.incr("sim.delivered", 1);
                        if duplicated {
                            recorder.incr("sim.duplicated", 1);
                            recorder.incr("sim.delivered", 1);
                        }
                        break;
                    }
                    Fate::Delivered { duplicated, .. } => {
                        recorder.incr("sim.delivered", 1);
                        recorder.incr("sim.delayed", 1);
                        if duplicated {
                            recorder.incr("sim.duplicated", 1);
                            recorder.incr("sim.delivered", 1);
                        }
                    }
                    Fate::Dropped => recorder.incr("sim.dropped", 1),
                }
                if attempt >= self.plan.max_retries {
                    // Out of budget: the assignment is pushed through the
                    // reliable fallback path so the round still commits.
                    recorder.incr("sim.forced_assignments", 1);
                    recorder.emit(
                        "forced_assignment",
                        &[
                            ("round", Value::U64(round as u64)),
                            ("to", Value::U64(to as u64)),
                        ],
                    );
                    break;
                }
                attempt += 1;
            }
        }
    }

    pub(super) fn validate(&self, initial: &[f64], n: usize) -> Result<(), RuntimeError> {
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(RuntimeError::InvalidParameter(format!("alpha {}", self.alpha)));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(RuntimeError::InvalidParameter(format!("epsilon {}", self.epsilon)));
        }
        if initial.len() != n {
            return Err(RuntimeError::InvalidParameter(format!(
                "{} fragments for {n} agents",
                initial.len()
            )));
        }
        let sum: f64 = initial.iter().sum();
        if (sum - self.total_resource).abs() > 1e-9
            || initial.iter().any(|v| !v.is_finite() || *v < 0.0)
        {
            return Err(RuntimeError::InvalidParameter(format!(
                "initial fragments must be non-negative and sum to {}, got {sum}",
                self.total_resource
            )));
        }
        if let ExchangeScheme::Central { coordinator } = self.scheme {
            if coordinator >= n {
                return Err(RuntimeError::InvalidParameter(format!(
                    "coordinator {coordinator} out of range for {n} agents"
                )));
            }
            if self.plan.crashes.iter().any(|&(_, a)| a == coordinator) {
                return Err(RuntimeError::InvalidParameter(format!(
                    "chaos plan crashes the central coordinator {coordinator}; \
                     use the broadcast scheme to study coordinator loss"
                )));
            }
        }
        self.plan.validate(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::DistributedRun;
    use fap_core::SingleFileProblem;
    use fap_net::{topology, AccessPattern};
    use fap_obs::NoopRecorder;

    fn paper_problem() -> SingleFileProblem {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
    }

    #[test]
    fn zero_fault_sim_is_bit_identical_to_round_executor() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        for scheme in [ExchangeScheme::Broadcast, ExchangeScheme::Central { coordinator: 1 }] {
            let sim = SimRun::new(&p, scheme, 0.19)
                .with_epsilon(1e-6)
                .with_chaos(ChaosPlan::new(1234))
                .run(&x0, &mut NoopRecorder)
                .unwrap();
            let run = DistributedRun::new(&p, scheme, 0.19).with_epsilon(1e-6).run(&x0).unwrap();
            assert_eq!(sim.allocation, run.allocation);
            assert_eq!(sim.rounds, run.rounds);
            assert_eq!(sim.converged, run.converged);
            assert_eq!(sim.final_utility, run.final_utility);
            assert_eq!(sim.messages, run.messages);
            assert_eq!(sim.trace, run.trace);
            assert_eq!(sim.faults.dropped, 0);
            assert_eq!(sim.faults.retries, 0);
        }
    }

    #[test]
    fn same_seed_runs_are_identical_different_seeds_diverge() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let run = |seed: u64| {
            SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
                .with_epsilon(1e-6)
                .with_max_rounds(50_000)
                .with_chaos(
                    ChaosPlan::new(seed).with_drop(0.2).with_retries(1).with_staleness_bound(2),
                )
                .run(&x0, &mut NoopRecorder)
                .unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must give byte-identical reports");
        let c = run(8);
        assert_ne!(a, c, "different seeds must explore different fault paths");
    }

    #[test]
    fn feasibility_survives_drops_delays_and_duplication() {
        let p = paper_problem();
        let plan = ChaosPlan::new(21)
            .with_drop(0.3)
            .with_duplication(0.2)
            .with_delay(0.3, 3)
            .with_retries(2)
            .with_staleness_bound(3);
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_epsilon(1e-6)
            .with_max_rounds(100_000)
            .with_chaos(plan)
            .run(&[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(r.converged, "heavy but recoverable chaos still converges");
        for it in &r.iterates {
            let sum: f64 = it.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "iterate sum {sum}");
            assert!(it.iter().all(|v| *v >= -1e-9));
        }
        assert!(r.faults.dropped > 0);
        assert!(r.faults.delayed > 0);
        assert!(r.faults.duplicated > 0);
    }

    #[test]
    fn stale_reuse_and_exclusion_are_counted() {
        let p = paper_problem();
        // Heavy drop, no retries: with a staleness bound reports get
        // reused; without one agents get excluded.
        let with_stale = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_max_rounds(5_000)
            .with_chaos(ChaosPlan::new(3).with_drop(0.4).with_staleness_bound(4))
            .run(&[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(with_stale.faults.stale_reuses > 0);
        let without_stale = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_max_rounds(5_000)
            .with_chaos(ChaosPlan::new(3).with_drop(0.4))
            .run(&[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(without_stale.faults.excluded_agent_rounds > 0);
    }

    #[test]
    fn crash_and_rejoin_change_membership() {
        let p = paper_problem();
        let plan = ChaosPlan::new(0).crash(3, 2).rejoin(10, 2);
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.05)
            .with_epsilon(1e-7)
            .with_max_rounds(100_000)
            .with_chaos(plan)
            .run(&[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
            .unwrap();
        assert_eq!(r.faults.crashes, 1);
        assert_eq!(r.faults.rejoins, 1);
        assert!(r.converged);
        // The rejoined agent wins back a share of the file.
        assert!(r.allocation[2] > 0.01, "{:?}", r.allocation);
        let sum: f64 = r.allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for it in &r.iterates {
            let s: f64 = it.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn crash_without_rejoin_converges_among_survivors() {
        let p = paper_problem();
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.05)
            .with_epsilon(1e-7)
            .with_max_rounds(100_000)
            .with_chaos(ChaosPlan::new(0).crash(0, 1))
            .run(&[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(r.converged);
        assert_eq!(r.allocation[1], 0.0);
        for (i, v) in r.allocation.iter().enumerate() {
            if i != 1 {
                assert!((v - 1.0 / 3.0).abs() < 1e-2, "{:?}", r.allocation);
            }
        }
    }

    #[test]
    fn central_scheme_bills_retries_on_the_downlink() {
        let p = paper_problem();
        let plan = ChaosPlan::new(5).with_drop(0.3).with_retries(2).with_staleness_bound(2);
        let r = SimRun::new(&p, ExchangeScheme::Central { coordinator: 0 }, 0.1)
            .with_max_rounds(50_000)
            .with_chaos(plan)
            .run(&[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(r.faults.retries > 0);
        assert!(r.faults.sent > r.messages.total, "physical transmissions exceed nominal bill");
    }

    #[test]
    fn rejects_central_coordinator_crash_and_bad_plans() {
        let p = paper_problem();
        let crash_coord = SimRun::new(&p, ExchangeScheme::Central { coordinator: 2 }, 0.1)
            .with_chaos(ChaosPlan::new(0).crash(1, 2));
        assert!(crash_coord.run(&[0.25; 4], &mut NoopRecorder).is_err());
        let bad_drop = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_chaos(ChaosPlan::new(0).with_drop(2.0));
        assert!(bad_drop.run(&[0.25; 4], &mut NoopRecorder).is_err());
        let off_simplex = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1);
        assert!(off_simplex.run(&[0.5; 4], &mut NoopRecorder).is_err());
    }

    #[test]
    fn observed_run_is_identical_and_telemetry_matches_the_summary() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let plan = ChaosPlan::new(7).with_drop(0.2).with_retries(1).with_staleness_bound(2);
        let sim = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_epsilon(1e-6)
            .with_max_rounds(50_000)
            .with_chaos(plan);

        let plain = sim.run(&x0, &mut NoopRecorder).unwrap();
        let mut tele = fap_obs::Telemetry::manual();
        let observed = sim.run(&x0, &mut tele).unwrap();
        assert_eq!(plain, observed, "recording must not perturb the run");

        // The external sink saw the same stream the summary was built from.
        assert_eq!(FaultCounters::from_registry(tele.registry()), observed.faults);
        let drops = tele
            .events()
            .iter()
            .filter(|e| {
                e.name() == "fault" && e.field("kind") == Some(Value::Str("drop"))
            })
            .count() as u64;
        assert_eq!(drops, observed.faults.dropped);
        let round_events =
            tele.events().iter().filter(|e| e.name() == "round").count();
        assert_eq!(round_events, observed.rounds + 1);
        assert_eq!(tele.events().last().unwrap().name(), "run_end");
        // Latency histogram lives on virtual (round) time.
        let latency = tele.registry().histogram("sim.report_latency_rounds").unwrap();
        assert!(latency.count() > 0);
    }

    #[test]
    fn same_seed_telemetry_is_byte_identical() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let record = |seed: u64| {
            let mut tele = fap_obs::Telemetry::manual();
            SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
                .with_epsilon(1e-6)
                .with_max_rounds(50_000)
                .with_chaos(
                    ChaosPlan::new(seed).with_drop(0.2).with_retries(1).with_staleness_bound(2),
                )
                .run(&x0, &mut tele)
                .unwrap();
            tele.to_jsonl()
        };
        assert_eq!(record(7), record(7), "same seed must record identical JSONL");
        assert_ne!(record(7), record(8), "different seeds must record different JSONL");
    }

    #[test]
    fn iterates_start_at_initial_and_end_at_allocation() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.19)
            .with_epsilon(1e-6)
            .run(&x0, &mut NoopRecorder)
            .unwrap();
        assert_eq!(r.iterates[0], x0.to_vec());
        assert_eq!(r.iterates.last().unwrap(), &r.allocation);
        assert_eq!(r.iterates.len(), r.rounds + 1);
        assert_eq!(r.fresh_rounds.len(), r.rounds + 1);
        assert_eq!(r.membership_rounds.len(), r.rounds + 1);
        assert!(r.fresh_rounds.iter().all(|f| *f), "zero-fault run is all fresh");
        assert!(r.membership_rounds.iter().all(|m| !*m));
    }
}
