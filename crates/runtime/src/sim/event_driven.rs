//! The event-driven chaos engine: agents react to events on a virtual
//! clock instead of marching through a lock-step round loop.
//!
//! Each round `r` unfolds as a deterministic event cascade on a
//! [`Reactor`]:
//!
//! 1. **`BeginRound`** (tick `r`) — membership changes fire (crashes,
//!    then rejoins), the nominal message bill is recorded, and every
//!    delayed report completing at `r` is re-scheduled as an `Arrival`
//!    event at the same tick. Then one `Wake` per agent and a closing
//!    `Deadline` are scheduled, all at tick `r`.
//! 2. **`Arrival`** — a late report reaches the group and refreshes the
//!    stale table (newest-wins), before any agent wakes.
//! 3. **`Wake(i)`** — agent `i` evaluates its marginal and transmits its
//!    report over the lossy channel (broadcast or to the coordinator).
//! 4. **`Deadline`** — the round commits: effective marginals are
//!    resolved (fresh / stale-within-bound / excluded), the §5.2 step is
//!    computed and applied, convergence is checked, and the next
//!    `BeginRound` is scheduled at `r + 1`.
//!
//! FIFO ordering within a tick (inherited from
//! [`EventQueue`](super::EventQueue)) makes the cascade a pure function
//! of the schedule, and because [`LossyChannel`] draws every fate from
//! the transmission's *coordinates* — never from draw order — this engine
//! is bit-identical to the round-synchronous reference
//! ([`SimRun::run_round_synchronous`]) under every chaos plan, fault-free
//! or hostile. The equivalence suite pins exactly that.

use fap_econ::projection::{compute_step, StepOutcome};
use fap_econ::trace::IterationRecord;
use fap_econ::{marginal_spread, Trace};
use fap_obs::{Recorder, Value};

use super::channel::{LateReport, LossyChannel};
use super::executor::{SimRun, StaleEntry, DEAD_MARGINAL};
use super::report::{FaultCounters, SimReport};
use crate::error::RuntimeError;
use crate::local::LocalObjective;
use crate::message::MessageStats;
use crate::reactor::Reactor;
use crate::round;
use crate::scheme::ExchangeScheme;

/// One event of the per-round cascade.
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// Start-of-round housekeeping; fans out the rest of the cascade.
    BeginRound,
    /// A delayed report completes and refreshes the stale table.
    Arrival(LateReport),
    /// Agent `i` evaluates its marginal and transmits its report.
    Wake(usize),
    /// End of round: resolve marginals, step, check convergence.
    Deadline,
}

impl<'a, O: LocalObjective> SimRun<'a, O> {
    /// The event-driven engine behind [`SimRun::run`]. Produces the same
    /// recorder stream and the same [`SimReport`] as the round-synchronous
    /// loop, bit for bit.
    pub(super) fn run_event_driven(
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

        // Run-long state, identical to the reference engine.
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

        // Per-round scratch, reset by each BeginRound.
        let mut g = vec![0.0; n];
        let mut utility = 0.0;
        let mut fresh = vec![false; n];
        let mut membership_changed = false;
        let mut alive_count = n;

        let mut reactor: Reactor<SimEvent> = Reactor::new();
        reactor.schedule(0, SimEvent::BeginRound);

        while let Some(event) = reactor.pop_next() {
            let rounds = reactor.now();
            match event {
                SimEvent::BeginRound => {
                    recorder.set_time(rounds as u64);
                    membership_changed = false;
                    // Membership events fire at the start of the round:
                    // crashes first, then rejoins (as the plan validation
                    // replays them).
                    for &(when, agent) in &self.plan.crashes {
                        if when == rounds && alive[agent] {
                            membership_changed = true;
                            alive[agent] = false;
                            stale[agent] = None;
                            recorder.incr("sim.crashes", 1);
                            recorder.emit(
                                "crash",
                                &[
                                    ("round", Value::U64(rounds as u64)),
                                    ("agent", Value::U64(agent as u64)),
                                ],
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
                                &[
                                    ("round", Value::U64(rounds as u64)),
                                    ("agent", Value::U64(agent as u64)),
                                ],
                            );
                            x[agent] = 0.0;
                        }
                    }
                    alive_count = alive.iter().filter(|a| **a).count();
                    messages
                        .record_round(self.scheme.messages_per_round(alive_count, self.counting));
                    g.iter_mut().for_each(|gi| *gi = 0.0);
                    fresh.iter_mut().for_each(|f| *f = false);
                    utility = 0.0;
                    // Delayed reports completing this round become Arrival
                    // events, processed (FIFO) before any agent wakes.
                    for late in channel.arrivals(rounds) {
                        reactor.schedule(rounds, SimEvent::Arrival(late));
                    }
                    for i in 0..n {
                        reactor.schedule(rounds, SimEvent::Wake(i));
                    }
                    reactor.schedule(rounds, SimEvent::Deadline);
                }

                SimEvent::Arrival(late) => {
                    if alive[late.from]
                        && stale[late.from].is_none_or(|e| e.round < late.sent_round)
                    {
                        stale[late.from] =
                            Some(StaleEntry { round: late.sent_round, marginal: late.marginal });
                    }
                }

                SimEvent::Wake(i) => {
                    if !alive[i] {
                        continue;
                    }
                    // §5.2 step (a) for this agent: local marginal and
                    // utility — then its report crosses the channel.
                    g[i] = self.objective.local_marginal(i, x[i])?;
                    utility += self.objective.local_utility(i, x[i])?;
                    let targets = self.report_targets(i, &alive);
                    if targets.is_empty() {
                        // Nothing to transmit (sole survivor, or the
                        // central coordinator itself): trivially heard.
                        fresh[i] = true;
                        stale[i] = Some(StaleEntry { round: rounds, marginal: g[i] });
                        continue;
                    }
                    match channel.broadcast_report(rounds, i, &targets, g[i], x[i], recorder) {
                        Some(done) if done == rounds => {
                            fresh[i] = true;
                            stale[i] = Some(StaleEntry { round: rounds, marginal: g[i] });
                        }
                        // Late or lost: the stale table is refreshed by an
                        // Arrival event when (and if) the report completes.
                        _ => {}
                    }
                }

                SimEvent::Deadline => {
                    let all_fresh = (0..n).all(|i| !alive[i] || fresh[i]);
                    fresh_rounds.push(all_fresh);
                    membership_rounds.push(membership_changed);

                    // Effective marginals: fresh where heard, stale within
                    // the bound, otherwise the agent is excluded.
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
                                    if rounds - entry.round
                                        <= self.plan.staleness_bound as usize =>
                                {
                                    g_eff[i] = entry.marginal;
                                    included[i] = true;
                                    recorder.incr("sim.stale_reuses", 1);
                                    recorder.emit(
                                        "stale",
                                        &[
                                            ("round", Value::U64(rounds as u64)),
                                            ("agent", Value::U64(i as u64)),
                                            (
                                                "age",
                                                Value::U64((rounds - entry.round) as u64),
                                            ),
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

                    // §5.2 step (b): the identical reallocation over the
                    // included agents.
                    let outcome = if all_fresh && alive_count == n {
                        compute_step(&x, &g_eff, &weights, self.alpha, self.boundary)
                    } else {
                        let idx: Vec<usize> = (0..n).filter(|&i| included[i]).collect();
                        let sub_x: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
                        let sub_g: Vec<f64> = idx.iter().map(|&i| g_eff[i]).collect();
                        let sub_w = vec![1.0; idx.len()];
                        let sub =
                            compute_step(&sub_x, &sub_g, &sub_w, self.alpha, self.boundary);
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

                    if let ExchangeScheme::Central { coordinator } = self.scheme {
                        self.account_assignments(
                            rounds,
                            coordinator,
                            &alive,
                            &mut channel,
                            recorder,
                        );
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
                        // The caller fills `faults` from the recorded
                        // stream — see `SimRun::run`.
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
                    reactor.schedule(rounds + 1, SimEvent::BeginRound);
                }
            }
        }
        unreachable!("the Deadline handler terminates every run at or before max_rounds")
    }
}

#[cfg(test)]
mod tests {
    use super::super::chaos::ChaosPlan;
    use super::*;
    use fap_core::SingleFileProblem;
    use fap_net::{topology, AccessPattern};
    use fap_obs::NoopRecorder;

    fn paper_problem() -> SingleFileProblem {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
    }

    /// The two engines agree bit for bit even under a hostile plan — the
    /// stronger form of the zero-fault equivalence the integration suite
    /// checks, possible because channel fates are coordinate-keyed.
    #[test]
    fn engines_agree_under_hostile_chaos() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        for seed in [3, 17, 99] {
            let plan = ChaosPlan::new(seed)
                .with_drop(0.25)
                .with_duplication(0.1)
                .with_delay(0.3, 2)
                .with_staleness_bound(2)
                .with_retries(1)
                .crash(5, 2)
                .rejoin(15, 2);
            let sim = SimRun::new(&p, ExchangeScheme::Broadcast, 0.19)
                .with_epsilon(1e-3)
                .with_max_rounds(10_000)
                .with_chaos(plan);
            let event_driven = sim.run(&x0, &mut NoopRecorder).unwrap();
            let lock_step = sim.run_round_synchronous(&x0, &mut NoopRecorder).unwrap();
            assert_eq!(event_driven, lock_step, "seed {seed}");
        }
    }

    /// Telemetry byte-identity between the engines: same events, same
    /// order, same timestamps.
    #[test]
    fn engines_record_identical_telemetry() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let plan = ChaosPlan::new(7).with_drop(0.2).with_retries(1).with_staleness_bound(2);
        let sim = SimRun::new(&p, ExchangeScheme::Central { coordinator: 0 }, 0.1)
            .with_epsilon(1e-6)
            .with_max_rounds(50_000)
            .with_chaos(plan);
        let mut event_tele = fap_obs::Telemetry::manual();
        let mut lock_tele = fap_obs::Telemetry::manual();
        let a = sim.run(&x0, &mut event_tele).unwrap();
        let b = sim.run_round_synchronous(&x0, &mut lock_tele).unwrap();
        assert_eq!(a, b);
        assert_eq!(event_tele.to_jsonl(), lock_tele.to_jsonl());
    }
}
