//! Reallocation steps and the paper's "set A" boundary procedure.
//!
//! One iteration of the resource-directed algorithm moves the allocation by
//!
//! ```text
//! Δx_i = α · w_i · ( g_i − avg_w )        over the active set A
//! avg_w = Σ_{j∈A} w_j g_j / Σ_{j∈A} w_j
//! ```
//!
//! where `g_i = ∂U/∂x_i` and the weights `w_i` are all 1 for the first-order
//! algorithm (recovering the paper's §5.2 step exactly) or `1/|∂²U/∂x_i²|`
//! for the second-derivative variant of §8.2. In either case
//! `Σ_{i∈A} Δx_i = 0` identically, which is what makes every iteration
//! feasibility-preserving (paper Theorem 1).
//!
//! Non-negativity is handled by a [`BoundaryRule`]:
//!
//! * [`BoundaryRule::FreezeActiveSet`] — the paper's §5.2 procedure: agents
//!   whose update would drive them negative are excluded from `A` (their
//!   allocation freezes this iteration), then excluded agents with
//!   above-average marginal utility are re-admitted in decreasing marginal
//!   order (steps (i)–(v) of the paper).
//! * [`BoundaryRule::ScaleStep`] — shrink the whole step uniformly until no
//!   agent goes negative (preserves the step direction).
//! * [`BoundaryRule::Unconstrained`] — no boundary handling; allocations may
//!   transiently go negative. This is what the paper's own Figure 3
//!   simulation evidently does: with `α = 0.67` from start `(0.8, 0.1, 0.1,
//!   0.0)` the first step drives node 1 to `x < 0`, yet the paper reports
//!   4-iteration convergence, which only the unconstrained update achieves.
//!
//! [`BoundaryRule::ClampToZero`] (the default) pins violators to zero one at
//! a time, each after a full `O(n)` pass over the agents. For unit weights
//! the pinned set is the zero set of the Euclidean simplex projection of
//! `x + α·g`, which one sort finds (Duchi et al., ICML 2008) — but reading
//! it off the sort is not bit-identical to the passes at near-ties. So the
//! clamp instead *replays* the passes' pin sequence from the sort, in
//! `O(n log n)`, and certifies each replayed pin against a derived rounding
//! bound `B`; a pin it cannot certify, and the final deltas, run one real
//! pass. The result is the pass loop's to the bit (see `PinReplay` in the
//! source for the derivation of `B`). Weighted steps run the pass loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

/// How an iteration treats agents that a raw step would drive below zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BoundaryRule {
    /// The paper's §5.2 set-A procedure (freeze violators, re-admit
    /// high-marginal agents). The default. Note the known limitation the
    /// paper does not address: an agent whose step *overshoots* zero from a
    /// clearly positive allocation freezes in place and can stall short of
    /// (or far from) the boundary; use [`BoundaryRule::ClampToZero`] when a
    /// expected to have agents exactly at zero.
    FreezeActiveSet,
    /// Violators move exactly onto the boundary (`x = 0`) and release their
    /// whole allocation to the remaining agents. A safeguarded variant of
    /// the paper's rule that converges cleanly to boundary optima and never
    /// deadlocks on step overshoot; the default.
    #[default]
    ClampToZero,
    /// Uniformly scale the step back until all allocations stay
    /// non-negative.
    ScaleStep,
    /// Apply the raw step; allocations may transiently go negative.
    Unconstrained,
}

/// The outcome of computing one reallocation step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Per-agent changes `Δx_i`; zero for agents outside the active set.
    pub deltas: Vec<f64>,
    /// Membership of the active set `A`.
    pub active: Vec<bool>,
    /// Factor the step was scaled by (1.0 except under
    /// [`BoundaryRule::ScaleStep`]).
    pub scale: f64,
}

impl StepOutcome {
    /// Number of agents in the active set.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }
}

/// Reusable buffers for [`compute_step_into`]: the hot-loop variant of
/// [`compute_step`] that allocates nothing once the workspace has been
/// warmed to the problem dimension.
///
/// Two workspaces compare equal when their last steps do (deltas, active
/// set and scale); the clamp's scratch buffers are not compared.
#[derive(Debug, Clone, Default)]
pub struct StepWorkspace {
    deltas: Vec<f64>,
    active: Vec<bool>,
    scale: f64,
    clamp: ClampScratch,
}

impl PartialEq for StepWorkspace {
    fn eq(&self, other: &Self) -> bool {
        self.deltas == other.deltas && self.active == other.active && self.scale == other.scale
    }
}

impl StepWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        StepWorkspace::default()
    }

    /// Per-agent changes `Δx_i` of the last computed step; zero for agents
    /// outside the active set.
    pub fn deltas(&self) -> &[f64] {
        &self.deltas
    }

    /// Membership of the active set `A` of the last computed step.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Factor the last step was scaled by (1.0 except under
    /// [`BoundaryRule::ScaleStep`]).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Number of agents in the active set of the last computed step.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Copies the workspace out into an owned [`StepOutcome`].
    pub fn to_outcome(&self) -> StepOutcome {
        StepOutcome { deltas: self.deltas.clone(), active: self.active.clone(), scale: self.scale }
    }

    /// Resizes the buffers for `n` agents: all deltas zero, all agents
    /// active, scale 1; under [`BoundaryRule::ClampToZero`] the clamp's
    /// scratch is sized for `n` too, before any step needs it.
    /// Allocation-free once capacity covers `n`.
    fn reset(&mut self, n: usize, rule: BoundaryRule) {
        self.deltas.clear();
        self.deltas.resize(n, 0.0);
        self.active.clear();
        self.active.resize(n, true);
        self.scale = 1.0;
        if rule == BoundaryRule::ClampToZero {
            self.clamp.reset(n);
        }
    }
}

/// Re-projects an allocation onto the simplex `Σ x_i = total, x_i ≥ 0`.
///
/// This is the warm-start companion of the set-A procedure: a previously
/// converged allocation reused as a seed may carry tiny feasibility drift
/// (accumulated rounding, or boundary agents at `−1e-17` from a clamped
/// step), and the optimizer's Theorem-1 argument needs every *starting*
/// iterate exactly feasible. The projection
///
/// 1. clamps negative (and NaN) entries to the boundary `x_i = 0` — exactly
///    what the set-A rules do to violators, so the seed's active set is
///    preserved;
/// 2. rescales the remaining mass to `Σ x_i = total` (zeros stay zero);
/// 3. absorbs the final rounding residue into the largest coordinate, so the
///    budget constraint holds exactly rather than to within an ulp;
/// 4. falls back to the uniform allocation if the seed carried no positive
///    mass at all.
///
/// # Panics
///
/// Panics if `total` is not positive and finite.
pub fn project_onto_simplex(x: &mut [f64], total: f64) {
    assert!(total.is_finite() && total > 0.0, "simplex total must be positive and finite");
    if x.is_empty() {
        return;
    }
    let mut sum = 0.0;
    for v in x.iter_mut() {
        if v.is_nan() || *v <= 0.0 {
            *v = 0.0;
        }
        sum += *v;
    }
    if sum > 0.0 {
        let scale = total / sum;
        for v in x.iter_mut() {
            *v *= scale;
        }
        let imax = (0..x.len())
            .max_by(|&a, &b| x[a].total_cmp(&x[b]))
            .expect("non-empty slice");
        let others: f64 = x.iter().enumerate().filter(|(i, _)| *i != imax).map(|(_, v)| v).sum();
        x[imax] = (total - others).max(0.0);
    } else {
        x.fill(total / x.len() as f64);
    }
}

/// Computes one reallocation step.
///
/// `weights` are the per-agent step weights (`w_i` above); pass all-ones for
/// the paper's first-order algorithm. All slices must have equal length, the
/// step size `alpha` must be positive and finite, and weights must be
/// positive; violations are programming errors.
///
/// This is a thin wrapper over [`compute_step_into`] with a fresh
/// [`StepWorkspace`]; hot loops should hold a workspace and call the `_into`
/// variant directly.
///
/// # Panics
///
/// Panics if slice lengths differ, `alpha` is not positive and finite, or
/// any weight is not positive and finite.
pub fn compute_step(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    rule: BoundaryRule,
) -> StepOutcome {
    let mut ws = StepWorkspace::new();
    compute_step_into(x, marginals, weights, alpha, rule, &mut ws);
    StepOutcome { deltas: ws.deltas, active: ws.active, scale: ws.scale }
}

/// Computes one reallocation step into a reusable [`StepWorkspace`].
///
/// Semantics are identical to [`compute_step`] (bit-for-bit: the same
/// arithmetic in the same order); the only difference is that results land
/// in the workspace's buffers, so steady-state iterations perform zero heap
/// allocations.
///
/// # Panics
///
/// Same conditions as [`compute_step`].
pub fn compute_step_into(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    rule: BoundaryRule,
    workspace: &mut StepWorkspace,
) {
    let n = x.len();
    assert_eq!(marginals.len(), n, "marginals length mismatch");
    assert_eq!(weights.len(), n, "weights length mismatch");
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive and finite");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "weights must be positive and finite"
    );

    workspace.reset(n, rule);
    let StepWorkspace { deltas, active, scale, clamp } = workspace;
    match rule {
        BoundaryRule::Unconstrained => {
            raw_deltas_into(marginals, weights, active, alpha, deltas);
        }
        BoundaryRule::ScaleStep => {
            raw_deltas_into(marginals, weights, active, alpha, deltas);
            // Largest s in (0, 1] with x_i + s·Δ_i ≥ 0 for all i.
            let mut s = 1.0f64;
            for i in 0..n {
                if deltas[i] < 0.0 {
                    let limit = -x[i] / deltas[i]; // ≥ 0 since x_i ≥ 0
                    s = s.min(limit);
                }
            }
            s = s.clamp(0.0, 1.0);
            for d in deltas.iter_mut() {
                *d *= s;
            }
            *scale = s;
        }
        BoundaryRule::FreezeActiveSet => {
            freeze_active_set_into(x, marginals, weights, alpha, deltas, active);
        }
        BoundaryRule::ClampToZero => {
            clamp_to_zero_into(x, marginals, weights, alpha, deltas, active, clamp);
        }
    }
}

/// Violators are pinned exactly to zero (`Δx_v = −x_v`), releasing their
/// mass; the free agents share the released mass equally on top of their
/// zero-sum raw step. Pinning cascades: each [`clamp_pass`] pins the free
/// violator with the lowest marginal (ties to the lower index), and the step
/// is final once a pass finds none. `active` enters all-true and tracks the
/// not-yet-pinned set.
///
/// Run literally, that is one `O(n)` pass per pinned agent. With unit weights
/// (every first-order step) and finite inputs, the pin sequence is instead
/// *replayed* from the agents sorted by `k_i = x_i + α·g_i` (see
/// [`PinReplay`]), and only the stages the replay cannot certify — plus the
/// final deltas — run a real pass. The replay pins exactly the agents the
/// passes would, in the same order, so the result is bit-for-bit the pass
/// loop's. Weighted (§8.2 second-order) steps run the pass loop.
fn clamp_to_zero_into(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    deltas: &mut [f64],
    active: &mut [bool],
    scratch: &mut ClampScratch,
) {
    // Most steps pin nothing: the first pass is the whole step.
    let Some(first) = clamp_pass(x, marginals, weights, alpha, deltas, active) else {
        return;
    };
    let mut replay = if weights.iter().all(|&w| w == 1.0) {
        PinReplay::start(x, marginals, alpha, first, &mut scratch.order, &mut scratch.heap)
    } else {
        None
    };
    let replayed = replay.is_some();
    loop {
        let certified = replay.as_mut().and_then(|r| r.certified_pin(active));
        let pinned = match certified {
            Some(v) => {
                active[v] = false;
                v
            }
            None => match clamp_pass(x, marginals, weights, alpha, deltas, active) {
                Some(v) => v,
                None => break,
            },
        };
        if let Some(r) = replay.as_mut() {
            r.record_pin(pinned);
        }
    }
    // Debug builds hold every replayed step to the pass loop, bit for bit.
    if cfg!(debug_assertions) && replayed {
        let (check_deltas, check_active) = &mut scratch.check;
        check_deltas.clear();
        check_deltas.resize(x.len(), 0.0);
        check_active.clear();
        check_active.resize(x.len(), true);
        clamp_by_passes(x, marginals, weights, alpha, check_deltas, check_active);
        assert!(
            check_active == active
                && check_deltas.iter().zip(&*deltas).all(|(a, b)| a.to_bits() == b.to_bits()),
            "clamp replay diverged from the pass loop"
        );
    }
}

/// The clamp as the plain pass loop: one [`clamp_pass`] per pinned agent.
fn clamp_by_passes(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    deltas: &mut [f64],
    active: &mut [bool],
) {
    while clamp_pass(x, marginals, weights, alpha, deltas, active).is_some() {}
}

/// One pass of the clamp loop over the current free set: writes the step
/// (raw deltas plus an equal share of the pinned agents' released mass;
/// `−x_v` for every pinned `v`) into `deltas`, then pins and returns the
/// free violator (`x_i + Δx_i < 0`) with the lowest marginal, ties to the
/// lower index. `None` means `deltas` is the final step.
fn clamp_pass(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    deltas: &mut [f64],
    active: &mut [bool],
) -> Option<usize> {
    let n = x.len();
    let free_count = active.iter().filter(|a| **a).count();
    if free_count == 0 {
        deltas.fill(0.0);
        return None;
    }
    raw_deltas_into(marginals, weights, active, alpha, deltas);
    let released: f64 = (0..n).filter(|&i| !active[i]).map(|i| x[i]).sum();
    let share = released / free_count as f64;
    for i in 0..n {
        if active[i] {
            deltas[i] += share;
        } else {
            deltas[i] = -x[i];
        }
    }
    let violator = (0..n)
        .filter(|&i| active[i] && x[i] + deltas[i] < 0.0)
        .min_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));
    if let Some(v) = violator {
        active[v] = false;
    }
    violator
}

/// Scratch of the unit-weight clamp replay, sized with the workspace so
/// steady-state steps allocate nothing.
#[derive(Debug, Clone, Default)]
struct ClampScratch {
    /// `(k_i, i)` for every agent, sorted by `k_i = x_i + α·g_i`.
    order: Vec<(f64, usize)>,
    /// Certain violators, as a min-heap on `(g_i, i)` in `total_cmp` order.
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// Debug builds only: the pass loop's deltas and active set.
    check: (Vec<f64>, Vec<bool>),
}

impl ClampScratch {
    /// Empties the buffers and sizes them for `n` agents.
    fn reset(&mut self, n: usize) {
        self.order.clear();
        self.order.reserve(n);
        self.heap.clear();
        self.heap.reserve(n);
        if cfg!(debug_assertions) {
            self.check.0.clear();
            self.check.0.reserve(n);
            self.check.1.clear();
            self.check.1.reserve(n);
        }
    }
}

/// A key whose integer order is `f64::total_cmp`'s order (the same bit
/// transform `total_cmp` applies).
fn total_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Replays the clamp loop's pin sequence for unit weights.
///
/// With `w ≡ 1` a pass over free set `A` (`m = |A|`, pinned set `P`) tests,
/// for each free `i`,
///
/// ```text
/// x_i + α(g_i − avg) + share < 0,   avg = Σ_A g / m,   share = Σ_P x / m
/// ⇔   k_i < τ,                       k_i = x_i + α g_i,  τ = α·avg − share
/// ```
///
/// in exact arithmetic, and pins the violator with the least `(g_i, i)`.
/// Each pin raises `τ` (to `τ + (τ − k_v)/(m − 1)`), so violators only
/// accumulate. The replay keeps `Σ_A g` and `Σ_P x` as running sums, reads
/// `τ` off them, walks the agents in `k` order, and moves every free agent
/// with `k < τ − B` into a min-`(g, i)` heap of *certain* violators. It pins
/// the heap's top `h` without a pass when `h` is still certain and its
/// `(g, i)` is below that of every free agent in the uncertain window
/// `[τ − B, τ + B]`: every agent the pass could call a violator is then in
/// the heap or the window, so `h` is exactly the pass's choice.
///
/// **The bound `B`.** The pass decides on floats: its `avg` and `share` come
/// from index-order sums, and `fl(x_i + fl(fl(α·fl(g_i − avg)) + share))` is
/// what it compares with zero; the replay compares `k̂_i = fl(x_i + fl(α g_i))`
/// with `τ̂ = fl(fl(α·fl(Ŝ_g/m)) − fl(Ŝ_x/m))` from its running sums. With
/// `u = 2⁻⁵³`, `γ_j = j·u/(1 − j·u)`, `G = max|g|`, `ΣG = Σ|g|`, `X = Σ|x|`
/// and `n` agents (so `m ≤ n`), the standard recursive-summation bound
/// `γ_{j−1}·Σ|terms|` gives
///
/// * the pass's `avg` within `γ_{n+1}·G` of `Σ_A g/m`, its `share` within
///   `γ_{n+1}·X/m` of `Σ_P x/m`;
/// * the running sum `Ŝ_g` (all of `g`, then one subtraction per pin: at
///   most `2n` terms of total magnitude `2·ΣG`) within `γ_{2n}·2ΣG`, so its
///   `avg` within `γ_{2n}·2ΣG/m + u·G`; its `share` within `γ_{n+1}·X/m`;
/// * forming `τ̂`: `2u·(αG + X)`; forming `k̂_i`: `2u·αG + u·X`; the pass's
///   own step arithmetic: `γ_3·2αG + u·X`.
///
/// Summed, the pass's tested value differs from `k̂_i − τ̂` by at most
/// `u·[(n + 10)·αG + 3X + 4n·αΣG/m + (2n + 2)·X/m]·(1 + 10⁻²)` for any
/// `n < 2⁴⁶`. The replay uses
///
/// ```text
/// B(m) = 2u·[ (n + 12)·(αG + X) + (4n + 2)·(αΣG + X)/m ] + f64::MIN_POSITIVE
/// ```
///
/// whose factor 2 also covers the rounding of `B`, `τ̂ ± B` and the running
/// sums' own inputs, and whose `MIN_POSITIVE` covers the absolute error of a
/// product or quotient that underflows. `B` only widens the window: a wider
/// window costs passes, never bits.
struct PinReplay<'a> {
    x: &'a [f64],
    marginals: &'a [f64],
    alpha: f64,
    order: &'a [(f64, usize)],
    heap: &'a mut BinaryHeap<Reverse<(i64, usize)>>,
    /// Running `Σ_A g` over the free set.
    free_marginals: f64,
    /// Running `Σ_P x` over the pinned set.
    released: f64,
    free: usize,
    /// Next position of `order` not yet moved into the heap.
    next: usize,
    /// `B(m) = bound_fixed + bound_per_free / m`.
    bound_fixed: f64,
    bound_per_free: f64,
}

impl<'a> PinReplay<'a> {
    /// Sorts the agents after the first pass pinned `first`; `None` when an
    /// input or the bound is not finite (the pass loop then runs alone).
    fn start(
        x: &'a [f64],
        marginals: &'a [f64],
        alpha: f64,
        first: usize,
        order: &'a mut Vec<(f64, usize)>,
        heap: &'a mut BinaryHeap<Reverse<(i64, usize)>>,
    ) -> Option<Self> {
        let n = x.len();
        order.clear();
        heap.clear();
        let (mut g_max, mut g_abs, mut x_abs, mut g_sum) = (0.0f64, 0.0, 0.0, 0.0);
        for (i, (&xi, &gi)) in x.iter().zip(marginals).enumerate() {
            // A finite key implies a finite x_i and g_i.
            let k = xi + alpha * gi;
            if !k.is_finite() {
                return None;
            }
            order.push((k, i));
            g_max = g_max.max(gi.abs());
            g_abs += gi.abs();
            x_abs += xi.abs();
            g_sum += gi;
        }
        let u = f64::EPSILON / 2.0;
        let nf = n as f64;
        let bound_fixed = 2.0 * u * (nf + 12.0) * (alpha * g_max + x_abs) + f64::MIN_POSITIVE;
        let bound_per_free = 2.0 * u * (4.0 * nf + 2.0) * (alpha * g_abs + x_abs);
        if !(bound_fixed.is_finite() && bound_per_free.is_finite()) {
            return None;
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        Some(PinReplay {
            x,
            marginals,
            alpha,
            order,
            heap,
            free_marginals: g_sum - marginals[first],
            released: x[first],
            free: n - 1,
            next: 0,
            bound_fixed,
            bound_per_free,
        })
    }

    /// The agent the next pass would pin, when the replay can certify it.
    fn certified_pin(&mut self, active: &[bool]) -> Option<usize> {
        if self.free == 0 {
            return None;
        }
        let m = self.free as f64;
        let tau = self.alpha * (self.free_marginals / m) - self.released / m;
        let bound = self.bound_fixed + self.bound_per_free / m;
        let (lo, hi) = (tau - bound, tau + bound);
        while let Some(&(k, i)) = self.order.get(self.next) {
            if k >= lo {
                break;
            }
            if active[i] {
                self.heap.push(Reverse((total_order_key(self.marginals[i]), i)));
            }
            self.next += 1;
        }
        while let Some(&Reverse((_, top))) = self.heap.peek() {
            if active[top] {
                break;
            }
            self.heap.pop();
        }
        let &Reverse(top) = self.heap.peek()?;
        let v = top.1;
        if self.x[v] + self.alpha * self.marginals[v] >= lo {
            return None;
        }
        for &(k, i) in &self.order[self.next..] {
            if k > hi {
                break;
            }
            if active[i] && (total_order_key(self.marginals[i]), i) < top {
                return None;
            }
        }
        self.heap.pop();
        Some(v)
    }

    /// Moves a newly pinned agent (by the replay or by a pass) from the free
    /// sums to the released mass.
    fn record_pin(&mut self, v: usize) {
        self.free_marginals -= self.marginals[v];
        self.released += self.x[v];
        self.free -= 1;
    }
}

/// Raw step over the given active set: `Δx_i = α w_i (g_i − avg_w)` for
/// active `i`, zero otherwise.
fn raw_deltas_into(
    marginals: &[f64],
    weights: &[f64],
    active: &[bool],
    alpha: f64,
    out: &mut [f64],
) {
    let avg = weighted_average(marginals, weights, active);
    for i in 0..marginals.len() {
        out[i] = if active[i] { alpha * weights[i] * (marginals[i] - avg) } else { 0.0 };
    }
}

/// Weighted average marginal utility over the active set.
fn weighted_average(marginals: &[f64], weights: &[f64], active: &[bool]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..marginals.len() {
        if active[i] {
            num += weights[i] * marginals[i];
            den += weights[i];
        }
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The paper's §5.2 procedure for computing the set `A`, generalized to
/// weighted steps:
///
/// 1. `A = { i | x_i + Δx_i > 0 }` with `Δx` computed over all agents;
/// 2. repeatedly re-admit the excluded agent with the highest marginal
///    utility while it exceeds the active-set average;
/// 3. recompute `Δx` over the final `A` (with a safeguarded re-removal pass
///    in case the recomputed average creates new violations — the paper's
///    statement overlooks this corner).
///
/// `active` enters all-true; `deltas` is used for the tentative full step
/// first and holds the final deltas on return.
fn freeze_active_set_into(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    deltas: &mut [f64],
    active: &mut [bool],
) {
    let n = x.len();

    // Step (i): tentative full step, drop agents driven non-positive.
    raw_deltas_into(marginals, weights, active, alpha, deltas);
    for i in 0..n {
        if x[i] + deltas[i] <= 0.0 {
            active[i] = false;
        }
    }
    // Degenerate: everything excluded (only possible when total ≈ 0).
    if active.iter().all(|a| !a) {
        deltas.fill(0.0);
        return;
    }

    // Steps (ii)–(v): re-admit excluded agents with above-average marginal
    // utility, highest first.
    loop {
        let avg = weighted_average(marginals, weights, active);
        let best = (0..n)
            .filter(|&j| !active[j])
            .max_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));
        match best {
            Some(j) if marginals[j] > avg => active[j] = true,
            _ => break,
        }
    }

    // Final deltas, with a safeguard: recomputing the average over A can
    // push further agents negative; remove them (most-below-average first)
    // until stable. Each pass removes at least one agent, so this
    // terminates.
    loop {
        raw_deltas_into(marginals, weights, active, alpha, deltas);
        let violator = (0..n)
            .filter(|&i| active[i] && x[i] + deltas[i] < 0.0)
            .min_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));
        match violator {
            Some(i) => active[i] = false,
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ONES: [f64; 4] = [1.0; 4];

    #[test]
    fn equal_marginals_give_zero_step() {
        let x = [0.25, 0.25, 0.25, 0.25];
        let g = [2.0, 2.0, 2.0, 2.0];
        for rule in [BoundaryRule::Unconstrained, BoundaryRule::ScaleStep, BoundaryRule::FreezeActiveSet] {
            let out = compute_step(&x, &g, &ONES, 0.5, rule);
            assert!(out.deltas.iter().all(|d| d.abs() < 1e-15), "{rule:?}: {:?}", out.deltas);
        }
    }

    #[test]
    fn step_moves_toward_high_marginal_agents() {
        let x = [0.5, 0.5, 0.0, 0.0];
        let g = [-1.0, -1.0, 1.0, 1.0];
        let out = compute_step(&x, &g, &ONES, 0.1, BoundaryRule::FreezeActiveSet);
        assert!(out.deltas[0] < 0.0 && out.deltas[1] < 0.0);
        assert!(out.deltas[2] > 0.0 && out.deltas[3] > 0.0);
    }

    #[test]
    fn deltas_sum_to_zero_for_all_rules() {
        let x = [0.7, 0.2, 0.1, 0.0];
        let g = [-3.0, 0.5, 1.0, 2.0];
        let w = [1.0, 2.0, 0.5, 1.5];
        for rule in [BoundaryRule::Unconstrained, BoundaryRule::ScaleStep, BoundaryRule::FreezeActiveSet] {
            let out = compute_step(&x, &g, &w, 0.05, rule);
            let sum: f64 = out.deltas.iter().sum();
            assert!(sum.abs() < 1e-12, "{rule:?}: sum {sum}");
        }
    }

    #[test]
    fn unconstrained_can_go_negative() {
        let x = [0.8, 0.1, 0.1, 0.0];
        // Strongly below-average marginal at agent 0.
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::Unconstrained);
        assert!(x[0] + out.deltas[0] < 0.0, "expected transient negativity");
        assert_eq!(out.scale, 1.0);
    }

    #[test]
    fn scale_step_stops_exactly_at_zero() {
        let x = [0.8, 0.1, 0.1, 0.0];
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::ScaleStep);
        assert!(out.scale < 1.0);
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new.iter().all(|v| *v >= -1e-12), "{new:?}");
        // The binding agent lands exactly on zero.
        assert!(new.iter().any(|v| v.abs() < 1e-12));
    }

    #[test]
    fn freeze_excludes_violator_and_keeps_others_moving() {
        let x = [0.8, 0.1, 0.1, 0.0];
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::FreezeActiveSet);
        assert!(!out.active[0], "agent 0 should be frozen");
        assert_eq!(out.deltas[0], 0.0);
        assert_eq!(out.active_count(), 3);
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new.iter().all(|v| *v >= -1e-12));
        let sum: f64 = out.deltas.iter().sum();
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    fn freeze_readmits_high_marginal_agent_at_zero() {
        // Agent 3 sits at zero with the *highest* marginal utility: the
        // tentative step gives it a positive delta, so it stays active and
        // receives resource.
        let x = [0.5, 0.3, 0.2, 0.0];
        let g = [0.0, 0.0, 0.0, 5.0];
        let out = compute_step(&x, &g, &ONES, 0.01, BoundaryRule::FreezeActiveSet);
        assert!(out.active[3]);
        assert!(out.deltas[3] > 0.0);
    }

    #[test]
    fn freeze_keeps_zero_agent_with_low_marginal_frozen() {
        let x = [0.5, 0.3, 0.2, 0.0];
        let g = [1.0, 1.0, 1.0, -5.0];
        let out = compute_step(&x, &g, &ONES, 0.1, BoundaryRule::FreezeActiveSet);
        assert!(!out.active[3]);
        assert_eq!(out.deltas[3], 0.0);
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new[3].abs() < 1e-15);
    }

    #[test]
    fn clamp_pins_violator_exactly_to_zero_and_rebalances() {
        let x = [0.8, 0.1, 0.1, 0.0];
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::ClampToZero);
        assert!(!out.active[0]);
        assert!((out.deltas[0] + 0.8).abs() < 1e-12, "agent 0 releases everything");
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new[0].abs() < 1e-12);
        assert!(new.iter().all(|v| *v >= -1e-12));
        assert!((new.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_without_violators_equals_raw_step() {
        let x = [0.25; 4];
        let g = [1.0, 2.0, 3.0, 4.0];
        let a = compute_step(&x, &g, &ONES, 0.01, BoundaryRule::ClampToZero);
        let b = compute_step(&x, &g, &ONES, 0.01, BoundaryRule::Unconstrained);
        for (da, db) in a.deltas.iter().zip(&b.deltas) {
            assert!((da - db).abs() < 1e-15);
        }
    }

    #[test]
    fn weighted_step_scales_with_weights() {
        let x = [0.5, 0.5];
        let g = [1.0, -1.0];
        let w = [2.0, 1.0];
        let out = compute_step(&x, &g, &w, 0.1, BoundaryRule::Unconstrained);
        // avg_w = (2·1 + 1·(−1)) / 3 = 1/3.
        // Δ_0 = 0.1·2·(1 − 1/3) = 0.1333…; Δ_1 = 0.1·1·(−4/3) = −0.1333…
        assert!((out.deltas[0] - 0.4 / 3.0).abs() < 1e-12);
        assert!((out.deltas[1] + 0.4 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_non_positive_alpha() {
        compute_step(&[1.0], &[0.0], &[1.0], 0.0, BoundaryRule::Unconstrained);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_non_positive_weight() {
        compute_step(&[1.0, 0.0], &[0.0, 0.0], &[1.0, 0.0], 0.1, BoundaryRule::Unconstrained);
    }

    #[test]
    fn simplex_projection_fixes_drifted_seed() {
        let mut x = [0.5000000001, 0.3, 0.2, -1e-15];
        project_onto_simplex(&mut x, 1.0);
        assert_eq!(x[3], 0.0, "boundary agent stays on the boundary");
        assert!(x.iter().all(|v| *v >= 0.0));
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-15, "{x:?}");
    }

    #[test]
    fn simplex_projection_preserves_the_active_set() {
        let mut x = [0.7, 0.0, 0.3, -0.2];
        project_onto_simplex(&mut x, 1.0);
        assert_eq!(x[1], 0.0);
        assert_eq!(x[3], 0.0);
        assert!(x[0] > 0.0 && x[2] > 0.0);
        // Relative proportions of the positive mass are preserved.
        assert!((x[0] / x[2] - 0.7 / 0.3).abs() < 1e-12);
    }

    #[test]
    fn simplex_projection_scales_to_arbitrary_totals() {
        let mut x = [1.0, 3.0];
        project_onto_simplex(&mut x, 2.0);
        assert!((x.iter().sum::<f64>() - 2.0).abs() < 1e-15);
        assert!((x[0] - 0.5).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn simplex_projection_falls_back_to_uniform() {
        let mut x = [0.0, -0.5, f64::NAN];
        project_onto_simplex(&mut x, 1.0);
        for v in x {
            assert!((v - 1.0 / 3.0).abs() < 1e-15);
        }
        let mut empty: [f64; 0] = [];
        project_onto_simplex(&mut empty, 1.0); // no-op, no panic
    }

    #[test]
    #[should_panic(expected = "simplex total must be positive")]
    fn simplex_projection_rejects_bad_total() {
        project_onto_simplex(&mut [0.5, 0.5], 0.0);
    }

    proptest! {
        /// Projection postconditions on arbitrary (even wildly infeasible)
        /// seeds: non-negative, exact budget, idempotent on the result.
        #[test]
        fn simplex_projection_invariants(
            raw in proptest::collection::vec(-2.0f64..2.0, 1..12),
            total in 0.1f64..4.0,
        ) {
            let mut x = raw.clone();
            project_onto_simplex(&mut x, total);
            prop_assert!(x.iter().all(|v| *v >= 0.0));
            prop_assert!((x.iter().sum::<f64>() - total).abs() < 1e-12 * total.max(1.0));
            for (xi, ri) in x.iter().zip(&raw) {
                if *ri <= 0.0 {
                    // Clamped coordinates stay clamped unless the uniform
                    // fallback engaged (no positive mass anywhere).
                    if raw.iter().any(|v| *v > 0.0) {
                        prop_assert_eq!(*xi, 0.0);
                    }
                }
            }
        }
    }

    proptest! {
        /// For every rule: deltas sum to zero (feasibility, Theorem 1) and,
        /// for the boundary-respecting rules, the updated allocation stays
        /// non-negative.
        #[test]
        fn step_invariants(
            raw_x in proptest::collection::vec(0.0f64..1.0, 2..10),
            g in proptest::collection::vec(-5.0f64..5.0, 10),
            w in proptest::collection::vec(0.1f64..3.0, 10),
            alpha in 0.001f64..1.0,
        ) {
            let n = raw_x.len();
            let sum: f64 = raw_x.iter().sum();
            prop_assume!(sum > 1e-6);
            let x: Vec<f64> = raw_x.iter().map(|v| v / sum).collect();
            let g = &g[..n];
            let w = &w[..n];
            for rule in [BoundaryRule::FreezeActiveSet, BoundaryRule::ClampToZero, BoundaryRule::ScaleStep, BoundaryRule::Unconstrained] {
                let out = compute_step(&x, g, w, alpha, rule);
                let dsum: f64 = out.deltas.iter().sum();
                prop_assert!(dsum.abs() < 1e-9, "{rule:?} dsum {dsum}");
                if rule != BoundaryRule::Unconstrained {
                    for (xi, d) in x.iter().zip(&out.deltas) {
                        prop_assert!(xi + d >= -1e-9, "{rule:?} went negative");
                    }
                }
            }
        }
    }

    /// The pass loop's unit-weight clamp step: the reference the replay must
    /// reproduce bit for bit.
    fn clamp_reference(x: &[f64], g: &[f64], alpha: f64) -> (Vec<u64>, Vec<bool>) {
        let n = x.len();
        let (mut deltas, mut active) = (vec![0.0; n], vec![true; n]);
        clamp_by_passes(x, g, &vec![1.0; n], alpha, &mut deltas, &mut active);
        (deltas.iter().map(|d| d.to_bits()).collect(), active)
    }

    /// Runs the clamp through `compute_step_into` (the replay, for unit
    /// weights) and fails unless deltas and active set equal the pass
    /// loop's bit for bit. Returns the number of pinned agents.
    fn replay_matches_passes(
        x: &[f64],
        g: &[f64],
        alpha: f64,
        ws: &mut StepWorkspace,
    ) -> Result<usize, TestCaseError> {
        compute_step_into(x, g, &vec![1.0; x.len()], alpha, BoundaryRule::ClampToZero, ws);
        let (deltas, active) = clamp_reference(x, g, alpha);
        let replayed: Vec<u64> = ws.deltas().iter().map(|d| d.to_bits()).collect();
        prop_assert_eq!(ws.active(), &active[..]);
        prop_assert_eq!(replayed, deltas);
        Ok(x.len() - ws.active_count())
    }

    /// One clamp input of `n` agents. Shapes: 0 continuous; 1 ties in `k`
    /// and in `g` (few levels, signed zeros); 2 mostly-zero allocations;
    /// 3 a converged boundary (the support shares one marginal to within
    /// rounding, the zero agents sit below it, some by a hair); 4 shape 0
    /// with marginals scaled by `10^e`, `e ∈ [−320, 300)` (subnormal
    /// products and huge magnitudes).
    fn clamp_case(n: usize, seed: u64, shape: u8) -> (Vec<f64>, Vec<f64>, f64) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = 10f64.powf(rng.random_range(-3.0..1.0));
        let levels = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0];
        let c = rng.random_range(-2.0..2.0);
        let (mut x, mut g) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let (xi, gi) = match shape {
                0 | 4 => (rng.random_f64(), rng.random_range(-5.0..5.0)),
                1 => (rng.random_range(0..4u8) as f64, levels[rng.random_range(0..levels.len())]),
                2 if rng.random_bool(0.8) => (0.0, rng.random_range(-5.0..5.0)),
                2 => (rng.random_f64(), rng.random_range(-5.0..5.0)),
                _ if rng.random_bool(0.4) => (rng.random_f64(), c + (rng.random_f64() - 0.5) * 1e-12),
                _ if rng.random_bool(0.5) => (0.0, c - rng.random_f64() * 1e-13),
                _ => (0.0, c - rng.random_f64()),
            };
            x.push(xi);
            g.push(gi);
        }
        let total: f64 = x.iter().sum();
        if total > 0.0 {
            x.iter_mut().for_each(|v| *v /= total);
        }
        if shape == 4 {
            let scale = 10f64.powi(rng.random_range(-320..300i32));
            g.iter_mut().for_each(|v| *v *= scale);
        }
        (x, g, alpha)
    }

    proptest! {
        /// The certified replay pins exactly what the pass loop pins and
        /// returns its deltas bit for bit, through one reused workspace.
        #[test]
        fn clamp_replay_is_bit_identical_to_the_pass_loop(
            n in 1usize..600,
            seed in 0u64..u64::MAX,
            shape in 0u8..5,
        ) {
            let mut ws = StepWorkspace::new();
            let (x, g, alpha) = clamp_case(n, seed, shape);
            replay_matches_passes(&x, &g, alpha, &mut ws)?;
            // Again at a step large enough to pin most agents.
            replay_matches_passes(&x, &g, alpha * 100.0, &mut ws)?;
        }
    }

    #[test]
    fn clamp_replay_matches_the_pass_loop_along_a_converging_solve() {
        // U(x) = Σ b_i x_i − a_i x_i²/2 with most b_i low: the optimum sits
        // on the boundary for most agents, and every step near it pins a
        // cascade of near-tied zero agents.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let n = 300;
        let mut rng = StdRng::seed_from_u64(7);
        let a: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..2.0)).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { rng.random_range(1.0..2.0) } else { rng.random_range(0.0..1.0) })
            .collect();
        let mut x = vec![1.0 / n as f64; n];
        let mut g = vec![0.0; n];
        let mut ws = StepWorkspace::new();
        let mut pinned = 0;
        for _ in 0..400 {
            for i in 0..n {
                g[i] = b[i] - a[i] * x[i];
            }
            pinned += replay_matches_passes(&x, &g, 0.05, &mut ws).unwrap();
            for (xi, d) in x.iter_mut().zip(ws.deltas()) {
                *xi += d;
            }
        }
        assert!(pinned > 100 * 400, "the solve must pin cascades, pinned {pinned}");
    }

    #[test]
    fn weighted_clamp_runs_the_pass_loop() {
        let x = [0.8, 0.1, 0.1, 0.0];
        let g = [-4.0, -1.7, -1.7, -1.6];
        let w = [1.0, 2.0, 0.5, 1.5];
        let out = compute_step(&x, &g, &w, 0.67, BoundaryRule::ClampToZero);
        let (mut deltas, mut active) = (vec![0.0; 4], vec![true; 4]);
        clamp_by_passes(&x, &g, &w, 0.67, &mut deltas, &mut active);
        assert_eq!((out.deltas, out.active), (deltas, active));
    }
}
