//! Exact Bellman solving (Eqs. 8–9).
//!
//! ```text
//! V*(u) = max_{a in N_u} Q*(a)
//! Q*(a) = sum_u p(a, u) (r(a, u) + rho * V*(u))
//! ```
//!
//! The *Oracle* baseline is built on this solver; the structural-
//! similarity bound of Section III-D is verified against it in tests.
//!
//! # Sweep discipline
//!
//! [`solve`] iterates *Jacobi* sweeps: every state's backup in sweep
//! `k + 1` reads only the value vector of sweep `k`, never a value
//! written earlier in the same sweep. That makes the sweep
//! embarrassingly parallel over disjoint state chunks, and — because
//! each state's backup is the exact same sequence of floating-point
//! operations regardless of which chunk (or thread) computes it — the
//! serial and parallel schedules produce **bit-identical** solutions.
//! The residual is the sup norm of `V_{k+1} - V_k`, reduced with
//! `f64::max` (order-independent for the non-NaN values produced here),
//! so the iteration counts agree too. This is the same determinism
//! contract the similarity engine established for its row sweeps.
//!
//! The sweep itself runs over the MDP's structure-of-arrays solver view
//! (see the layout notes in [`crate::mdp`]): with the expected immediate
//! reward of every action node precomputed, a backup is
//! `max_a R(a) + rho * sum_i p_i * V[succ_i]` — one contiguous pass over
//! the successor/probability arrays, no reward loads, no action-id
//! indirection.
//!
//! # Warm starts
//!
//! [`solve_warm`] seeds the Jacobi iteration from a caller-supplied
//! value vector instead of zeros. Because value iteration is a
//! `rho`-contraction toward the unique fixed point `V*`, any seed
//! converges to the same solution; a seed within distance `d` of `V*`
//! needs only `O(log(d / eps) / log(1 / rho))` sweeps instead of
//! `O(log(||V*|| / eps) / log(1 / rho))`. The coarse-to-fine
//! recalibration pipeline ([`crate::pipeline`]) exploits this by
//! lifting each quotient level's solution into the next level's seed.
//!
//! # Precision policy
//!
//! The default sweep runs in `f64` and stays bitwise-contracted against
//! the nested Jacobi oracle. [`Precision::F32`] is an opt-in
//! structure-of-arrays variant for the gathered `p * V[succ]` kernel:
//! successor probabilities, expected rewards and the value buffer are
//! converted to `f32` once per solve and every sweep runs in single
//! precision (half the memory traffic per outcome, and a layout the
//! compiler can keep in wider SIMD lanes). Because `f32` cannot resolve
//! residuals much below the ULP of the value magnitudes, the requested
//! `eps` is clamped to at least [`F32_EPS_FLOOR`] and a stall guard
//! stops the sweep when the residual plateaus; the result is within
//! about `1e-3` of the `f64` fixed point for `rho <= 0.9` device
//! graphs (pinned by the `warm_equivalence` proptests). Q-values and
//! the greedy policy are always extracted in `f64`.

use rayon::prelude::*;

use crate::engine::ExecutionMode;
use crate::mdp::{Mdp, SolverView};

/// States per parallel work unit. Fixed (not derived from the thread
/// count) so the chunk boundaries — and therefore the work partition —
/// are stable across machines; bit-identity does not depend on this, it
/// only keeps scheduling deterministic.
const PAR_CHUNK: usize = 64;

/// Below this state count a parallel sweep costs more in fan-out than
/// it recovers; [`solve`] picks the serial schedule.
const PAR_MIN_STATES: usize = 256;

/// Sweep-count ceiling: with valid `(rho, eps)` the contraction always
/// converges long before this; it only bounds a runaway loop on
/// pathological inputs.
const MAX_SWEEPS: usize = 1_000_000;

/// The smallest effective `eps` the `f32` sweep will chase. Below this
/// the residual is dominated by single-precision rounding of values up
/// to `1 / (1 - rho)` and the iteration would never terminate on its
/// own.
pub const F32_EPS_FLOOR: f64 = 1e-4;

/// Consecutive non-improving `f32` sweeps tolerated before the stall
/// guard stops the iteration at the best residual reached.
const F32_STALL_SWEEPS: usize = 50;

/// Floating-point width of the Bellman sweep kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double precision — the bitwise-contracted default.
    #[default]
    F64,
    /// Opt-in single-precision structure-of-arrays sweep for devices
    /// where ~1e-3 value precision suffices (see the module docs for
    /// the exact contract).
    F32,
}

/// Panic with a clear message unless `rho` and `eps` parameterise a
/// contracting Bellman operator that can actually converge.
///
/// `rho = 0` is rejected too: the paper's discounted MDP assumes a
/// strictly positive discount, and accepting it would silently turn the
/// solve into a one-step bandit.
pub(crate) fn validate_solver_params(rho: f64, eps: f64) {
    assert!(
        rho.is_finite() && rho > 0.0 && rho < 1.0,
        "discount rho must be in (0, 1) for a contracting Bellman operator, got {rho}"
    );
    assert!(
        eps.is_finite() && eps > 0.0,
        "precision eps must be positive and finite, got {eps}"
    );
}

/// The serial/parallel dispatch [`solve`] uses, exposed to the
/// recalibration pipeline so every level picks the same heuristic.
pub(crate) fn auto_mode(n_states: usize) -> ExecutionMode {
    if n_states >= PAR_MIN_STATES && rayon::current_num_threads() > 1 {
        ExecutionMode::Parallel
    } else {
        ExecutionMode::Serial
    }
}

/// An exact solution of a discounted MDP.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal state values `V*`.
    pub values: Vec<f64>,
    /// Optimal action values `Q*[s][a]` (`f64::NEG_INFINITY` where the
    /// action is unavailable).
    pub q: Vec<Vec<f64>>,
    /// Greedy policy: the maximising action per state, `None` for
    /// absorbing states.
    pub policy: Vec<Option<usize>>,
    /// Bellman sweeps performed.
    pub iterations: usize,
}

/// One Jacobi backup of `state`: the best available action value under
/// the previous sweep's `values`, zero when the state is absorbing.
#[inline]
fn backup(view: &SolverView<'_>, rho: f64, values: &[f64], state: usize) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for k in view.action_ptr[state]..view.action_ptr[state + 1] {
        let (lo, hi) = (view.node_ptr[k], view.node_ptr[k + 1]);
        let mut pv = 0.0;
        for (&n, &p) in view.succ[lo..hi].iter().zip(&view.prob[lo..hi]) {
            pv += p * values[n as usize];
        }
        best = best.max(view.node_reward[k] + rho * pv);
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// One full Jacobi sweep: `next[s] = backup(s)` for every state, reading
/// only `values`. The parallel schedule deals disjoint `PAR_CHUNK`-state
/// chunks across the cores; per-state arithmetic is identical either
/// way.
fn jacobi_sweep(
    view: &SolverView<'_>,
    rho: f64,
    values: &[f64],
    next: &mut [f64],
    mode: ExecutionMode,
) {
    match mode {
        ExecutionMode::Serial => {
            for (s, slot) in next.iter_mut().enumerate() {
                *slot = backup(view, rho, values, s);
            }
        }
        ExecutionMode::Parallel => {
            next.par_chunks_mut(PAR_CHUNK)
                .enumerate()
                .for_each(|chunk_idx, chunk| {
                    let base = chunk_idx * PAR_CHUNK;
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = backup(view, rho, values, base + i);
                    }
                });
        }
    }
}

/// Run Jacobi sweeps in `f64` from the seed in `values` until the sup
/// residual drops under `eps`. `values` holds the fixed point on
/// return; `scratch` is the double buffer (resized as needed). Returns
/// the sweep count.
fn converge_f64(
    view: &SolverView<'_>,
    rho: f64,
    eps: f64,
    values: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
    mode: ExecutionMode,
) -> usize {
    let n = values.len();
    scratch.clear();
    scratch.resize(n, 0.0);
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        jacobi_sweep(view, rho, values, scratch, mode);
        let mut residual: f64 = 0.0;
        for s in 0..n {
            residual = residual.max((scratch[s] - values[s]).abs());
        }
        std::mem::swap(values, scratch);
        if residual < eps || sweeps > MAX_SWEEPS {
            return sweeps;
        }
    }
}

/// The gathered kernel's columns with the probability / expected-reward
/// arrays mirrored to `f32` — what [`backup_f32`] sweeps over.
struct ViewF32<'a> {
    succ: &'a [u32],
    prob: Vec<f32>,
    node_ptr: &'a [usize],
    node_reward: Vec<f32>,
    action_ptr: &'a [usize],
}

impl<'a> ViewF32<'a> {
    fn from_view(view: &SolverView<'a>) -> Self {
        ViewF32 {
            succ: view.succ,
            prob: view.prob.iter().map(|&p| p as f32).collect(),
            node_ptr: view.node_ptr,
            node_reward: view.node_reward.iter().map(|&r| r as f32).collect(),
            action_ptr: view.action_ptr,
        }
    }
}

/// The single-precision mirror of [`backup`], over a [`ViewF32`].
#[inline]
fn backup_f32(view: &ViewF32<'_>, rho: f32, values: &[f32], state: usize) -> f32 {
    let mut best = f32::NEG_INFINITY;
    for k in view.action_ptr[state]..view.action_ptr[state + 1] {
        let (lo, hi) = (view.node_ptr[k], view.node_ptr[k + 1]);
        let mut pv = 0.0f32;
        for (&n, &p) in view.succ[lo..hi].iter().zip(&view.prob[lo..hi]) {
            pv += p * values[n as usize];
        }
        best = best.max(view.node_reward[k] + rho * pv);
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// Run the opt-in `f32` sweep from the `f64` seed in `values`,
/// converting at the boundaries. Chases `eps.max(F32_EPS_FLOOR)` with a
/// plateau guard (see the module docs). `values` holds the (converted
/// back) result on return.
fn converge_f32(
    view: &SolverView<'_>,
    rho: f64,
    eps: f64,
    values: &mut [f64],
    mode: ExecutionMode,
) -> usize {
    let n = values.len();
    // One-time f32 mirrors of the gathered kernel's columns.
    let view32 = ViewF32::from_view(view);
    let mut v: Vec<f32> = values.iter().map(|&x| x as f32).collect();
    let mut next = vec![0.0f32; n];
    let rho32 = rho as f32;
    let eps32 = eps.max(F32_EPS_FLOOR) as f32;

    let sweep = |v: &[f32], next: &mut [f32]| match mode {
        ExecutionMode::Serial => {
            for (s, slot) in next.iter_mut().enumerate() {
                *slot = backup_f32(&view32, rho32, v, s);
            }
        }
        ExecutionMode::Parallel => {
            next.par_chunks_mut(PAR_CHUNK)
                .enumerate()
                .for_each(|chunk_idx, chunk| {
                    let base = chunk_idx * PAR_CHUNK;
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = backup_f32(&view32, rho32, v, base + i);
                    }
                });
        }
    };

    let mut sweeps = 0;
    let mut best_residual = f32::INFINITY;
    let mut stalled = 0;
    loop {
        sweeps += 1;
        sweep(&v, &mut next);
        let mut residual: f32 = 0.0;
        for s in 0..n {
            residual = residual.max((next[s] - v[s]).abs());
        }
        std::mem::swap(&mut v, &mut next);
        if residual < best_residual {
            best_residual = residual;
            stalled = 0;
        } else {
            stalled += 1;
        }
        if residual < eps32 || stalled >= F32_STALL_SWEEPS || sweeps > MAX_SWEEPS {
            break;
        }
    }
    for (slot, &x) in values.iter_mut().zip(&v) {
        *slot = f64::from(x);
    }
    sweeps
}

/// Converge `values` (the warm-start seed, fixed point on return) on a
/// raw solver view — the entry the recalibration pipeline drives for
/// quotient levels that never materialise an [`Mdp`]. Returns the sweep
/// count. `scratch` is only used by the `f64` path.
pub(crate) fn converge_view(
    view: &SolverView<'_>,
    rho: f64,
    eps: f64,
    values: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
    mode: ExecutionMode,
    precision: Precision,
) -> usize {
    let sweeps = match precision {
        Precision::F64 => converge_f64(view, rho, eps, values, scratch, mode),
        Precision::F32 => converge_f32(view, rho, eps, values, mode),
    };
    if capman_obs::enabled() {
        capman_obs::counter!(
            "bellman_solves_total",
            "Value-iteration solves run to convergence"
        )
        .inc();
        capman_obs::counter!("bellman_sweeps_total", "Jacobi sweeps across all solves")
            .add(sweeps as u64);
    }
    sweeps
}

/// Converge only the states listed in `active` (ascending, unique),
/// leaving every other entry of `values` frozen — the restricted sweep
/// behind [`crate::pipeline::RecalibrationPipeline::solve_incremental`].
///
/// The residual is the sup norm over the *active* states only. That is
/// sound exactly when the frozen states' backups are already below
/// `eps` and stay there, i.e. when `active` is closed under
/// predecessors of every state whose Bellman operator changed: a frozen
/// state then reads only frozen successors, so its residual is whatever
/// the previous converged solve left it at. The pipeline constructs
/// `active` as that backward closure.
///
/// Runs serially in `f64` regardless of the session's execution mode:
/// the whole point of the mask is that the active set is small, where
/// parallel fan-out costs more than it recovers (large dirty fractions
/// take the pipeline's full-solve fallback instead, which parallelises
/// as usual).
///
/// Returns the sweep count (0 for an empty active set).
pub(crate) fn converge_view_masked(
    view: &SolverView<'_>,
    rho: f64,
    eps: f64,
    values: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
    active: &[usize],
) -> usize {
    if active.is_empty() {
        return 0;
    }
    // Both buffers agree on the frozen states for the whole solve; each
    // sweep rewrites every active slot, so swapping stays a plain
    // Jacobi double buffer restricted to `active`.
    scratch.clear();
    scratch.extend_from_slice(values);
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        let mut residual: f64 = 0.0;
        for &s in active {
            let v = backup(view, rho, values, s);
            residual = residual.max((v - values[s]).abs());
            scratch[s] = v;
        }
        std::mem::swap(values, scratch);
        if residual < eps || sweeps > MAX_SWEEPS {
            break;
        }
    }
    if capman_obs::enabled() {
        capman_obs::counter!(
            "bellman_solves_total",
            "Value-iteration solves run to convergence"
        )
        .inc();
        capman_obs::counter!("bellman_sweeps_total", "Jacobi sweeps across all solves")
            .add(sweeps as u64);
    }
    sweeps
}

/// Extract `Q*` and the greedy policy from converged `values`, in
/// `f64`. Walks only the packed action nodes — unavailable actions
/// default to `NEG_INFINITY` without probing their empty rows. Each Q
/// value uses the same expected-reward-hoisted arithmetic as the sweep,
/// so Q*, V* and the greedy policy agree bitwise with the nested Jacobi
/// oracle on the default path.
pub(crate) fn extract_q_policy(
    mdp: &Mdp,
    view: &SolverView<'_>,
    rho: f64,
    values: &[f64],
) -> (Vec<Vec<f64>>, Vec<Option<usize>>) {
    let n = mdp.n_states();
    let mut q = vec![Vec::new(); n];
    let mut policy = vec![None; n];
    for s in 0..n {
        let mut row = vec![f64::NEG_INFINITY; mdp.n_actions()];
        for (k, &a) in (view.action_ptr[s]..view.action_ptr[s + 1]).zip(mdp.action_list(s)) {
            let (lo, hi) = (view.node_ptr[k], view.node_ptr[k + 1]);
            let mut pv = 0.0;
            for (&nx, &p) in view.succ[lo..hi].iter().zip(&view.prob[lo..hi]) {
                pv += p * values[nx as usize];
            }
            row[a as usize] = view.node_reward[k] + rho * pv;
        }
        policy[s] = mdp
            .available_actions(s)
            .max_by(|&a, &b| row[a].total_cmp(&row[b]));
        q[s] = row;
    }
    (q, policy)
}

/// Solve the MDP by value iteration to precision `eps` (sup norm of the
/// Bellman residual).
///
/// Absorbing states have value zero, matching the paper's convention that
/// target states terminate the accumulation.
///
/// Dispatches to the parallel sweep on large state spaces when more than
/// one core is available; both schedules return bit-identical solutions
/// (see the module docs), so the dispatch is unobservable apart from
/// wall clock.
///
/// # Panics
///
/// Panics if `rho` is not in `(0, 1)` or `eps` is not positive.
pub fn solve(mdp: &Mdp, rho: f64, eps: f64) -> Solution {
    solve_with_mode(mdp, rho, eps, auto_mode(mdp.n_states()))
}

/// [`solve`] with an explicit sweep schedule — the form the equivalence
/// proptests and the `mdp_solve` bench pin down.
///
/// # Panics
///
/// Panics if `rho` is not in `(0, 1)` or `eps` is not positive.
pub fn solve_with_mode(mdp: &Mdp, rho: f64, eps: f64, mode: ExecutionMode) -> Solution {
    let zeros = vec![0.0; mdp.n_states()];
    solve_warm_with(mdp, rho, eps, &zeros, mode, Precision::F64)
}

/// [`solve_with_mode`] seeded from a prior value vector `v0` instead of
/// zeros — the warm-start entry of the coarse-to-fine recalibration
/// pipeline. Converges to the same fixed point as the cold solve (the
/// Bellman operator has a unique one); only the sweep count depends on
/// how close the seed already is.
///
/// # Panics
///
/// Panics if `rho` is not in `(0, 1)`, `eps` is not positive, or `v0`
/// is not `n_states` finite values.
pub fn solve_warm(mdp: &Mdp, rho: f64, eps: f64, v0: &[f64], mode: ExecutionMode) -> Solution {
    solve_warm_with(mdp, rho, eps, v0, mode, Precision::F64)
}

/// [`solve_warm`] with an explicit kernel [`Precision`]. `F64` is the
/// bitwise-contracted default; `F32` trades ~1e-3 value precision for a
/// narrower sweep (see the module docs for the exact contract).
///
/// # Panics
///
/// Panics if `rho` is not in `(0, 1)`, `eps` is not positive, or `v0`
/// is not `n_states` finite values.
pub fn solve_warm_with(
    mdp: &Mdp,
    rho: f64,
    eps: f64,
    v0: &[f64],
    mode: ExecutionMode,
    precision: Precision,
) -> Solution {
    validate_solver_params(rho, eps);
    assert!(
        v0.len() == mdp.n_states(),
        "warm-start vector has {} values for {} states",
        v0.len(),
        mdp.n_states()
    );
    assert!(
        v0.iter().all(|v| v.is_finite()),
        "warm-start values must be finite"
    );
    let view = mdp.solver_view();
    let mut values = v0.to_vec();
    let mut scratch = Vec::new();
    let iterations = converge_view(&view, rho, eps, &mut values, &mut scratch, mode, precision);
    let (q, policy) = extract_q_policy(mdp, &view, rho, &values);
    Solution {
        values,
        q,
        policy,
        iterations,
    }
}

/// Evaluate a fixed (deterministic) policy's state values.
///
/// States where the policy provides no action (or an unavailable one)
/// are treated as absorbing.
///
/// # Panics
///
/// Panics if `rho` is not in `(0, 1)` or `eps` is not positive, or the
/// policy is shorter than the state space.
pub fn evaluate_policy(mdp: &Mdp, policy: &[Option<usize>], rho: f64, eps: f64) -> Vec<f64> {
    validate_solver_params(rho, eps);
    assert!(policy.len() >= mdp.n_states(), "policy too short");
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    loop {
        let mut residual: f64 = 0.0;
        for s in 0..n {
            let new = match policy[s] {
                Some(a) if !mdp.outcomes(s, a).is_empty() => mdp
                    .outcomes(s, a)
                    .iter()
                    .map(|o| o.prob * (o.reward + rho * values[o.next]))
                    .sum(),
                _ => 0.0,
            };
            residual = residual.max((new - values[s]).abs());
            values[s] = new;
        }
        if residual < eps {
            return values;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;

    fn two_armed() -> Mdp {
        // State 0 chooses between a low arm (r=0.2) and a high arm
        // (r=0.9), both leading to the absorbing state 1.
        let mut b = MdpBuilder::new(2, 2);
        b.transition(0, 0, 1, 1.0, 0.2);
        b.transition(0, 1, 1, 1.0, 0.9);
        b.build()
    }

    #[test]
    fn picks_the_better_arm() {
        let sol = solve(&two_armed(), 0.9, 1e-10);
        assert_eq!(sol.policy[0], Some(1));
        assert!((sol.values[0] - 0.9).abs() < 1e-9);
        assert_eq!(sol.values[1], 0.0);
        assert_eq!(sol.policy[1], None);
    }

    #[test]
    fn geometric_series_on_a_self_loop() {
        // A self-loop with reward 1 has value 1/(1-rho).
        let mut b = MdpBuilder::new(1, 1);
        b.transition(0, 0, 0, 1.0, 1.0);
        let m = b.build();
        let rho = 0.8;
        let sol = solve(&m, rho, 1e-12);
        assert!((sol.values[0] - 1.0 / (1.0 - rho)).abs() < 1e-6);
    }

    #[test]
    fn values_bounded_by_one_over_one_minus_rho() {
        // With rewards in [0,1], V* <= 1/(1-rho) always.
        let mut b = MdpBuilder::new(4, 3);
        b.transition(0, 0, 1, 0.5, 1.0);
        b.transition(0, 0, 2, 0.5, 0.7);
        b.transition(1, 1, 0, 1.0, 0.9);
        b.transition(2, 2, 3, 1.0, 1.0);
        b.transition(3, 0, 0, 1.0, 1.0);
        let m = b.build();
        let rho = 0.95;
        let sol = solve(&m, rho, 1e-10);
        for v in &sol.values {
            assert!(*v <= 1.0 / (1.0 - rho) + 1e-6);
            assert!(*v >= 0.0);
        }
    }

    #[test]
    fn policy_evaluation_matches_optimal_for_optimal_policy() {
        let m = two_armed();
        let sol = solve(&m, 0.9, 1e-10);
        let v = evaluate_policy(&m, &sol.policy, 0.9, 1e-10);
        for (a, b) in v.iter().zip(&sol.values) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn suboptimal_policy_has_lower_value() {
        let m = two_armed();
        let v = evaluate_policy(&m, &[Some(0), None], 0.9, 1e-10);
        assert!((v[0] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn stochastic_transitions_average_rewards() {
        let mut b = MdpBuilder::new(3, 1);
        b.transition(0, 0, 1, 0.5, 0.0);
        b.transition(0, 0, 2, 0.5, 1.0);
        let sol = solve(&b.build(), 0.5, 1e-12);
        assert!((sol.values[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn higher_discount_raises_values_on_recurrent_chains() {
        let mut b = MdpBuilder::new(2, 1);
        b.transition(0, 0, 1, 1.0, 0.5);
        b.transition(1, 0, 0, 1.0, 0.5);
        let m = b.build();
        let lo = solve(&m, 0.5, 1e-12).values[0];
        let hi = solve(&m, 0.95, 1e-12).values[0];
        assert!(hi > lo);
    }

    #[test]
    #[should_panic(expected = "discount")]
    fn rejects_discount_of_one() {
        let _ = solve(&two_armed(), 1.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "discount")]
    fn rejects_discount_of_zero() {
        let _ = solve(&two_armed(), 0.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "eps")]
    fn rejects_non_positive_eps() {
        let _ = solve(&two_armed(), 0.9, 0.0);
    }

    #[test]
    #[should_panic(expected = "warm-start vector")]
    fn rejects_missized_warm_start() {
        let _ = solve_warm(&two_armed(), 0.9, 1e-9, &[0.0], ExecutionMode::Serial);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_warm_start() {
        let _ = solve_warm(
            &two_armed(),
            0.9,
            1e-9,
            &[0.0, f64::NAN],
            ExecutionMode::Serial,
        );
    }

    /// A deterministic pseudo-random MDP big enough to span several
    /// parallel chunks (and a ragged tail chunk).
    fn chunky_mdp(n_states: usize) -> Mdp {
        let mut b = MdpBuilder::new(n_states, 4);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for s in 0..n_states - 1 {
            for a in 0..4 {
                if rand() % 4 == 0 {
                    continue; // leave some actions unavailable
                }
                for _ in 0..1 + rand() % 3 {
                    let next = (rand() as usize) % n_states;
                    let w = 1.0 + (rand() % 100) as f64 / 10.0;
                    let r = (rand() % 1000) as f64 / 1000.0;
                    b.transition(s, a, next, w, r);
                }
            }
        }
        b.build()
    }

    #[test]
    fn parallel_schedule_is_bit_identical_to_serial() {
        let m = chunky_mdp(3 * PAR_CHUNK + 17);
        for rho in [0.5, 0.95] {
            let serial = solve_with_mode(&m, rho, 1e-9, ExecutionMode::Serial);
            let parallel = solve_with_mode(&m, rho, 1e-9, ExecutionMode::Parallel);
            assert_eq!(serial.iterations, parallel.iterations);
            assert_eq!(serial.policy, parallel.policy);
            for (a, b) in serial.values.iter().zip(&parallel.values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn auto_dispatch_matches_explicit_modes() {
        let m = chunky_mdp(300);
        let auto = solve(&m, 0.9, 1e-9);
        let serial = solve_with_mode(&m, 0.9, 1e-9, ExecutionMode::Serial);
        for (a, b) in auto.values.iter().zip(&serial.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn warm_start_from_the_solution_converges_in_one_sweep() {
        let m = chunky_mdp(120);
        let cold = solve_with_mode(&m, 0.9, 1e-9, ExecutionMode::Serial);
        let warm = solve_warm(&m, 0.9, 1e-9, &cold.values, ExecutionMode::Serial);
        assert_eq!(warm.iterations, 1, "a fixed-point seed needs one sweep");
        assert_eq!(warm.policy, cold.policy);
        for (a, b) in warm.values.iter().zip(&cold.values) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_reaches_the_cold_fixed_point_from_a_bad_seed() {
        let m = chunky_mdp(120);
        let rho = 0.9;
        let cold = solve_with_mode(&m, rho, 1e-10, ExecutionMode::Serial);
        // Adversarial seed: the value ceiling everywhere.
        let seed = vec![1.0 / (1.0 - rho); m.n_states()];
        let warm = solve_warm(&m, rho, 1e-10, &seed, ExecutionMode::Serial);
        assert_eq!(warm.policy, cold.policy);
        for (a, b) in warm.values.iter().zip(&cold.values) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_seed_warm_solve_is_bitwise_the_cold_solve() {
        let m = chunky_mdp(90);
        let cold = solve_with_mode(&m, 0.8, 1e-9, ExecutionMode::Serial);
        let warm = solve_warm(
            &m,
            0.8,
            1e-9,
            &vec![0.0; m.n_states()],
            ExecutionMode::Serial,
        );
        assert_eq!(warm.iterations, cold.iterations);
        for (a, b) in warm.values.iter().zip(&cold.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_sweep_tracks_the_f64_oracle() {
        let m = chunky_mdp(200);
        for rho in [0.5, 0.9] {
            let oracle = solve_with_mode(&m, rho, 1e-10, ExecutionMode::Serial);
            let fast = solve_warm_with(
                &m,
                rho,
                1e-10,
                &vec![0.0; m.n_states()],
                ExecutionMode::Serial,
                Precision::F32,
            );
            for (s, (a, b)) in fast.values.iter().zip(&oracle.values).enumerate() {
                assert!((a - b).abs() < 1e-3, "rho {rho} state {s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fully_active_masked_converge_is_bitwise_the_plain_converge() {
        let m = chunky_mdp(150);
        let view = m.solver_view();
        let seed = vec![0.25; m.n_states()];
        let all: Vec<usize> = (0..m.n_states()).collect();

        let mut plain = seed.clone();
        let mut scratch = Vec::new();
        let plain_sweeps = converge_f64(
            &view,
            0.9,
            1e-9,
            &mut plain,
            &mut scratch,
            ExecutionMode::Serial,
        );

        let mut masked = seed;
        let mut scratch2 = Vec::new();
        let masked_sweeps =
            converge_view_masked(&view, 0.9, 1e-9, &mut masked, &mut scratch2, &all);

        assert_eq!(plain_sweeps, masked_sweeps);
        for (a, b) in plain.iter().zip(&masked) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn masked_converge_freezes_inactive_states() {
        let m = chunky_mdp(120);
        let view = m.solver_view();
        let cold = solve_with_mode(&m, 0.9, 1e-9, ExecutionMode::Serial);
        let mut values = cold.values.clone();
        // Poison a handful of inactive entries; they must come back
        // bit-for-bit untouched.
        values[3] = 7.5;
        values[77] = -2.0;
        let active: Vec<usize> = (10..40).collect();
        let mut scratch = Vec::new();
        let sweeps = converge_view_masked(&view, 0.9, 1e-9, &mut values, &mut scratch, &active);
        assert!(sweeps >= 1);
        assert_eq!(values[3].to_bits(), 7.5f64.to_bits());
        assert_eq!(values[77].to_bits(), (-2.0f64).to_bits());
        assert_eq!(
            converge_view_masked(&view, 0.9, 1e-9, &mut values, &mut scratch, &[]),
            0,
            "an empty active set is a no-op"
        );
    }

    #[test]
    fn f32_parallel_and_serial_schedules_agree() {
        let m = chunky_mdp(3 * PAR_CHUNK + 5);
        let zeros = vec![0.0; m.n_states()];
        let serial = solve_warm_with(&m, 0.9, 1e-9, &zeros, ExecutionMode::Serial, Precision::F32);
        let parallel = solve_warm_with(
            &m,
            0.9,
            1e-9,
            &zeros,
            ExecutionMode::Parallel,
            Precision::F32,
        );
        assert_eq!(serial.iterations, parallel.iterations);
        for (a, b) in serial.values.iter().zip(&parallel.values) {
            assert_eq!(a.to_bits(), b.to_bits(), "f32 sweeps are chunk-invariant");
        }
    }
}
