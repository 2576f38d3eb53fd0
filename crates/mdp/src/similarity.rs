//! Algorithm 1 — the structural-similarity recursion.
//!
//! Computes the fixpoint similarity matrices `(sigma_S*, sigma_A*)` over
//! the state and action nodes of an [`MdpGraph`]:
//!
//! ```text
//! sigma_A(a, b) = 1 - (1 - C_A) * delta_rwd(a, b)
//!                   - C_A * delta_EMD(p_a, p_b; delta_S)
//! sigma_S(u, v) = C_S * (1 - d_Haus(N_u, N_v; delta_A))
//! ```
//!
//! with the base cases of Eq. (3): `delta_S(u, u) = 0`; exactly one of
//! `u`, `v` absorbing gives `delta_S = 1`; two absorbing states get the
//! configurable target distance `d_{u,v}`.
//!
//! With `C_S = 1` and `C_A = rho`, the fixpoint distances bound the
//! optimal-value differences (Section III-D):
//!
//! ```text
//! |V*_u - V*_v| <= delta_S*(u, v) / (1 - rho)
//! |Q*_a - Q*_b| <= delta_A*(a, b) / (1 - rho)
//! ```
//!
//! which is the paper's `O(1/(1-rho))`-competitiveness: reusing a similar
//! state's decision costs at most `delta / (1 - rho)` in value.

use crate::emd::emd_detailed;
use crate::graph::MdpGraph;
use crate::hausdorff::hausdorff;
use crate::matrix::SquareMatrix;

/// Parameters of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityParams {
    /// State-similarity discount `C_S` in `(0, 1]`.
    pub c_s: f64,
    /// Action-similarity discount `C_A` in `(0, 1)` — set to the MDP
    /// discount `rho` for the competitiveness bound.
    pub c_a: f64,
    /// Distance `d_{u,v}` between two absorbing (target) states.
    pub absorbing_distance: f64,
    /// Convergence tolerance on the sup-norm change of `S` and `A`.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl SimilarityParams {
    /// The paper's configuration for a discount factor `rho`:
    /// `C_S = 1`, `C_A = rho`, identical targets.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not in `(0, 1)`.
    pub fn paper(rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.0, "rho must be in (0, 1)");
        SimilarityParams {
            c_s: 1.0,
            c_a: rho,
            absorbing_distance: 0.0,
            tolerance: 1e-6,
            max_iterations: 10_000,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.c_s > 0.0 && self.c_s <= 1.0, "C_S must be in (0, 1]");
        assert!(self.c_a > 0.0 && self.c_a < 1.0, "C_A must be in (0, 1)");
        assert!(
            (0.0..=1.0).contains(&self.absorbing_distance),
            "d_uv must be in [0, 1]"
        );
        assert!(self.tolerance > 0.0, "tolerance must be positive");
        assert!(self.max_iterations > 0, "need at least one iteration");
    }
}

impl Default for SimilarityParams {
    fn default() -> Self {
        SimilarityParams::paper(0.05)
    }
}

/// The solution `(sigma_S*, sigma_A*)` of Algorithm 1 with run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityResult {
    /// State-node similarity matrix `sigma_S*`.
    pub sigma_s: SquareMatrix,
    /// Action-node similarity matrix `sigma_A*`.
    pub sigma_a: SquareMatrix,
    /// Iterations of the main loop (the `N` in the complexity analysis).
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Total EMD evaluations (the Theta(|Lambda|^2) SSP calls/iteration).
    pub emd_calls: usize,
    /// Total SSP augmenting paths across all EMD calls.
    pub ssp_augmentations: usize,
}

impl SimilarityResult {
    /// State distance `delta_S*(u, v) = 1 - sigma_S*(u, v)`.
    pub fn delta_s(&self, u: usize, v: usize) -> f64 {
        1.0 - self.sigma_s.get(u, v)
    }

    /// Action distance `delta_A*(a, b) = 1 - sigma_A*(a, b)`.
    pub fn delta_a(&self, a: usize, b: usize) -> f64 {
        1.0 - self.sigma_a.get(a, b)
    }

    /// The value-difference bound `delta_S*(u, v) / (1 - rho)`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not in `[0, 1)`.
    pub fn value_bound(&self, u: usize, v: usize, rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
        self.delta_s(u, v) / (1.0 - rho)
    }
}

/// Run Algorithm 1 on an MDP graph.
///
/// # Panics
///
/// Panics if the parameters are out of their domains.
pub fn structural_similarity(graph: &MdpGraph, params: &SimilarityParams) -> SimilarityResult {
    params.validate();
    let nv = graph.n_states();
    let na = graph.n_action_nodes();

    // delta_S initialised to the maximal distance off-diagonal (S = I),
    // so the recursion converges to the fixpoint from above and the
    // value bound holds at every iterate.
    let mut s = SquareMatrix::identity(nv);
    let mut a_m = SquareMatrix::identity(na);
    apply_base_cases(graph, params, &mut s);

    // Cache successor distributions and expected rewards.
    let dists: Vec<Vec<f64>> = (0..na)
        .map(|ai| {
            let mut p = vec![0.0; nv];
            for &(next, prob, _) in &graph.action_node(ai).edges {
                p[next] += prob;
            }
            p
        })
        .collect();
    let rewards: Vec<f64> = (0..na)
        .map(|ai| graph.action_node(ai).expected_reward())
        .collect();

    let mut iterations = 0;
    let mut converged = false;
    let mut emd_calls = 0;
    let mut ssp_augmentations = 0;

    while iterations < params.max_iterations {
        iterations += 1;

        // Action similarity from the current state similarity.
        let mut a_next = SquareMatrix::identity(na);
        for ai in 0..na {
            for bi in (ai + 1)..na {
                let delta_rwd = (rewards[ai] - rewards[bi]).abs();
                let r = emd_detailed(&dists[ai], &dists[bi], |u, v| 1.0 - s.get(u, v));
                emd_calls += 1;
                ssp_augmentations += r.augmentations;
                let sigma = 1.0 - (1.0 - params.c_a) * delta_rwd - params.c_a * r.distance;
                let sigma = sigma.clamp(0.0, 1.0);
                a_next.set(ai, bi, sigma);
                a_next.set(bi, ai, sigma);
            }
        }

        // State similarity from the new action similarity.
        let mut s_next = SquareMatrix::identity(nv);
        for u in 0..nv {
            for v in (u + 1)..nv {
                if graph.is_absorbing(u) || graph.is_absorbing(v) {
                    continue; // handled by the base cases below
                }
                let h = hausdorff(graph.neighbors(u), graph.neighbors(v), |x, y| {
                    1.0 - a_next.get(x, y)
                });
                let sigma = (params.c_s * (1.0 - h)).clamp(0.0, 1.0);
                s_next.set(u, v, sigma);
                s_next.set(v, u, sigma);
            }
        }
        apply_base_cases(graph, params, &mut s_next);

        let change = s.max_abs_diff(&s_next).max(a_m.max_abs_diff(&a_next));
        s = s_next;
        a_m = a_next;
        if change < params.tolerance {
            converged = true;
            break;
        }
    }

    SimilarityResult {
        sigma_s: s,
        sigma_a: a_m,
        iterations,
        converged,
        emd_calls,
        ssp_augmentations,
    }
}

/// Eq. (3): fix the similarity entries involving absorbing states.
pub(crate) fn apply_base_cases(graph: &MdpGraph, params: &SimilarityParams, s: &mut SquareMatrix) {
    let nv = graph.n_states();
    for u in 0..nv {
        for v in (u + 1)..nv {
            let (au, av) = (graph.is_absorbing(u), graph.is_absorbing(v));
            let sigma = match (au, av) {
                (true, true) => 1.0 - params.absorbing_distance,
                (true, false) | (false, true) => 0.0,
                (false, false) => continue,
            };
            s.set(u, v, sigma);
            s.set(v, u, sigma);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;
    use crate::value_iteration::solve;

    /// Two isomorphic branches from a common root; the twin states must
    /// come out maximally similar.
    fn twin_graph() -> MdpGraph {
        let mut b = MdpBuilder::new(5, 2);
        // Root 0 chooses branch 1 or 2 (identical rewards).
        b.transition(0, 0, 1, 1.0, 0.4);
        b.transition(0, 1, 2, 1.0, 0.4);
        // Both branches behave identically toward absorbing states.
        b.transition(1, 0, 3, 1.0, 0.8);
        b.transition(2, 0, 4, 1.0, 0.8);
        MdpGraph::from_mdp(&b.build())
    }

    #[test]
    fn twins_are_maximally_similar() {
        let g = twin_graph();
        let r = structural_similarity(&g, &SimilarityParams::paper(0.5));
        assert!(r.converged);
        assert!(
            r.sigma_s.get(1, 2) > 0.999,
            "twin states should be similar: {}",
            r.sigma_s.get(1, 2)
        );
        assert!(r.delta_s(1, 2) < 1e-3);
    }

    #[test]
    fn absorbing_vs_live_state_is_maximally_distant() {
        let g = twin_graph();
        let r = structural_similarity(&g, &SimilarityParams::paper(0.5));
        assert_eq!(r.sigma_s.get(0, 3), 0.0);
        assert_eq!(r.delta_s(0, 3), 1.0);
    }

    #[test]
    fn absorbing_pair_uses_target_distance() {
        let g = twin_graph();
        let mut p = SimilarityParams::paper(0.5);
        p.absorbing_distance = 0.25;
        let r = structural_similarity(&g, &p);
        assert!((r.sigma_s.get(3, 4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn matrices_stay_in_unit_interval_and_symmetric() {
        let g = twin_graph();
        let r = structural_similarity(&g, &SimilarityParams::paper(0.3));
        assert!(r.sigma_s.all_within(0.0, 1.0));
        assert!(r.sigma_a.all_within(0.0, 1.0));
        assert!(r.sigma_s.is_symmetric(1e-12));
        assert!(r.sigma_a.is_symmetric(1e-12));
    }

    #[test]
    fn reward_gap_separates_actions() {
        let mut b = MdpBuilder::new(4, 2);
        b.transition(0, 0, 2, 1.0, 0.1);
        b.transition(1, 0, 3, 1.0, 0.9);
        let g = MdpGraph::from_mdp(&b.build());
        let r = structural_similarity(&g, &SimilarityParams::paper(0.5));
        // Two action nodes with very different rewards but same-shape
        // successors (both absorbing, d_uv = 0): distance from rewards.
        assert!(r.delta_a(0, 1) > 0.3, "delta_a = {}", r.delta_a(0, 1));
    }

    #[test]
    fn value_difference_bound_holds() {
        // Randomised MDPs: |V*_u - V*_v| <= delta_S(u,v) / (1 - rho).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let n = 6;
            let mut b = MdpBuilder::new(n, 3);
            for s in 0..(n - 1) {
                for a in 0..2 {
                    // Two random successors each.
                    for _ in 0..2 {
                        let next = rng.gen_range(0..n);
                        let w = rng.gen_range(0.1..1.0);
                        let r = rng.gen_range(0.0..1.0);
                        b.transition(s, a, next, w, r);
                    }
                }
            }
            let mdp = b.build();
            let rho = 0.6;
            let sol = solve(&mdp, rho, 1e-12);
            let g = MdpGraph::from_mdp(&mdp);
            let sim = structural_similarity(&g, &SimilarityParams::paper(rho));
            assert!(sim.converged, "trial {trial} did not converge");
            for u in 0..n {
                for v in 0..n {
                    let gap = (sol.values[u] - sol.values[v]).abs();
                    let bound = sim.value_bound(u, v, rho);
                    assert!(
                        gap <= bound + 1e-6,
                        "trial {trial}: |V[{u}]-V[{v}]| = {gap} > bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_ca_needs_more_iterations() {
        let g = twin_graph();
        let lo = structural_similarity(&g, &SimilarityParams::paper(0.05));
        let hi = structural_similarity(&g, &SimilarityParams::paper(0.95));
        assert!(
            hi.iterations >= lo.iterations,
            "rho 0.95 took {} iters, rho 0.05 took {}",
            hi.iterations,
            lo.iterations
        );
    }

    #[test]
    fn emd_call_count_is_quadratic_in_action_nodes() {
        let g = twin_graph();
        let r = structural_similarity(&g, &SimilarityParams::paper(0.5));
        let na = g.n_action_nodes();
        let per_iter = na * (na - 1) / 2;
        assert_eq!(r.emd_calls, r.iterations * per_iter);
    }

    #[test]
    #[should_panic(expected = "C_A")]
    fn rejects_ca_of_one() {
        let g = twin_graph();
        let mut p = SimilarityParams::paper(0.5);
        p.c_a = 1.0;
        let _ = structural_similarity(&g, &p);
    }
}
