//! Policy iteration — the classic alternative exact solver.
//!
//! The paper cites the textbook observation that "the order of the
//! polynomials could be large enough that the theoretically efficient
//! algorithms are not efficient in practice" as the motivation for its
//! similarity shortcut. Policy iteration is that theoretically efficient
//! algorithm: alternate full policy evaluation with greedy improvement
//! until the policy is stable. It typically needs far fewer (but far
//! heavier) sweeps than value iteration; the tests cross-check all
//! three solvers against each other.

use crate::mdp::Mdp;
use crate::value_iteration::evaluate_policy;

/// The result of policy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyIterationResult {
    /// Optimal state values.
    pub values: Vec<f64>,
    /// The stable greedy policy (`None` on absorbing states).
    pub policy: Vec<Option<usize>>,
    /// Improvement rounds until stability.
    pub rounds: usize,
}

/// Solve the MDP by policy iteration.
///
/// # Panics
///
/// Panics if `rho` is not in `[0, 1)` or `eps` is not positive.
pub fn policy_iteration(mdp: &Mdp, rho: f64, eps: f64) -> PolicyIterationResult {
    assert!((0.0..1.0).contains(&rho), "discount must be in [0, 1)");
    assert!(eps > 0.0, "precision must be positive");
    let n = mdp.n_states();
    // Initial policy: the first available action everywhere.
    let mut policy: Vec<Option<usize>> = (0..n).map(|s| mdp.available_actions(s).next()).collect();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let values = evaluate_policy(mdp, &policy, rho, eps);
        let mut stable = true;
        #[allow(clippy::needless_range_loop)] // `s` indexes both the MDP and the policy
        for s in 0..n {
            let best = mdp.available_actions(s).max_by(|&a, &b| {
                let qa: f64 = mdp
                    .outcomes(s, a)
                    .iter()
                    .map(|o| o.prob * (o.reward + rho * values[o.next]))
                    .sum();
                let qb: f64 = mdp
                    .outcomes(s, b)
                    .iter()
                    .map(|o| o.prob * (o.reward + rho * values[o.next]))
                    .sum();
                qa.total_cmp(&qb)
            });
            if best != policy[s] {
                // Only switch on a strict improvement to guarantee
                // termination under floating-point evaluation.
                let q_of = |action: Option<usize>| -> f64 {
                    action
                        .map(|a| {
                            mdp.outcomes(s, a)
                                .iter()
                                .map(|o| o.prob * (o.reward + rho * values[o.next]))
                                .sum()
                        })
                        .unwrap_or(0.0)
                };
                if q_of(best) > q_of(policy[s]) + eps {
                    policy[s] = best;
                    stable = false;
                }
            }
        }
        if stable || rounds > 10_000 {
            let values = evaluate_policy(mdp, &policy, rho, eps);
            return PolicyIterationResult {
                values,
                policy,
                rounds,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;
    use crate::value_iteration::solve;

    fn loopy_mdp() -> Mdp {
        let mut b = MdpBuilder::new(4, 2);
        b.transition(0, 0, 1, 1.0, 0.1);
        b.transition(0, 1, 2, 1.0, 0.5);
        b.transition(1, 0, 0, 0.5, 0.3);
        b.transition(1, 0, 3, 0.5, 0.0);
        b.transition(2, 0, 0, 1.0, 0.8);
        b.transition(2, 1, 3, 1.0, 1.0);
        b.transition(3, 0, 3, 1.0, 0.2);
        b.build()
    }

    #[test]
    fn agrees_with_value_iteration() {
        let mdp = loopy_mdp();
        for rho in [0.3, 0.7, 0.9] {
            let vi = solve(&mdp, rho, 1e-12);
            let pi = policy_iteration(&mdp, rho, 1e-10);
            for s in 0..mdp.n_states() {
                assert!(
                    (vi.values[s] - pi.values[s]).abs() < 1e-6,
                    "rho {rho}, state {s}: VI {} vs PI {}",
                    vi.values[s],
                    pi.values[s]
                );
            }
        }
    }

    #[test]
    fn terminates_in_few_rounds() {
        let pi = policy_iteration(&loopy_mdp(), 0.9, 1e-10);
        assert!(pi.rounds <= 10, "took {} rounds", pi.rounds);
    }

    #[test]
    fn absorbing_states_have_no_policy() {
        let mut b = MdpBuilder::new(2, 1);
        b.transition(0, 0, 1, 1.0, 1.0);
        let pi = policy_iteration(&b.build(), 0.5, 1e-10);
        assert_eq!(pi.policy[1], None);
        assert_eq!(pi.values[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "discount")]
    fn rejects_discount_of_one() {
        let _ = policy_iteration(&loopy_mdp(), 1.0, 1e-10);
    }
}
