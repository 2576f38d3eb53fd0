//! Determinism guarantees of the similarity engine.
//!
//! The engine promises: (1) its plain serial mode reproduces the
//! reference `structural_similarity` bit for bit; (2) serial and
//! parallel scheduling of the full engine are bit-identical; (3) a warm
//! memo cache returns bit-identical results to a cold one; (4) the
//! memoized/pruned fast path stays within fixpoint tolerance of the
//! reference. All on randomized seeded MDP graphs, each both in full and
//! pruned to the few live states calibration actually sweeps.

use proptest::prelude::*;

use capman_mdp::engine::{ExecutionMode, SimilarityEngine};
use capman_mdp::graph::MdpGraph;
use capman_mdp::mdp::{Mdp, MdpBuilder};
use capman_mdp::similarity::{structural_similarity, SimilarityParams};

const N_ACTIONS: usize = 3;

/// A random small MDP with duplicated successor distributions (several
/// actions share a target), so the memo cache and bounds get exercised,
/// and with repeated `(state, action, next)` transitions, so an action
/// node's mass on one successor accumulates over several edges. Paired
/// with a keep mask over `(state, action)` that keeps about one action
/// node in four.
fn arb_mdp() -> impl Strategy<Value = (Mdp, Vec<bool>)> {
    (3usize..8, 0u64..10_000).prop_map(|(n, seed)| {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut b = MdpBuilder::new(n, N_ACTIONS);
        for s in 0..(n - 1) {
            let shared_target = next(n as u64) as usize;
            for a in 0..(1 + next(3) as usize).min(N_ACTIONS) {
                // Half the actions reuse the state's shared target with
                // unit weight: identical successor distributions.
                if next(2) == 0 {
                    b.transition(s, a, shared_target, 1.0, next(100) as f64 / 100.0);
                } else {
                    for _ in 0..(1 + next(2)) {
                        let to = next(n as u64) as usize;
                        let w = 1.0 + next(9) as f64;
                        let r = next(100) as f64 / 100.0;
                        b.transition(s, a, to, w, r);
                        if next(3) == 0 {
                            b.transition(s, a, to, 1.0 + next(9) as f64, r);
                        }
                    }
                }
            }
        }
        let keep = (0..n * N_ACTIONS).map(|_| next(4) == 0).collect();
        (b.build(), keep)
    })
}

/// Both graphs of a case: the full graph, whose only absorbing state is
/// the last, and the pruned graph, where most states are absorbing as
/// they are in calibration.
fn graphs((mdp, keep): &(Mdp, Vec<bool>)) -> [MdpGraph; 2] {
    [
        MdpGraph::from_mdp(mdp),
        MdpGraph::filtered(mdp, |s, a| keep[s * N_ACTIONS + a]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plain serial engine == reference implementation, bit for bit.
    #[test]
    fn serial_engine_reproduces_reference(case in arb_mdp(), rho in 0.1f64..0.9) {
        let params = SimilarityParams::paper(rho);
        for g in graphs(&case) {
            let seed = structural_similarity(&g, &params);
            let r = SimilarityEngine::serial().compute(&g, &params);
            prop_assert_eq!(&r.sigma_s, &seed.sigma_s);
            prop_assert_eq!(&r.sigma_a, &seed.sigma_a);
            prop_assert_eq!(r.iterations, seed.iterations);
            prop_assert_eq!(r.converged, seed.converged);
            prop_assert_eq!(r.ssp_augmentations, seed.ssp_augmentations);
        }
    }

    /// Serial and parallel scheduling of the full engine agree bitwise.
    #[test]
    fn parallel_schedule_is_bit_identical(case in arb_mdp(), rho in 0.1f64..0.9) {
        let params = SimilarityParams::paper(rho);
        for g in graphs(&case) {
            let serial = SimilarityEngine::with_options(ExecutionMode::Serial, true, true)
                .compute(&g, &params);
            let parallel = SimilarityEngine::with_options(ExecutionMode::Parallel, true, true)
                .compute(&g, &params);
            prop_assert_eq!(&serial.sigma_s, &parallel.sigma_s);
            prop_assert_eq!(&serial.sigma_a, &parallel.sigma_a);
            prop_assert_eq!(serial.iterations, parallel.iterations);
        }
    }

    /// A warm cache changes nothing but the work done.
    #[test]
    fn warm_cache_is_bit_identical_to_cold(case in arb_mdp(), rho in 0.1f64..0.9) {
        let params = SimilarityParams::paper(rho);
        for g in graphs(&case) {
            let mut engine = SimilarityEngine::parallel();
            let cold = engine.compute(&g, &params);
            let cold_solves = engine.stats().last_run.emd_solves;
            let warm = engine.compute(&g, &params);
            let warm_solves = engine.stats().last_run.emd_solves;
            prop_assert_eq!(&cold.sigma_s, &warm.sigma_s);
            prop_assert_eq!(&cold.sigma_a, &warm.sigma_a);
            prop_assert_eq!(cold.iterations, warm.iterations);
            prop_assert!(warm_solves <= cold_solves,
                "warm run solved more: {warm_solves} > {cold_solves}");
        }
    }

    /// Memoization and pruning stay within fixpoint tolerance of the
    /// reference, and never break the matrix invariants.
    #[test]
    fn fast_path_stays_within_tolerance(case in arb_mdp(), rho in 0.1f64..0.9) {
        let params = SimilarityParams::paper(rho);
        for g in graphs(&case) {
            let seed = structural_similarity(&g, &params);
            let r = SimilarityEngine::parallel().compute(&g, &params);
            prop_assert!(r.sigma_s.max_abs_diff(&seed.sigma_s) < 1e-9);
            prop_assert!(r.sigma_a.max_abs_diff(&seed.sigma_a) < 1e-9);
            prop_assert!(r.sigma_s.all_within(0.0, 1.0));
            prop_assert!(r.sigma_a.all_within(0.0, 1.0));
            prop_assert!(r.sigma_s.is_symmetric(0.0));
            prop_assert!(r.sigma_a.is_symmetric(0.0));
        }
    }
}
