//! Empirical competitiveness accounting.
//!
//! The paper proves CAPMAN's online scheme is worst-case
//! `O(1/(1-rho))`-competitive against the optimal policy and highlights
//! that "if we relax the similarity discount factor and let rho = 0.05,
//! the upper bound of Algorithm 1 is within O(1.05)-competitiveness".
//! This module makes both sides measurable: the theoretical bound for a
//! given `rho` and `theta`, and the *empirical* ratio of an online
//! policy's outcome against the clairvoyant Oracle's on the same trace.

use crate::metrics::Outcome;

/// The theoretical worst-case competitiveness factor of the paper:
/// following a state within similarity distance `theta` of a solved one
/// costs at most `theta / (1 - rho)` in (normalised) value, i.e. the
/// policy is `1 + theta / (1 - rho)`-competitive.
///
/// # Panics
///
/// Panics if `rho` is not in `[0, 1)` or `theta` not in `[0, 1]`.
pub fn theoretical_ratio(rho: f64, theta: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
    assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
    1.0 + theta / (1.0 - rho)
}

/// The paper's headline configuration: `rho = 0.05` with maximal reuse
/// (`theta` saturated at the bound scale) gives `O(1.05)`.
pub fn paper_headline_ratio() -> f64 {
    // theta scaled into the normalised reward unit: the paper states the
    // bound directly as 1/(1-rho) with rho = 0.05 -> 1.0526... ~ 1.05.
    1.0 / (1.0 - 0.05)
}

/// An empirical competitiveness measurement of one policy against the
/// Oracle on the same trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalRatio {
    /// Oracle service time over the policy's (>= 1 means the Oracle was
    /// at least as good; the competitive ratio).
    pub service_ratio: f64,
    /// Oracle work served over the policy's.
    pub work_ratio: f64,
}

impl EmpiricalRatio {
    /// Measure a policy outcome against the Oracle outcome for the same
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if the outcomes come from different workloads, or the
    /// policy outcome has zero service time or work.
    pub fn measure(policy: &Outcome, oracle: &Outcome) -> Self {
        assert_eq!(
            policy.workload, oracle.workload,
            "outcomes must share the trace"
        );
        assert!(policy.service_time_s > 0.0 && policy.work_served > 0.0);
        EmpiricalRatio {
            service_ratio: oracle.service_time_s / policy.service_time_s,
            work_ratio: oracle.work_served / policy.work_served,
        }
    }

    /// Whether the measurement respects a theoretical ratio (with a
    /// small tolerance for simulation noise).
    pub fn within(&self, theoretical: f64) -> bool {
        self.service_ratio <= theoretical * 1.02
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::experiments::{run_policy_with, PolicyKind};
    use capman_device::phone::PhoneProfile;
    use capman_workload::WorkloadKind;

    #[test]
    fn theoretical_ratio_matches_the_paper_example() {
        // rho = 0.05 -> within O(1.05)-competitiveness.
        assert!((paper_headline_ratio() - 1.0526).abs() < 1e-3);
        assert!((theoretical_ratio(0.05, 0.05) - 1.0526).abs() < 1e-3);
        // The bound diverges as rho -> 1.
        assert!(theoretical_ratio(0.99, 0.5) > 50.0);
        // Zero reuse distance is 1-competitive.
        assert_eq!(theoretical_ratio(0.5, 0.0), 1.0);
    }

    #[test]
    fn capman_is_empirically_near_one_competitive() {
        let run = |kind: PolicyKind| {
            let config = SimConfig {
                max_horizon_s: 12_000.0,
                tec_enabled: kind.has_tec(),
                ..SimConfig::paper()
            };
            run_policy_with(kind, WorkloadKind::Video, PhoneProfile::nexus(), 33, config)
        };
        let capman = run(PolicyKind::Capman);
        let oracle = run(PolicyKind::Oracle);
        let ratio = EmpiricalRatio::measure(&capman, &oracle);
        // Far inside the paper's 1.05 guarantee on this workload.
        assert!(
            ratio.within(paper_headline_ratio()),
            "service ratio {} exceeds the bound",
            ratio.service_ratio
        );
    }

    #[test]
    fn heuristic_ratio_is_worse_than_capman_ratio() {
        let run = |kind: PolicyKind| {
            let config = SimConfig {
                max_horizon_s: 15_000.0,
                tec_enabled: kind.has_tec(),
                ..SimConfig::paper()
            };
            run_policy_with(
                kind,
                WorkloadKind::Pcmark,
                PhoneProfile::nexus(),
                33,
                config,
            )
        };
        let oracle = run(PolicyKind::Oracle);
        let capman = EmpiricalRatio::measure(&run(PolicyKind::Capman), &oracle);
        let heuristic = EmpiricalRatio::measure(&run(PolicyKind::Heuristic), &oracle);
        assert!(heuristic.service_ratio >= capman.service_ratio);
    }

    #[test]
    #[should_panic(expected = "share the trace")]
    fn rejects_mismatched_workloads() {
        let config = SimConfig {
            max_horizon_s: 400.0,
            ..SimConfig::paper()
        };
        let a = run_policy_with(
            PolicyKind::Dual,
            WorkloadKind::Video,
            PhoneProfile::nexus(),
            1,
            config,
        );
        let b = run_policy_with(
            PolicyKind::Dual,
            WorkloadKind::Pcmark,
            PhoneProfile::nexus(),
            1,
            config,
        );
        let _ = EmpiricalRatio::measure(&a, &b);
    }
}
