//! Successive halving for calibrator selection — the first consumer of
//! the experiment harness.
//!
//! [`capman_core::oracle::select_calibrator`] scores every candidate
//! with a complete what-if rollout over the full horizon: a flat grid,
//! `n` full simulations. Successive halving spends most of that budget
//! on the contenders instead: **rung 1** runs the whole slate at a
//! fraction of the horizon (cheap, enough to expose clearly-worse
//! configurations), keeps the top half, and **rung 2** re-runs only the
//! survivors over the full horizon. Both rungs are ordinary experiments
//! — candidates become variants, the probe becomes a one-row dataset —
//! so every rollout leaves a `TrialResult` that can be persisted and
//! audited like any other sweep.
//!
//! The ranking key is the oracle's own comparator — most work served,
//! ties by service time, then candidate order — so when the eventual
//! winner survives rung 1 (the expected case: a configuration that wins
//! a full discharge rarely sits in the bottom half of a half-length
//! one), the halving result is identical to the flat grid's at roughly
//! `n/2 + n·fraction` full-rollout cost instead of `n`.

use capman_core::experiments::PolicyKind;
use capman_core::online::CalibratorSpec;
use capman_device::phone::PhoneProfile;
use capman_workload::WorkloadKind;

use crate::runner;
use crate::spec::{Calibration, ExperimentSpec, Task, TaskKind, Variant};
use crate::trial::TrialResult;

/// The audit trail of one halving run.
#[derive(Debug, Clone)]
pub struct HalvingOutcome {
    /// Winning index into the original candidate slate.
    pub winner: usize,
    /// Candidate indices that survived rung 1, in slate order.
    pub survivors: Vec<usize>,
    /// Rung-1 trials (whole slate, short horizon); trial `i` belongs to
    /// candidate `i`.
    pub rung1: Vec<TrialResult>,
    /// Rung-2 trials (survivors only, full horizon); trial `i` belongs
    /// to `survivors[i]`.
    pub rung2: Vec<TrialResult>,
}

/// The oracle's comparator over a trial: more work served wins, ties go
/// to longer service, then to the earlier candidate (via stable sort /
/// strict-greater scans).
fn key(t: &TrialResult) -> (f64, f64) {
    (t.metric("work_served").unwrap_or(0.0), t.objective)
}

/// Pick a calibrator by successive halving: two chained experiments in
/// place of the oracle's flat grid. Runs CAPMAN what-if rollouts with
/// the evaluation defaults (TEC on), `rung_fraction` of `horizon_s`
/// first, then the full horizon for the surviving half.
///
/// # Panics
///
/// Panics if `candidates` is empty, `horizon_s` is not positive, or
/// `rung_fraction` is outside `(0, 1]`.
pub fn select_calibrator_halving(
    candidates: &[CalibratorSpec],
    workload: WorkloadKind,
    phone: &PhoneProfile,
    seed: u64,
    horizon_s: f64,
    rung_fraction: f64,
) -> HalvingOutcome {
    assert!(!candidates.is_empty(), "need at least one candidate");
    assert!(horizon_s > 0.0, "horizon must be positive");
    assert!(
        rung_fraction > 0.0 && rung_fraction <= 1.0,
        "rung fraction must be in (0, 1]"
    );
    let probe = Task {
        id: "probe".into(),
        seed: Some(seed),
        horizon_s: None,
        kind: TaskKind::Scenario {
            workload,
            phone: phone.clone(),
        },
    };
    let experiment = |name: &str, slate: &[usize], horizon: f64| ExperimentSpec {
        name: name.into(),
        description: "calibrator halving rung".into(),
        repeats: 1,
        base_seed: seed,
        horizon_s: Some(horizon),
        variants: slate
            .iter()
            .map(|&i| Variant {
                name: format!("c{i:02}"),
                policy: PolicyKind::Capman,
                calibrator: Some(candidates[i]),
                tec: None,
                horizon_s: None,
                calibration: Calibration::Pool,
            })
            .collect(),
    };

    // Rung 1: the whole slate at the short horizon.
    let slate: Vec<usize> = (0..candidates.len()).collect();
    let rung1 = runner::run_experiment(
        &experiment("halving-rung1", &slate, horizon_s * rung_fraction),
        std::slice::from_ref(&probe),
    );

    // Keep the top half (ceil), ties to the earlier candidate.
    let keep = candidates.len().div_ceil(2);
    let mut order = slate.clone();
    order.sort_by(|&a, &b| {
        key(&rung1[b])
            .partial_cmp(&key(&rung1[a]))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut survivors: Vec<usize> = order[..keep].to_vec();
    survivors.sort_unstable();

    // Rung 2: survivors over the full horizon.
    let rung2 = runner::run_experiment(
        &experiment("halving-rung2", &survivors, horizon_s),
        std::slice::from_ref(&probe),
    );
    let mut best = 0;
    for i in 1..rung2.len() {
        if key(&rung2[i]) > key(&rung2[best]) {
            best = i;
        }
    }
    HalvingOutcome {
        winner: survivors[best],
        survivors,
        rung1,
        rung2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capman_core::config::SimConfig;
    use capman_core::oracle;

    fn slate() -> Vec<CalibratorSpec> {
        let paper = CalibratorSpec::paper();
        vec![
            CalibratorSpec {
                every_s: 300.0,
                ..paper
            },
            paper,
            CalibratorSpec {
                every_s: 2400.0,
                ..paper
            },
            CalibratorSpec {
                rho: 0.5,
                every_s: 600.0,
                ..paper
            },
        ]
    }

    #[test]
    fn halving_keeps_the_top_half_and_picks_from_it() {
        let candidates = slate();
        let out = select_calibrator_halving(
            &candidates,
            WorkloadKind::Pcmark,
            &PhoneProfile::nexus(),
            17,
            2000.0,
            0.5,
        );
        assert_eq!(out.rung1.len(), candidates.len());
        assert_eq!(out.survivors.len(), 2, "ceil(4/2)");
        assert_eq!(out.rung2.len(), out.survivors.len());
        assert!(out.survivors.contains(&out.winner));
        // The audit trail carries real rollouts.
        assert!(out.rung1.iter().all(|t| t.objective > 0.0));
        assert!(out.rung2.iter().all(|t| t.objective > 0.0));
    }

    #[test]
    fn halving_agrees_with_the_flat_oracle_grid() {
        let candidates = slate();
        let horizon = 2000.0;
        let (oracle_winner, _) = oracle::select_calibrator(
            &candidates,
            WorkloadKind::Pcmark,
            &PhoneProfile::nexus(),
            17,
            SimConfig {
                max_horizon_s: horizon,
                ..SimConfig::paper_with_tec()
            },
        );
        let out = select_calibrator_halving(
            &candidates,
            WorkloadKind::Pcmark,
            &PhoneProfile::nexus(),
            17,
            horizon,
            0.5,
        );
        assert_eq!(
            out.winner,
            oracle_winner,
            "survivors: {:?}, rung2 keys: {:?}",
            out.survivors,
            out.rung2.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_single_candidate_wins_by_default() {
        let out = select_calibrator_halving(
            &[CalibratorSpec::paper()],
            WorkloadKind::Video,
            &PhoneProfile::nexus(),
            3,
            900.0,
            0.25,
        );
        assert_eq!(out.winner, 0);
        assert_eq!(out.survivors, vec![0]);
    }
}
