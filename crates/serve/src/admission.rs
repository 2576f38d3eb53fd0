//! Admission control: quotas, windows, and the outcome taxonomy.
//!
//! Admission decides what happens to a submission *before* any solve
//! is scheduled. Each cohort gets a quota of admissions per cadence
//! window; the service-wide pending-slot count is bounded; and because
//! every cohort owns at most **one** pending slot, "drop-oldest per
//! cohort" degenerates to the cheapest possible form — the newest
//! request replaces the queued one in place ([`AdmissionOutcome::
//! Replaced`]), keeping its age and its position in the priority
//! order. Overload therefore costs payload freshness, never a
//! tenant's place in line, which is half of the no-starvation
//! argument (the other half is lane aging, see [`crate::lanes`]).
//!
//! Every submission gets exactly one outcome, giving the service
//! counter identity `submitted == admitted + coalesced + replaced +
//! shed + backpressure` that the overload tests pin.

use crate::slo::ServiceMode;

/// Admission-layer sizing and cadence.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Service-wide bound on pending (admitted, unsolved) requests.
    /// Submissions that would exceed it get
    /// [`AdmissionOutcome::Backpressure`].
    pub queue_bound: usize,
    /// Admissions allowed per cohort per window in
    /// [`ServiceMode::Normal`]. Degraded mode halves it, shedding mode
    /// forces 1 (see [`effective_quota`]).
    pub quota_per_window: u32,
    /// The cadence window, simulated seconds. Aligns with the cohorts'
    /// calibration cadence so "one adoption per cadence window" is the
    /// natural starvation unit.
    pub window_s: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_bound: 64,
            quota_per_window: 4,
            window_s: 600.0,
        }
    }
}

/// What happened to one submission. Exactly one per submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Admitted into the cohort's pending slot; a solve will run.
    Admitted,
    /// The cohort's calibration is being solved right now; this
    /// request is absorbed by it.
    Coalesced,
    /// Drop-oldest: the cohort already had a pending request, whose
    /// payload this newer submission replaced in place. The older
    /// payload is the one shed.
    Replaced,
    /// The cohort exhausted its admission quota for this window.
    Shed,
    /// The service-wide pending bound is reached; the caller should
    /// back off (nothing of this cohort's was displaced).
    Backpressure,
}

impl AdmissionOutcome {
    /// Did this submission's payload fail to reach a solve? (The
    /// replaced case sheds the *older* payload; both count as shed
    /// work when measuring load-shedding.)
    pub fn is_shed(self) -> bool {
        matches!(
            self,
            AdmissionOutcome::Replaced | AdmissionOutcome::Shed | AdmissionOutcome::Backpressure
        )
    }

    /// Stable lowercase label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionOutcome::Admitted => "admitted",
            AdmissionOutcome::Coalesced => "coalesced",
            AdmissionOutcome::Replaced => "replaced",
            AdmissionOutcome::Shed => "shed",
            AdmissionOutcome::Backpressure => "backpressure",
        }
    }
}

/// Per-cohort admission ledger: which window we are in and how much of
/// the quota is spent there.
#[derive(Debug, Clone, Copy, Default)]
pub struct CohortLedger {
    window_index: u64,
    admitted_in_window: u32,
}

impl CohortLedger {
    /// Roll the ledger to the window containing `now_s`, resetting the
    /// spent quota on a boundary crossing. Returns `true` if a new
    /// window began.
    pub fn roll(&mut self, now_s: f64, window_s: f64) -> bool {
        let index = if window_s > 0.0 && now_s >= 0.0 {
            (now_s / window_s) as u64
        } else {
            0
        };
        if index != self.window_index {
            self.window_index = index;
            self.admitted_in_window = 0;
            return true;
        }
        false
    }

    /// Spend one unit of quota if any remains in this window.
    pub fn try_admit(&mut self, quota: u32) -> bool {
        if self.admitted_in_window < quota {
            self.admitted_in_window += 1;
            return true;
        }
        false
    }

    /// Admissions spent in the current window.
    pub fn admitted_in_window(&self) -> u32 {
        self.admitted_in_window
    }
}

/// The quota actually enforced under `mode`: the SLO monitor's mode
/// feeds back into admission. Never below 1 — a zero quota would
/// starve by construction, which the no-starvation contract forbids.
pub fn effective_quota(base: u32, mode: ServiceMode) -> u32 {
    match mode {
        ServiceMode::Normal => base.max(1),
        ServiceMode::Degraded => (base / 2).max(1),
        ServiceMode::Shedding => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_rolls_on_window_boundaries_and_resets_quota() {
        let mut ledger = CohortLedger::default();
        assert!(!ledger.roll(10.0, 600.0), "still window 0");
        assert!(ledger.try_admit(2));
        assert!(ledger.try_admit(2));
        assert!(!ledger.try_admit(2), "quota spent");
        assert_eq!(ledger.admitted_in_window(), 2);
        assert!(ledger.roll(650.0, 600.0), "crossed into window 1");
        assert_eq!(ledger.admitted_in_window(), 0);
        assert!(ledger.try_admit(2), "fresh quota");
    }

    #[test]
    fn effective_quota_degrades_but_never_hits_zero() {
        assert_eq!(effective_quota(4, ServiceMode::Normal), 4);
        assert_eq!(effective_quota(4, ServiceMode::Degraded), 2);
        assert_eq!(effective_quota(4, ServiceMode::Shedding), 1);
        assert_eq!(effective_quota(1, ServiceMode::Degraded), 1);
        assert_eq!(effective_quota(0, ServiceMode::Normal), 1);
        assert_eq!(effective_quota(0, ServiceMode::Shedding), 1);
    }

    #[test]
    fn shed_taxonomy_is_what_reports_expect() {
        assert!(!AdmissionOutcome::Admitted.is_shed());
        assert!(!AdmissionOutcome::Coalesced.is_shed());
        assert!(AdmissionOutcome::Replaced.is_shed());
        assert!(AdmissionOutcome::Shed.is_shed());
        assert!(AdmissionOutcome::Backpressure.is_shed());
        assert_eq!(AdmissionOutcome::Backpressure.label(), "backpressure");
    }
}
