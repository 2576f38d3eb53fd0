//! Static policy dispatch for the fleet hot loop.
//!
//! The single-device front door boxes its policy (`Box<dyn Policy>`),
//! which is fine once per run but not once per device at fleet scale: a
//! million-device run would make a million short-lived heap allocations
//! just to pick a scheduler variant. [`FleetPolicy`] is the closed enum
//! over every policy a [`FleetProfile`](crate::profile::FleetProfile)
//! can name; a shard owns exactly one slot of it and re-initialises the
//! slot in place for each device, so the hot loop performs zero policy
//! allocations (the variants themselves own only inline state or
//! `Arc`-shared references).
//!
//! Dispatch is a match instead of a vtable call; decisions are the same
//! code as the boxed path, so results are bit-identical.

use std::sync::Arc;

use capman_battery::chemistry::Class;
use capman_core::baselines::{DualPolicy, HeuristicPolicy, PracticePolicy};
use capman_core::capman::CapmanPolicy;
use capman_core::experiments::PolicyKind;
use capman_core::oracle::OraclePolicy;
use capman_core::policy::{DecisionContext, Observation, Policy};
use capman_core::telemetry::CalibrationSample;
use capman_workload::Trace;

use crate::backend::CalibrationBackend;
use crate::policy::PooledCapmanPolicy;
use crate::profile::{DeviceSpec, FleetProfile};

/// One device's scheduling policy, enum-dispatched.
///
/// Built per device with [`FleetPolicy::for_device`]; a shard keeps one
/// slot and overwrites it in place between devices.
//
// The variants deliberately sit inline: boxing the big one (CAPMAN's
// inline calibrator, ~800 B) would put a heap allocation back into the
// per-device hot path the enum exists to remove, and the value lives in
// a dense arena column sized by `shard_devices`, where ~1 KiB rows are
// the budgeted cost.
#[allow(clippy::large_enum_variant)]
pub enum FleetPolicy {
    /// Inline-calibrating CAPMAN (the single-device seed behaviour).
    Capman(CapmanPolicy),
    /// CAPMAN delegating calibration to a shared calibration backend.
    Pooled(PooledCapmanPolicy),
    /// The clairvoyant offline baseline (owns its trace copy).
    Oracle(OraclePolicy),
    /// Single stock battery, no scheduling.
    Practice(PracticePolicy),
    /// big.LITTLE, LITTLE first.
    Dual(DualPolicy),
    /// Reactive utilisation prediction.
    Heuristic(HeuristicPolicy),
}

impl FleetPolicy {
    /// A cheap initial slot value (overwritten before the first device).
    pub fn placeholder() -> Self {
        FleetPolicy::Practice(PracticePolicy)
    }

    /// Fresh policy state for one device of `profile`.
    ///
    /// CAPMAN cohorts go through the backend when one is supplied and
    /// calibrate inline otherwise. `oracle_trace` is only invoked for
    /// Oracle cohorts — the clairvoyant baseline is the one policy that
    /// must own a materialized copy of the device's trace, so streaming
    /// callers only pay for materialization where it is semantically
    /// required.
    pub fn for_device(
        profile: &FleetProfile,
        spec: &DeviceSpec,
        backend: Option<&Arc<dyn CalibrationBackend>>,
        oracle_trace: impl FnOnce() -> Trace,
    ) -> Self {
        match (profile.kind, backend) {
            (PolicyKind::Capman, Some(backend)) => {
                FleetPolicy::Pooled(PooledCapmanPolicy::with_backend(
                    Arc::clone(backend),
                    spec.cohort,
                    profile.calibrator,
                    profile.phone.compute_speed,
                ))
            }
            (PolicyKind::Capman, None) => FleetPolicy::Capman(CapmanPolicy::with_calibrator(
                profile.phone.compute_speed,
                profile.calibrator.build(),
            )),
            (PolicyKind::Oracle, _) => FleetPolicy::Oracle(OraclePolicy::new(
                oracle_trace(),
                profile.phone.power_model(),
            )),
            (PolicyKind::Practice, _) => FleetPolicy::Practice(PracticePolicy),
            (PolicyKind::Dual, _) => FleetPolicy::Dual(DualPolicy),
            (PolicyKind::Heuristic, _) => FleetPolicy::Heuristic(HeuristicPolicy::new()),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            FleetPolicy::Capman($p) => $body,
            FleetPolicy::Pooled($p) => $body,
            FleetPolicy::Oracle($p) => $body,
            FleetPolicy::Practice($p) => $body,
            FleetPolicy::Dual($p) => $body,
            FleetPolicy::Heuristic($p) => $body,
        }
    };
}

impl Policy for FleetPolicy {
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    fn observe(&mut self, obs: &Observation) {
        dispatch!(self, p => p.observe(obs))
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Class {
        dispatch!(self, p => p.decide(ctx))
    }

    fn overhead_us(&self) -> f64 {
        dispatch!(self, p => p.overhead_us())
    }

    fn recalibrations(&self) -> u64 {
        dispatch!(self, p => p.recalibrations())
    }

    fn drain_calibrations(&mut self) -> Vec<CalibrationSample> {
        dispatch!(self, p => p.drain_calibrations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capman_core::experiments::build_policy;
    use capman_workload::{generate, WorkloadKind};

    #[test]
    fn enum_names_match_the_boxed_policies() {
        let trace = generate(WorkloadKind::Video, 600.0, 1);
        for kind in PolicyKind::ALL {
            let mut profile = crate::profile::FleetProfile::capman("t", WorkloadKind::Video, 1);
            profile.kind = kind;
            profile.config.max_horizon_s = 600.0;
            let spec = profile.device(0, 0);
            let enum_policy = FleetPolicy::for_device(&profile, &spec, None, || trace.clone());
            let boxed = build_policy(kind, &trace, &profile.phone);
            assert_eq!(enum_policy.name(), boxed.name(), "{kind:?}");
        }
    }

    #[test]
    fn placeholder_is_inert() {
        let p = FleetPolicy::placeholder();
        assert_eq!(p.recalibrations(), 0);
        assert_eq!(p.overhead_us(), 0.0);
    }
}
