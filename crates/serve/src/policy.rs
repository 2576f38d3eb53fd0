//! [`ServePolicy`]: a device scheduler wired to the resident service.
//!
//! `PooledCapmanPolicy` already speaks `CalibrationBackend`, so wiring
//! a device to the service needs no scheduler changes — this adapter
//! does the coercion once and adds the one thing the raw seam cannot:
//! **tenant-side telemetry into the service's own registry**. The
//! pooled policy's instrumentation goes through the feature-gated
//! global obs hooks; the service's registry is a local value that is always on,
//! so a `/metrics` scrape of the service must include what its tenants
//! experienced (request→adoption staleness), not only what the broker
//! did. [`ServePolicy`] observes each drained calibration sample into
//! `serve_adopt_staleness_s` before passing it through to the normal
//! telemetry channel — nothing is consumed, only witnessed.
//!
//! Fleet runs don't need this type: `DeviceArena`/`ArenaRunner` accept
//! the service directly as their backend (that is how the soak harness
//! drives overload). `ServePolicy` is the single-device integration
//! path and the template for out-of-tree tenants.

use std::sync::Arc;

use capman_battery::chemistry::Class;
use capman_core::online::CalibratorSpec;
use capman_core::policy::{DecisionContext, Observation, Policy};
use capman_core::telemetry::CalibrationSample;
use capman_fleet::{CalibrationBackend, PooledCapmanPolicy};
use capman_obs::Histogram;

use crate::service::CalibrationService;

const ADOPT_STALENESS_BOUNDS: [f64; 11] = [
    0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
];

/// A CAPMAN device scheduler whose calibrations are brokered by a
/// [`CalibrationService`], reporting adoption staleness into the
/// service's registry.
pub struct ServePolicy {
    inner: PooledCapmanPolicy,
    adopt_staleness: Arc<Histogram>,
}

impl ServePolicy {
    /// A scheduler for one device of `cohort`, submitting through
    /// `service` on the cadence of `spec`.
    pub fn new(
        service: Arc<CalibrationService>,
        cohort: usize,
        spec: CalibratorSpec,
        compute_speed: f64,
    ) -> Self {
        let adopt_staleness = service.registry().histogram(
            "serve_adopt_staleness_s",
            "Simulated seconds between a tenant device's request and its adoption",
            &ADOPT_STALENESS_BOUNDS,
        );
        let backend: Arc<dyn CalibrationBackend> = service;
        ServePolicy {
            inner: PooledCapmanPolicy::with_backend(backend, cohort, spec, compute_speed),
            adopt_staleness,
        }
    }

    /// Snapshot sequence number the device currently decides from.
    pub fn seen_seq(&self) -> u64 {
        self.inner.seen_seq()
    }
}

impl Policy for ServePolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, obs: &Observation) {
        self.inner.observe(obs);
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Class {
        self.inner.decide(ctx)
    }

    fn overhead_us(&self) -> f64 {
        self.inner.overhead_us()
    }

    fn recalibrations(&self) -> u64 {
        self.inner.recalibrations()
    }

    fn drain_calibrations(&mut self) -> Vec<CalibrationSample> {
        let samples = self.inner.drain_calibrations();
        for sample in &samples {
            self.adopt_staleness.observe(sample.staleness_s);
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::service::ServiceConfig;
    use capman_device::fsm::Action;
    use capman_device::states::DeviceState;

    fn ctx(time_s: f64) -> DecisionContext<'static> {
        DecisionContext {
            time_s,
            state: DeviceState::awake(),
            actions: &[],
            last_power_w: 0.8,
            big_soc: 0.9,
            little_soc: 0.9,
            big_head: 0.9,
            little_head: 0.9,
            big_usable: true,
            little_usable: true,
            dual: true,
            tec_on: false,
            hotspot_c: 35.0,
        }
    }

    fn warmed(policy: &mut ServePolicy) {
        let awake = DeviceState::awake();
        let asleep = DeviceState::asleep();
        for i in 0..40 {
            let power = 1.0 + (i % 5) as f64 * 0.5;
            policy.observe(&Observation {
                time_s: i as f64,
                prev_state: asleep,
                action: Action::ScreenOn,
                new_state: awake,
                reward: 0.9,
                power_w: power,
            });
            policy.observe(&Observation {
                time_s: i as f64,
                prev_state: awake,
                action: Action::ScreenOff,
                new_state: asleep,
                reward: 0.9,
                power_w: 0.2,
            });
        }
    }

    #[test]
    fn adoption_staleness_lands_in_the_service_registry() {
        let service = Arc::new(CalibrationService::new(
            &[CalibratorSpec::paper()],
            ServiceConfig {
                admission: AdmissionConfig::default(),
                ..ServiceConfig::default()
            },
        ));
        let mut policy = ServePolicy::new(Arc::clone(&service), 0, CalibratorSpec::paper(), 1.0);
        warmed(&mut policy);
        let _ = policy.decide(&ctx(1200.0));
        assert_eq!(policy.recalibrations(), 0, "solve not yet run");
        assert_eq!(service.run_pending(1200.0), 1, "manual service: we pump it");
        let _ = policy.decide(&ctx(1205.0));
        assert_eq!(policy.recalibrations(), 1);
        assert_eq!(policy.seen_seq(), 1);
        let samples = policy.drain_calibrations();
        assert_eq!(samples.len(), 1, "samples pass through to telemetry");
        let snap = service.registry().snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve_adopt_staleness_s")
            .expect("tenant histogram registered in the service registry");
        assert_eq!(hist.count, 1);
        assert!(
            (hist.sum - 5.0).abs() < 1e-9,
            "staleness measured request (1200 s) to adoption (1205 s)"
        );
        assert_eq!(policy.name(), "CAPMAN");
        assert_eq!(policy.overhead_us(), 0.0);
    }
}
