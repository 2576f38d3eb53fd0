//! The backend-calibrated CAPMAN scheduler.
//!
//! [`PooledCapmanPolicy`] is the fleet-mode variant of
//! `capman_core::capman::CapmanPolicy`: the same profiler, the same
//! [`DecisionEngine`] (so decisions are bit-identical given the same
//! calibration), but instead of *running* calibrations inline on the
//! scheduling tick, it submits requests to a shared
//! [`CalibrationBackend`] and reads whatever snapshot the backend last
//! published for its cohort. Ticks never block on calibration; the
//! price is *staleness* — decisions may be taken against a calibration
//! that is a few simulated seconds old, which the policy measures and
//! reports through the standard [`CalibrationSample`] telemetry
//! channel.

use std::sync::Arc;

use capman_battery::chemistry::Class;
use capman_core::capman::{predict_power_w, DecisionEngine};
use capman_core::online::CalibratorSpec;
use capman_core::policy::{DecisionContext, Observation, Policy};
use capman_core::profiler::Profiler;
use capman_core::telemetry::CalibrationSample;

use crate::backend::{CalibrationBackend, CalibrationSnapshot};

/// CAPMAN with calibration delegated to a shared [`CalibrationBackend`]
/// (the resident `capman-serve` service).
pub struct PooledCapmanPolicy {
    profiler: Profiler,
    backend: Arc<dyn CalibrationBackend>,
    cohort: usize,
    compute_speed: f64,
    engine: DecisionEngine,
    /// The cohort's calibration cadence (mirrors the inline calibrator).
    every_s: f64,
    /// Observations required before the first request.
    warmup_observations: u64,
    last_request_s: f64,
    /// Simulated time of the oldest request this device is still
    /// waiting on (staleness is measured from here).
    pending_since_s: Option<f64>,
    /// Last snapshot sequence number adopted.
    seen_seq: u64,
    snapshot: Arc<CalibrationSnapshot>,
    adoptions: u64,
    pending_samples: Vec<CalibrationSample>,
}

impl PooledCapmanPolicy {
    /// A scheduler for one device of `cohort` submitting to `backend`,
    /// requesting on the cadence of `spec`.
    pub fn with_backend(
        backend: Arc<dyn CalibrationBackend>,
        cohort: usize,
        spec: CalibratorSpec,
        compute_speed: f64,
    ) -> Self {
        assert!(compute_speed > 0.0, "compute speed must be positive");
        let snapshot = backend.snapshot(cohort);
        PooledCapmanPolicy {
            profiler: Profiler::new(),
            backend,
            cohort,
            compute_speed,
            engine: DecisionEngine::paper(),
            every_s: spec.every_s,
            warmup_observations: 60,
            last_request_s: f64::NEG_INFINITY,
            pending_since_s: None,
            seen_seq: snapshot.seq,
            snapshot,
            adoptions: 0,
            pending_samples: Vec::new(),
        }
    }

    /// Snapshot sequence number the device currently decides from.
    pub fn seen_seq(&self) -> u64 {
        self.seen_seq
    }
}

impl Policy for PooledCapmanPolicy {
    fn name(&self) -> &'static str {
        "CAPMAN"
    }

    fn observe(&mut self, obs: &Observation) {
        self.profiler.observe(
            obs.prev_state,
            obs.action,
            obs.new_state,
            obs.reward,
            obs.power_w,
        );
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Class {
        // Adopt the latest published snapshot — one lock-free-style
        // load; never waits on an in-progress calibration.
        let snap = self.backend.snapshot(self.cohort);
        if snap.seq > self.seen_seq {
            self.seen_seq = snap.seq;
            self.adoptions += 1;
            let staleness_s = self
                .pending_since_s
                .take()
                .map_or(0.0, |since| (ctx.time_s - since).max(0.0));
            if capman_obs::enabled() {
                capman_obs::counter!(
                    "pool_adoptions_total",
                    "Snapshot adoptions by device schedulers"
                )
                .inc();
                let (trace, publish_span) =
                    snap.trace.map_or((0, 0), |t| (t.trace, t.publish_span));
                let adopt_event = capman_obs::event_in("pool_adopt", snap.seq, trace);
                // Stitch the publish→adopt hop back to the worker that
                // produced this snapshot.
                capman_obs::link("pool_adopt_flow", publish_span, adopt_event, trace);
                capman_obs::histogram!(
                    "adoption_staleness_s",
                    "Simulated seconds between a device's request and its adoption",
                    &[0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0]
                )
                .observe_with_exemplar(staleness_s, trace);
            }
            // Close the request's lifecycle at the backend: the serve
            // service decomposes served staleness into its critical-path
            // phases here.
            self.backend.adopt(self.cohort, &snap, ctx.time_s);
            if let Some(cal) = &snap.calibration {
                let run = &cal.engine_run;
                self.pending_samples.push(CalibrationSample {
                    time_s: ctx.time_s,
                    sweeps: run.sweeps,
                    emd_solves: run.emd_solves,
                    cache_hits: run.cache_hits,
                    bound_pruned: run.bound_pruned,
                    wall_us: run.wall_us,
                    graph_action_nodes: cal.graph_action_nodes,
                    bellman_sweeps: cal.bellman_sweeps,
                    bellman_levels: cal.levels.len(),
                    warm_started: cal.warm_started,
                    staleness_s,
                });
            }
            self.snapshot = snap;
        }

        // Request a calibration only when the cohort's published one is
        // stale for *this* device's clock (or absent). Devices of a
        // cohort share one calibration, so once any device has driven a
        // solve, its cohort-mates find a fresh snapshot and stay
        // silent — this is what caps backend work at O(cohorts) solves per
        // interval instead of O(devices). The per-device cadence gate
        // on top stops a pending (unpublished) request from being
        // re-submitted every tick.
        let snapshot_stale = match self.snapshot.calibration {
            None => true,
            Some(_) => ctx.time_s - self.snapshot.requested_at_s >= self.every_s,
        };
        if snapshot_stale
            && self.profiler.observations() >= self.warmup_observations
            && ctx.time_s - self.last_request_s >= self.every_s
        {
            self.backend
                .submit(self.cohort, ctx.time_s, &self.profiler, self.compute_speed);
            self.last_request_s = ctx.time_s;
            if self.pending_since_s.is_none() {
                self.pending_since_s = Some(ctx.time_s);
            }
        }

        let calibration = self.snapshot.calibration.as_ref();
        let pred = if self.engine.features().prediction {
            predict_power_w(
                &self.profiler,
                calibration.map(|c| c.representative(ctx.state)),
                ctx,
            )
        } else {
            ctx.last_power_w
        };
        let q_pref = calibration.and_then(|c| c.q_preference(ctx.state));
        self.engine.choose(ctx, pred, q_pref)
    }

    fn overhead_us(&self) -> f64 {
        // Calibration runs off the tick path; the scheduler itself pays
        // (approximately) nothing. The backend's wall time is reported
        // through the calibration telemetry instead.
        0.0
    }

    fn recalibrations(&self) -> u64 {
        self.adoptions
    }

    fn drain_calibrations(&mut self) -> Vec<CalibrationSample> {
        std::mem::take(&mut self.pending_samples)
    }
}
