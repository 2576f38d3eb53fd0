//! The service as the fleet's calibration backend.
//!
//! `CalibrationService` is the one backend behind
//! `ArenaRunner::run_with_backend` and `PooledCapmanPolicy`, so it
//! carries the behaviours every background-calibrated fleet relies on:
//! one outstanding solve per cohort, a publication sequence per cohort,
//! warm and incremental solves on the cohort's own calibrator, counter
//! identities that survive a shutdown race, and devices that decide
//! without blocking and adopt on a later tick. Adoption and counting
//! assertions use the manually stepped service (`workers: 0`), which is
//! deterministic; only the shutdown race and the fleet envelope run
//! solver threads.

use std::sync::Arc;

use capman_core::online::CalibratorSpec;
use capman_core::policy::{DecisionContext, Observation, Policy};
use capman_core::profiler::Profiler;
use capman_device::fsm::Action;
use capman_device::states::DeviceState;
use capman_fleet::{
    ArenaConfig, ArenaRunner, CalibrationBackend, FleetPlan, FleetProfile, FleetResult,
    PooledCapmanPolicy, SubmitOutcome,
};
use capman_serve::{CalibrationService, ServiceConfig};
use capman_workload::WorkloadKind;

/// A profiler warmed past the calibrator's observation threshold.
fn warm_profiler() -> Profiler {
    let mut profiler = Profiler::new();
    let awake = DeviceState::awake();
    let asleep = DeviceState::asleep();
    for i in 0..40 {
        let power = 1.0 + (i % 5) as f64 * 0.5;
        profiler.observe(asleep, Action::ScreenOn, awake, 0.9, power);
        profiler.observe(awake, Action::TimerTick, awake, 0.9, power);
        profiler.observe(awake, Action::ScreenOff, asleep, 0.9, 0.2);
    }
    profiler
}

fn specs(n: usize) -> Vec<CalibratorSpec> {
    (0..n).map(|_| CalibratorSpec::paper()).collect()
}

/// A manually stepped service that never sheds.
fn stepped(cohorts: usize) -> Arc<CalibrationService> {
    Arc::new(CalibrationService::new(
        &specs(cohorts),
        ServiceConfig::unmetered(0, cohorts),
    ))
}

#[test]
fn a_cohort_burst_is_absorbed_by_its_outstanding_request() {
    let service = stepped(1);
    let backend: &dyn CalibrationBackend = &*service;
    let profiler = warm_profiler();
    assert_eq!(backend.snapshot(0).seq, 0);
    assert!(backend.snapshot(0).calibration.is_none(), "placeholder");
    assert_eq!(
        backend.submit(0, 1200.0, &profiler, 1.0),
        SubmitOutcome::Enqueued
    );
    // The rest of the cohort asks while that request is outstanding:
    // every follow-up folds into it instead of queueing another solve.
    for _ in 0..64 {
        assert_eq!(
            backend.submit(0, 1200.0, &profiler, 1.0),
            SubmitOutcome::Coalesced
        );
    }
    assert_eq!(service.queue_depth(), 1);
    assert_eq!(service.run_pending(1200.0), 1, "one solve for the burst");
    let c = service.counters();
    assert_eq!(c.submitted, 65);
    assert_eq!(
        c.submitted,
        c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure
    );
    assert_eq!((c.admitted, c.completed), (1, 1));
    // Once the solve published, the next request is admitted again.
    assert_eq!(
        backend.submit(0, 2400.0, &profiler, 1.0),
        SubmitOutcome::Enqueued
    );
    service.run_pending(2400.0);
    assert_eq!(backend.snapshot(0).seq, 2);
}

#[test]
fn sequence_numbers_rise_by_one_per_publication_per_cohort() {
    let service = stepped(2);
    let profiler = warm_profiler();
    for round in 1..=3u64 {
        let now = 1200.0 * round as f64;
        for cohort in 0..2 {
            service.submit_request(cohort, now, &profiler, 1.0);
        }
        assert_eq!(service.run_pending(now), 2);
        for cohort in 0..2 {
            let snap = CalibrationBackend::snapshot(&*service, cohort);
            assert_eq!(snap.seq, round);
            assert_eq!(snap.requested_at_s, now);
            assert!(snap.calibration.is_some());
        }
    }
}

#[test]
fn solves_warm_start_and_patch_a_same_lineage_profiler() {
    let service = stepped(1);
    let mut profiler = warm_profiler();
    service.submit_request(0, 1200.0, &profiler, 1.0);
    service.run_pending(1200.0);
    let first = CalibrationBackend::snapshot(&*service, 0);
    let first_cal = first.calibration.as_ref().expect("calibrated");
    assert!(first_cal.dirty_rows.is_none(), "first solve rebuilds cold");
    assert!(!first_cal.warm_started);

    // The device keeps learning on the same profiler lineage; the next
    // request ships a clone, which the cohort calibrator recognises and
    // patches its cached model forward from, warm from the first solve.
    let awake = DeviceState::awake();
    let asleep = DeviceState::asleep();
    profiler.observe(awake, Action::ScreenOff, asleep, 0.7, 0.2);
    profiler.observe(asleep, Action::ScreenOn, awake, 0.8, 2.0);
    service.submit_request(0, 2400.0, &profiler, 1.0);
    service.run_pending(2400.0);
    let snap = CalibrationBackend::snapshot(&*service, 0);
    let cal = snap.calibration.as_ref().expect("calibrated");
    assert_eq!(cal.dirty_rows, Some(2), "only the drifted rows are dirty");
    assert!(cal.incremental.is_some(), "the incremental solve path ran");
    assert!(
        cal.warm_started,
        "the second solve reuses the first's values"
    );
}

#[test]
fn shutdown_abandons_unstarted_requests_and_keeps_published_ones() {
    let mut service = CalibrationService::new(&specs(3), ServiceConfig::unmetered(0, 3));
    let profiler = warm_profiler();
    for cohort in 0..3 {
        service.submit_request(cohort, 1200.0, &profiler, 1.0);
    }
    assert!(service.step(1200.0), "one solve starts and publishes");
    let c = service.shutdown();
    assert_eq!((c.admitted, c.completed, c.abandoned), (3, 1, 2));
    for cohort in 0..3 {
        let snap = CalibrationBackend::snapshot(&service, cohort);
        assert_eq!(snap.calibration.is_some(), snap.seq > 0);
    }
    assert_eq!(CalibrationBackend::snapshot(&service, 0).seq, 1);
}

#[test]
fn counter_identities_hold_when_shutdown_races_four_submitters() {
    let mut service = CalibrationService::new(&specs(8), ServiceConfig::unmetered(2, 8));
    let profiler = warm_profiler();
    let service_ref = &service;
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let profiler = profiler.clone();
            scope.spawn(move || {
                for i in 0..64usize {
                    let cohort = (t * 64 + i) % 8;
                    service_ref.submit_request(cohort, 1200.0 + i as f64, &profiler, 1.0);
                }
            });
        }
    });
    let c = service.shutdown();
    assert_eq!(c.submitted, 256);
    assert_eq!(
        c.submitted,
        c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure
    );
    assert_eq!(c.admitted, c.completed + c.abandoned);
    assert_eq!((c.shed, c.backpressure), (0, 0), "unmetered never sheds");
}

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

/// A device scheduler on `service`, warmed past the request threshold.
fn warmed_device(service: &Arc<CalibrationService>) -> PooledCapmanPolicy {
    let backend: Arc<dyn CalibrationBackend> = Arc::clone(service) as _;
    let mut policy = PooledCapmanPolicy::with_backend(backend, 0, CalibratorSpec::paper(), 1.0);
    let awake = DeviceState::awake();
    let asleep = DeviceState::asleep();
    for i in 0..40 {
        for (prev, action, next, power) in [
            (asleep, Action::ScreenOn, awake, 1.0 + (i % 5) as f64 * 0.5),
            (awake, Action::ScreenOff, asleep, 0.2),
        ] {
            policy.observe(&Observation {
                time_s: i as f64,
                prev_state: prev,
                action,
                new_state: next,
                reward: 0.9,
                power_w: power,
            });
        }
    }
    policy
}

#[test]
fn a_device_decides_from_the_placeholder_then_adopts_on_its_next_tick() {
    let service = stepped(1);
    let mut policy = warmed_device(&service);
    // The due tick submits and decides from the seq-0 placeholder at
    // once; nothing has been solved yet.
    let _ = policy.decide(&ctx(1200.0));
    assert_eq!(policy.recalibrations(), 0, "not yet adopted");
    assert_eq!(service.counters().admitted, 1);
    assert_eq!(service.run_pending(1201.0), 1);
    // The next tick adopts the publication.
    let _ = policy.decide(&ctx(1203.0));
    assert_eq!(policy.recalibrations(), 1);
    assert_eq!(policy.seen_seq(), 1);
    let samples = policy.drain_calibrations();
    assert_eq!(samples.len(), 1);
    assert!(
        (samples[0].staleness_s - 3.0).abs() < 1e-9,
        "staleness runs from the device's request to its adoption"
    );
    assert_eq!(policy.overhead_us(), 0.0, "the tick pays no solve time");
}

#[test]
fn a_same_cohort_burst_collapses_to_one_solve() {
    let service = stepped(1);
    let mut a = warmed_device(&service);
    let mut b = warmed_device(&service);
    let _ = a.decide(&ctx(1200.0));
    let _ = b.decide(&ctx(1200.0));
    let c = service.counters();
    assert_eq!((c.submitted, c.admitted, c.replaced), (2, 1, 1));
    assert_eq!(service.run_pending(1200.0), 1);
    // Adopt inside the freshness window (every_s) so neither device
    // asks again.
    let _ = a.decide(&ctx(1200.5));
    let _ = b.decide(&ctx(1200.5));
    assert_eq!(service.counters().completed, 1);
    assert_eq!(service.counters().submitted, 2);
    assert_eq!((a.seen_seq(), b.seen_seq()), (1, 1), "one shared snapshot");
}

fn envelope_profiles() -> Vec<FleetProfile> {
    let mut capman = FleetProfile::capman("video", WorkloadKind::Video, 21);
    capman.config.max_horizon_s = 1500.0;
    capman.calibrator.every_s = 600.0;
    let mut pcmark = FleetProfile::capman("pcmark", WorkloadKind::Pcmark, 22);
    pcmark.config.max_horizon_s = 1500.0;
    pcmark.calibrator.every_s = 600.0;
    vec![capman, pcmark]
}

/// A threaded fleet run against the unmetered service ticks every
/// device exactly as long as the inline run, sheds nothing, and
/// accounts for every admitted request once the service shuts down.
/// Which devices adopt depends on when the solver threads publish, so
/// adoption is not asserted here (the stepped tests above pin it).
#[test]
fn an_arena_fleet_on_the_unmetered_service_keeps_the_envelope() {
    let plan = FleetPlan::new(envelope_profiles(), 3);
    let runner = ArenaRunner::new(ArenaConfig {
        shard_devices: 2,
        collect_summaries: true,
        ..ArenaConfig::default()
    });
    let inline = runner.run(&plan);
    let specs: Vec<_> = plan.profiles().iter().map(|p| p.calibrator).collect();
    let mut service = Arc::new(CalibrationService::new(
        &specs,
        ServiceConfig::unmetered(2, specs.len()),
    ));
    let backed = runner.run_with_backend(&plan, Arc::clone(&service) as _);
    let c = Arc::get_mut(&mut service)
        .expect("the run released the backend")
        .shutdown();

    let ticks = |r: &FleetResult| r.summaries.iter().map(|s| s.ticks).collect::<Vec<_>>();
    assert_eq!(backed.summaries.len(), plan.len());
    assert_eq!(ticks(&inline), ticks(&backed));
    assert_eq!((c.shed, c.backpressure), (0, 0));
    assert_eq!(c.completed + c.abandoned, c.admitted);
    assert!(c.submitted > 0, "CAPMAN devices asked for calibrations");
}
