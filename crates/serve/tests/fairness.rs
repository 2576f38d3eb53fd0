//! Multi-tenant fairness and overload behaviour, end to end.
//!
//! The contract under test: load shedding concentrates on the tenant
//! causing the load, never on the quiet ones — a hot cohort hammering
//! the service costs *itself* freshness, while every cold cohort keeps
//! its one adoption per cadence window. The proptest drives random
//! traffic mixes through the admission layer directly; the soak tests
//! drive the full arena fleet against the service and check the
//! report's starvation/SLO verdicts; the golden test pins that the
//! registry scrape of a fleet-driven run is well-formed Prometheus
//! text.

use std::sync::Arc;

use capman_core::online::CalibratorSpec;
use capman_core::profiler::Profiler;
use capman_device::fsm::Action;
use capman_device::states::DeviceState;
use capman_fleet::CalibrationBackend;
use capman_obs::export::validate_prometheus;
use capman_serve::{
    run_soak, AdmissionConfig, AdmissionOutcome, CalibrationService, ServiceConfig, SloConfig,
    SoakConfig,
};
use proptest::prelude::*;

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

fn service(cohorts: usize, admission: AdmissionConfig) -> CalibrationService {
    let specs: Vec<CalibratorSpec> = (0..cohorts).map(|_| CalibratorSpec::paper()).collect();
    CalibrationService::new(
        &specs,
        ServiceConfig {
            admission,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One cohort submits `hot_factor`× more than everyone else, over
    /// random mixes of cohort count / hot index / traffic factor. The
    /// shed must land entirely on the hot cohort, and every cold
    /// cohort's adoption rate — one publication per window — must be
    /// exactly what it would be with no hot tenant at all.
    #[test]
    fn shedding_concentrates_on_the_hot_cohort(
        cohorts in 2usize..6,
        hot in 0usize..6,
        hot_factor in 5u32..15,
        windows in 2u32..4,
    ) {
        let hot = hot % cohorts;
        let window_s = 600.0;
        let svc = service(cohorts, AdmissionConfig {
            queue_bound: 64,
            quota_per_window: 1,
            window_s,
        });
        let profiler = warm_profiler();
        let mut shed_by_cohort = vec![0u64; cohorts];
        let mut pubs_before = vec![0u64; cohorts];
        for window in 0..windows {
            let t0 = window_s * f64::from(window);
            // Cold cohorts ask once per window; the hot one hammers.
            for (cohort, shed_slot) in shed_by_cohort.iter_mut().enumerate() {
                let rounds = if cohort == hot { hot_factor } else { 1 };
                for r in 0..rounds {
                    let t = t0 + f64::from(r) * window_s / f64::from(2 * hot_factor);
                    let outcome = svc.submit_request(cohort, t, &profiler, 1.0);
                    if outcome.is_shed() {
                        *shed_slot += 1;
                    }
                }
            }
            svc.run_pending(t0 + window_s * 0.9);
            for (cohort, prev_seq) in pubs_before.iter_mut().enumerate() {
                let seq = CalibrationBackend::snapshot(&svc, cohort).seq;
                let delta = seq - *prev_seq;
                *prev_seq = seq;
                prop_assert_eq!(
                    delta, 1,
                    "cohort {} must adopt exactly once in window {} (hot={}, factor={})",
                    cohort, window, hot, hot_factor
                );
            }
        }
        for (cohort, &shed) in shed_by_cohort.iter().enumerate() {
            if cohort == hot {
                prop_assert_eq!(
                    shed, u64::from(hot_factor - 1) * u64::from(windows),
                    "overload cost lands on the hot cohort alone"
                );
            } else {
                prop_assert_eq!(shed, 0, "cold cohort {} must shed nothing", cohort);
            }
        }
        let c = svc.counters();
        prop_assert_eq!(
            c.submitted,
            c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure
        );
        prop_assert_eq!(c.admitted, c.completed, "everything admitted was solved");
    }
}

/// The acceptance soak: 4× overload (4 devices per cohort against a
/// quota of 1) must shed roughly (x-1)/x of submissions while every
/// cohort keeps publishing every window, with the wait p99 inside the
/// SLO objective.
#[test]
fn four_x_overload_sheds_without_starvation() {
    let config = SoakConfig {
        cohorts: 3,
        devices_per_cohort: 4,
        windows: 3,
        ..SoakConfig::default()
    };
    let report = run_soak(&config);
    assert!(
        report.starvation_free,
        "no cohort may starve under overload: {}",
        report.verdict_line()
    );
    assert!(
        report.shed_fraction > 0.3,
        "4x overload must shed a substantial fraction, got {}",
        report.verdict_line()
    );
    let c = report.counters;
    assert_eq!(
        c.submitted,
        c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure,
        "admission identity"
    );
    assert_eq!(c.admitted, c.completed + c.abandoned, "solve identity");
    // Staleness of served (non-shed) work stays within the SLO
    // objective — overload costs the hot traffic freshness, not the
    // served requests latency.
    let objective = config.service.slo.spec.staleness_p99_s.objective;
    assert!(
        report.staleness_p99_s <= objective,
        "p99 wait {} s must hold the {} s objective",
        report.staleness_p99_s,
        objective
    );
    assert!(
        !report.any_breach,
        "the service absorbs 4x overload without tripping the SLO"
    );
}

/// Overload shedding must not be starvation even when the SLO monitor
/// is provoked into shedding mode: quotas collapse to 1 per window,
/// which is exactly the floor the no-starvation contract defends.
#[test]
fn shedding_mode_still_serves_every_cohort() {
    let mut service_config = ServiceConfig {
        slo: SloConfig {
            escalate_after: 1,
            ..SloConfig::default()
        },
        ..ServiceConfig::default()
    };
    // Any observed wait breaches instantly (the queue-depth gauge is
    // drained by the pump loop before each evaluation, but the wait
    // histogram remembers): the monitor is pinned in the worst mode
    // from the first window on.
    service_config.slo.spec.staleness_p99_s.objective = 0.001;
    service_config.slo.spec.staleness_p99_s.floor = 0.0;
    service_config.admission.quota_per_window = 4;
    service_config.admission.window_s = 1200.0;
    let config = SoakConfig {
        cohorts: 3,
        devices_per_cohort: 2,
        windows: 3,
        service: service_config,
        ..SoakConfig::default()
    };
    let report = run_soak(&config);
    assert!(report.any_breach, "the rigged SLO must trip");
    assert!(
        report.starvation_free,
        "shedding mode keeps the 1-per-window floor: {}",
        report.verdict_line()
    );
}

/// Golden scrape: the registry of a fleet-driven service exports
/// Prometheus text that passes the strict validator and carries the
/// whole metric family the dashboards expect.
#[test]
fn fleet_run_registry_scrape_is_valid_prometheus() {
    let report = run_soak(&SoakConfig {
        cohorts: 2,
        devices_per_cohort: 3,
        windows: 2,
        ..SoakConfig::default()
    });
    validate_prometheus(&report.prometheus)
        .unwrap_or_else(|e| panic!("scrape must validate: {e}\n{}", report.prometheus));
    for metric in [
        "serve_admitted_total",
        "serve_replaced_total",
        "serve_shed_total",
        "serve_backpressure_total",
        "serve_completed_total",
        "serve_queue_depth",
        "serve_mode",
        "serve_staleness_s_bucket",
        "serve_staleness_hot_s_bucket",
        "serve_solve_us_sum",
    ] {
        assert!(
            report.prometheus.contains(metric),
            "scrape must carry {metric}"
        );
    }
    // The Chrome trace came out of the same run and is non-trivial.
    assert!(report.trace_json.contains("serve_solve"));
}

/// The backend seam end to end: a reader of the service's backend
/// surface sees the snapshot the service published for its cohort.
#[test]
fn service_backend_snapshot_round_trip() {
    let svc = Arc::new(service(2, AdmissionConfig::default()));
    let profiler = warm_profiler();
    assert_eq!(
        svc.submit_request(1, 1200.0, &profiler, 1.0),
        AdmissionOutcome::Admitted
    );
    assert_eq!(svc.run_pending(1200.0), 1);
    let backend: Arc<dyn CalibrationBackend> = Arc::clone(&svc) as _;
    let snap = backend.snapshot(1);
    assert_eq!(snap.seq, 1);
    assert!(snap.calibration.is_some());
    assert_eq!(backend.snapshot(0).seq, 0, "cohort isolation");
    assert_eq!(backend.cohorts(), 2);
}
