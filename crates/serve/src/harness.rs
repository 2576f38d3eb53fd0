//! The soak harness: the arena fleet as the service's load generator.
//!
//! [`run_soak`] builds a multi-cohort [`FleetPlan`], hands the
//! [`CalibrationService`] to a [`DeviceArena`] as its calibration
//! backend (the seam every background-calibrated fleet uses), and
//! pumps simulated time in sub-window slices: devices tick and submit, then
//! the manually-stepped service solves what admission let through, and
//! at every window boundary the SLO monitor judges the registry and
//! per-cohort publication progress is recorded.
//!
//! **Overload is a plan property**: every device of a cohort asks for a
//! calibration once per cadence window, the cohort's quota admits one,
//! so `devices_per_cohort` *is* the overload factor and drop-oldest
//! absorbs the rest — the expected shed fraction at overload `x` is
//! `(x-1)/x` while every cohort still publishes every window. That
//! last clause is the no-starvation contract; the report computes the
//! worst publication gap per cohort and [`SoakReport::starvation_free`]
//! asserts it never exceeded one window.

use std::path::PathBuf;
use std::sync::Arc;

use capman_fleet::{CalibrationBackend, DeviceArena, FleetPlan, FleetProfile};
use capman_obs::export::{chrome_trace, metrics_json, prometheus_text};
use capman_obs::{CompletedTrace, FlightConfig, FlightRecorder, TraceDrain};
use capman_workload::WorkloadKind;

use crate::service::{CalibrationService, ServiceConfig, ServiceCounters, PHASE_NAMES};
use crate::slo::ServiceMode;

/// Soak-run shape: the traffic plan and the service under test.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Tenant cohorts.
    pub cohorts: usize,
    /// Devices per cohort — the overload factor against a quota of 1.
    pub devices_per_cohort: usize,
    /// Cadence windows to run (horizon = `windows × window_s`).
    pub windows: u32,
    /// Window length, simulated seconds. Align with the cohorts'
    /// calibration cadence (`CalibratorSpec::paper().every_s`).
    pub window_s: f64,
    /// Service pumps per window: devices advance `window_s / pumps`
    /// simulated seconds between solve opportunities.
    pub pumps_per_window: u32,
    /// Base seed; cohort `c` derives its profile seed from it.
    pub seed: u64,
    /// Service configuration. `workers` is forced to 0 — the soak is
    /// deterministic by construction.
    pub service: ServiceConfig,
    /// Where the flight recorder dumps postmortem bundles. `None`
    /// keeps the recorder in-memory only (no bundles on disk).
    pub flight_dir: Option<PathBuf>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        let mut service = ServiceConfig::default();
        service.admission.quota_per_window = 1;
        service.admission.window_s = 1200.0;
        SoakConfig {
            cohorts: 4,
            devices_per_cohort: 4,
            windows: 3,
            window_s: 1200.0,
            pumps_per_window: 8,
            seed: 0xCA11,
            service,
            flight_dir: None,
        }
    }
}

/// One cadence window's outcome.
#[derive(Debug, Clone, Copy)]
pub struct SoakWindow {
    /// Simulated end of the window.
    pub t_end_s: f64,
    /// Calibrations published during the window, all cohorts.
    pub published: u64,
    /// The least-served cohort's publications this window.
    pub min_cohort_published: u64,
    /// Mode after the window's SLO evaluation.
    pub mode: ServiceMode,
    /// Whether any SLO metric breached this window.
    pub breached: bool,
    /// Devices still alive at the end of the window.
    pub active_devices: usize,
}

/// Everything a soak run produced.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Per-window outcomes, in order.
    pub windows: Vec<SoakWindow>,
    /// Settled service counters.
    pub counters: ServiceCounters,
    /// Fraction of submissions whose payload never reached a solve.
    pub shed_fraction: f64,
    /// Worst gap, in windows, between consecutive publications of any
    /// cohort (measured from each cohort's first publication, over
    /// windows where the fleet was still alive).
    pub max_gap_windows: u32,
    /// Did every cohort publish at least once per window from its
    /// first publication to the end of the run (worst gap ≤ 1)?
    pub starvation_free: bool,
    /// p99 of first-submission-to-solve wait, simulated seconds.
    pub staleness_p99_s: f64,
    /// Mode at the end of the run.
    pub final_mode: ServiceMode,
    /// Whether any window breached.
    pub any_breach: bool,
    /// p99 of each critical-path phase, ordered like
    /// [`PHASE_NAMES`] (queue, lane, solve, publish→adopt).
    pub phase_p99_s: [f64; 4],
    /// Prometheus text scrape of the service registry.
    pub prometheus: String,
    /// JSON object of the service registry (flat key→value).
    pub metrics_json: String,
    /// Chrome-trace JSON of everything the flight recorder retained.
    pub trace_json: String,
    /// The flight recorder's retained span records — resolve exemplar
    /// trace ids against these.
    pub trace: TraceDrain,
    /// Completed causal traces, oldest first (bounded by the flight
    /// recorder's retention).
    pub completed_traces: Vec<CompletedTrace>,
    /// Postmortem bundles the flight recorder dumped (SLO flips).
    pub flight_bundles: Vec<PathBuf>,
}

impl SoakReport {
    /// One line for logs: the load-shedding and starvation verdict.
    pub fn verdict_line(&self) -> String {
        format!(
            "shed {:.1}% of {} submissions, worst cohort gap {} window(s), starvation_free={}, p99 wait {:.1} s, mode={}",
            self.shed_fraction * 100.0,
            self.counters.submitted,
            self.max_gap_windows,
            self.starvation_free,
            self.staleness_p99_s,
            self.final_mode.label()
        )
    }
}

const SOAK_WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Pcmark,
    WorkloadKind::Video,
    WorkloadKind::EtaStatic { eta: 50 },
];

/// Build the soak's traffic plan: `cohorts` CAPMAN cohorts over mixed
/// workloads, horizons stretched to cover the soak.
fn soak_plan(config: &SoakConfig) -> FleetPlan {
    let horizon_s = config.window_s * f64::from(config.windows);
    let profiles = (0..config.cohorts)
        .map(|cohort| {
            let workload = SOAK_WORKLOADS[cohort % SOAK_WORKLOADS.len()];
            let mut profile = FleetProfile::capman(
                format!("soak-{cohort}"),
                workload,
                config.seed.wrapping_add(2 * cohort as u64),
            );
            profile.config.max_horizon_s = horizon_s;
            profile
        })
        .collect();
    FleetPlan::new(profiles, config.devices_per_cohort)
}

/// Run the soak: arena traffic against a manually-stepped service.
///
/// # Panics
///
/// Panics on a degenerate config (no cohorts, no devices, no windows).
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    assert!(config.cohorts > 0, "soak needs cohorts");
    assert!(config.devices_per_cohort > 0, "soak needs devices");
    assert!(
        config.windows > 0 && config.pumps_per_window > 0,
        "soak needs windows"
    );
    let plan = soak_plan(config);
    let mut service_config = config.service;
    service_config.workers = 0;
    let specs: Vec<_> = plan.profiles().iter().map(|p| p.calibrator).collect();
    let service = Arc::new(CalibrationService::new(&specs, service_config));
    // Always-on flight recorder: completed traces, rolling metric
    // snapshots and SLO verdicts ride in bounded memory; an SLO flip
    // into Degraded/Shedding (or a panic anywhere in the soak) dumps a
    // postmortem bundle into `flight_dir`.
    let flight = FlightRecorder::new(FlightConfig {
        dir: config.flight_dir.clone(),
        ..FlightConfig::default()
    });
    flight.arm_panic_hook();
    service.attach_flight(Arc::clone(&flight));
    let backend: Arc<dyn CalibrationBackend> = Arc::clone(&service) as _;
    let mut arena = DeviceArena::build(&plan, 0, plan.len(), Some(&backend));

    let mut last_seq = vec![0u64; config.cohorts];
    // Per-cohort gap bookkeeping: window index of the last publication,
    // u32::MAX while a cohort has not published yet.
    let mut last_pub_window = vec![u32::MAX; config.cohorts];
    let mut max_gap_windows = 0u32;
    let mut published_ever = vec![false; config.cohorts];
    let mut windows = Vec::with_capacity(config.windows as usize);

    'soak: for window in 0..config.windows {
        let window_start = config.window_s * f64::from(window);
        // Exemplars are per-window: each window's scrape carries the
        // slowest trace ids of *that* window, not of the whole run.
        service.registry().reset_exemplars();
        let mut active = arena.active();
        for pump in 1..=config.pumps_per_window {
            let t = window_start
                + config.window_s * f64::from(pump) / f64::from(config.pumps_per_window);
            // Devices tick (and submit) up to t, then the service
            // spends its solve budget at t.
            active = arena.run_window(t);
            service.run_pending(t);
        }
        let t_end = window_start + config.window_s;
        let mut published = 0u64;
        let mut min_cohort_published = u64::MAX;
        for cohort in 0..config.cohorts {
            let seq = backend.snapshot(cohort).seq;
            let delta = seq - last_seq[cohort];
            last_seq[cohort] = seq;
            published += delta;
            min_cohort_published = min_cohort_published.min(delta);
            if delta > 0 {
                // Gap between consecutive publication windows: 1 means
                // "published every window".
                if last_pub_window[cohort] != u32::MAX {
                    max_gap_windows = max_gap_windows.max(window - last_pub_window[cohort]);
                }
                last_pub_window[cohort] = window;
                published_ever[cohort] = true;
            }
        }
        let verdict = service.evaluate_slo();
        // Move the window's span records out of the tracer rings into
        // the flight recorder's bounded buffer before the rings wrap.
        flight.absorb(service.tracer().drain());
        windows.push(SoakWindow {
            t_end_s: t_end,
            published,
            min_cohort_published,
            mode: verdict.mode,
            breached: verdict.breached,
            active_devices: active,
        });
        if active == 0 {
            // Fleet exhausted (battery death): later windows carry no
            // traffic, so stop instead of reporting phantom starvation.
            break 'soak;
        }
    }
    // Cohorts that published and then went silent to the end of the run
    // extend their gap to the final window.
    let last_window = windows.len().saturating_sub(1) as u32;
    for cohort in 0..config.cohorts {
        if published_ever[cohort] && last_pub_window[cohort] < last_window {
            max_gap_windows = max_gap_windows.max(last_window - last_pub_window[cohort]);
        }
    }
    let starvation_free =
        published_ever.iter().all(|&p| p) && max_gap_windows <= 1 && !windows.is_empty();

    flight.absorb(service.tracer().drain());

    let snap = service.registry().snapshot();
    let quantile = |name: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0.0, |h| h.quantile(0.99))
    };
    let phase_p99_s = PHASE_NAMES.map(quantile);
    let counters = service.counters();
    let trace = flight.trace_view();
    SoakReport {
        any_breach: windows.iter().any(|w| w.breached),
        final_mode: service.mode(),
        staleness_p99_s: quantile("serve_staleness_s"),
        phase_p99_s,
        shed_fraction: counters.shed_fraction(),
        max_gap_windows,
        starvation_free,
        prometheus: prometheus_text(&snap),
        metrics_json: metrics_json(&snap),
        trace_json: chrome_trace(&trace),
        trace,
        completed_traces: flight.completed(),
        flight_bundles: flight.bundles(),
        windows,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_balanced_soak_is_starvation_free_and_accounted() {
        let config = SoakConfig {
            cohorts: 2,
            devices_per_cohort: 2,
            windows: 2,
            ..SoakConfig::default()
        };
        let report = run_soak(&config);
        assert!(!report.windows.is_empty());
        assert!(report.starvation_free, "{}", report.verdict_line());
        let c = report.counters;
        assert_eq!(
            c.submitted,
            c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure,
            "admission identity"
        );
        assert!(c.completed > 0, "solves ran");
        assert!(report.prometheus.contains("serve_completed_total"));
    }
}
