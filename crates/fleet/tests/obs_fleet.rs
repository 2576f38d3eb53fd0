//! Acceptance test for the fleet's observability hooks: an inline arena
//! run's registry deltas must equal the `ShardThroughput` ground truth
//! *exactly*, and the drained trace must validate and export cleanly.
//!
//! Lives in its own integration-test binary (one process, one `#[test]`)
//! because it measures before/after deltas of the **global** registry
//! and tracer — any concurrent test instrumenting the globals would
//! perturb the counts. Compiled only with `--features obs`; without the
//! feature the global hooks are constant no-ops and there is nothing to
//! measure.
#![cfg(feature = "obs")]

use capman_fleet::{ArenaConfig, ArenaRunner, FleetPlan, FleetProfile};
use capman_obs::export::{chrome_trace, metrics_json, prometheus_text};
use capman_obs::trace::validate;
use capman_obs::MetricsSnapshot;
use capman_workload::WorkloadKind;

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, _, v)| *v)
        .unwrap_or(0)
}

#[test]
fn registry_and_trace_match_fleet_ground_truth() {
    assert!(capman_obs::compiled(), "test requires --features obs");
    capman_obs::set_enabled(true);
    capman_obs::set_span_sampling(1);
    let _ = capman_obs::drain();

    // Small CAPMAN fleet that crosses the calibration interval.
    let mut profile = FleetProfile::capman("video", WorkloadKind::Video, 7);
    profile.config.max_horizon_s = 1500.0;
    profile.calibrator.every_s = 600.0;
    let plan = FleetPlan::new(vec![profile], 6);

    let before = capman_obs::snapshot();
    let result = ArenaRunner::new(ArenaConfig {
        shard_devices: 2,
        ..ArenaConfig::default()
    })
    .run(&plan);
    let after = capman_obs::snapshot();
    let delta = |name: &str| counter(&after, name) - counter(&before, name);

    // --- Registry totals vs ShardThroughput ground truth, exactly. ---
    let agg = &result.aggregate;
    let shard_devices: u64 = agg.shards.iter().map(|s| s.devices).sum();
    let shard_ticks: u64 = agg.shards.iter().map(|s| s.ticks).sum();
    assert_eq!(delta("fleet_devices_total"), shard_devices);
    assert_eq!(delta("fleet_ticks_total"), shard_ticks);
    assert_eq!(delta("fleet_shards_total"), agg.shards.len() as u64);
    assert!(agg.recalibrations > 0, "run must calibrate at least once");

    // --- The trace validates and its span counts match the shards. ---
    let drain = capman_obs::drain();
    assert_eq!(drain.dropped, 0, "rings must hold a small fleet's spans");
    validate(&drain.records).expect("spans well-nested per thread");
    let count = |label: &str| drain.records.iter().filter(|r| r.label == label).count() as u64;
    assert_eq!(count("fleet_run"), 1);
    assert_eq!(count("fleet_shard"), agg.shards.len() as u64);

    // --- Exporters stay structurally valid on real data. ---
    let trace_json = chrome_trace(&drain);
    assert_eq!(
        trace_json.matches('{').count(),
        trace_json.matches('}').count()
    );
    assert!(trace_json.contains("\"traceEvents\""));
    assert!(trace_json.contains("\"name\": \"fleet_shard\""));
    let prom = prometheus_text(&after);
    assert!(prom.contains("# TYPE fleet_devices_total counter"));
    let json = metrics_json(&after);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"metrics\": ["));
    assert!(json.contains(&format!("\"fleet_devices_total\": {}", shard_devices)));
}
