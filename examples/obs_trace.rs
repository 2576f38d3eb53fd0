//! Executable reference for the observability trace format: run one
//! calibration period (cold) plus one recalibration (warm-started) with
//! instrumentation enabled, then export every format the `obs` crate
//! produces.
//!
//! ```text
//! cargo run --release --example obs_trace --features obs
//! ```
//!
//! Writes three files to the working directory:
//!
//! * `obs_trace.json` — Chrome `trace_event` spans; open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>. Expect a
//!   `calibrate` span per period with `bellman_level` children (one per
//!   quotient-ladder level) and a final `bellman_final` child.
//! * `obs_metrics.prom` — Prometheus text exposition of the registry.
//! * `obs_metrics.json` — flat JSON snapshot: one `"metrics"` row in
//!   the `BENCH_*.json` shape, readable by `perf_gate`.

use capman::battery::chemistry::Class;
use capman::core::online::Calibrator;
use capman::core::profiler::Profiler;
use capman::device::fsm::Action;
use capman::device::states::DeviceState;

/// A profiler with enough observed transitions to pass the calibration
/// warm-up gate (mirrors the fixture the online-scheduler tests use).
fn seeded_profiler() -> Profiler {
    let mut p = Profiler::new();
    let asleep = DeviceState::asleep();
    let awake = DeviceState::awake();
    let awake_little = awake.with_battery(Class::Little);
    for _ in 0..40 {
        p.observe(awake, Action::SwitchToLittle, awake_little, 0.95, 2.5);
        p.observe(awake_little, Action::SwitchToBig, awake, 0.4, 2.5);
        p.observe(awake, Action::ScreenOff, asleep, 0.9, 0.3);
        p.observe(asleep, Action::ScreenOn, awake, 0.8, 2.0);
    }
    p
}

fn main() {
    // `required-features = ["obs"]` guarantees this, but make the
    // contract visible to readers of the example.
    assert!(
        capman::obs::compiled(),
        "build with --features obs to compile the instrumentation in"
    );
    capman::obs::set_enabled(true);

    let profiler = seeded_profiler();
    let mut calibrator = Calibrator::paper();
    // Period 1: cold calibration. Period 2: past the calibration
    // interval, warm-started from period 1's value vector.
    calibrator.recalibrate(0.0, &profiler, 1.0);
    calibrator.recalibrate(1300.0, &profiler, 1.0);

    let drain = capman::obs::drain();
    capman::obs::trace::validate(&drain.records).expect("spans are well-nested");
    let calibrations = drain
        .records
        .iter()
        .filter(|r| r.label == "calibrate")
        .count();
    assert_eq!(calibrations, 2, "one calibrate span per period");

    let trace = capman::obs::export::chrome_trace(&drain);
    std::fs::write("obs_trace.json", &trace).expect("write obs_trace.json");

    let snap = capman::obs::snapshot();
    std::fs::write(
        "obs_metrics.prom",
        capman::obs::export::prometheus_text(&snap),
    )
    .expect("write obs_metrics.prom");
    std::fs::write("obs_metrics.json", capman::obs::export::metrics_json(&snap))
        .expect("write obs_metrics.json");

    println!(
        "traced {} spans/events across {} calibration periods (0 dropped: {})",
        drain.records.len(),
        calibrations,
        drain.dropped == 0
    );
    let mut labels: Vec<&str> = drain.records.iter().map(|r| r.label).collect();
    labels.sort_unstable();
    labels.dedup();
    println!("span labels: {}", labels.join(", "));
    for (name, _, value) in &snap.counters {
        println!("  {name} = {value}");
    }
    println!("wrote obs_trace.json, obs_metrics.prom, obs_metrics.json");
}
