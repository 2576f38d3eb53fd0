//! Executable reference for the resident calibration service: ramp an
//! arena fleet from balanced load to 4x overload against per-cohort
//! admission quotas, and print each rung's shedding/starvation verdict
//! plus the final SLO evaluation.
//!
//! ```text
//! cargo run --release --example serve_soak
//! cargo run --release --example serve_soak -- /tmp/serve-artifacts
//! ```
//!
//! What to expect: at 1x every submission is admitted and nothing is
//! shed; at 2x and 4x the drop-oldest admission path sheds exactly
//! `(x-1)/x` of submissions — but *only* from the surplus, so every
//! cohort still adopts a fresh calibration once per cadence window
//! (`starvation_free=true` on every rung) and the p99 wait of served
//! requests stays inside the 300 s SLO objective. The service's own
//! registry and tracer are always on; the example ends with the
//! Prometheus scrape of the hottest rung so the metric families are
//! visible without any feature flag.
//!
//! The optional argument is an output directory. With it, the example
//! writes the 4x rung's Prometheus scrape (`serve.prom`), Chrome trace
//! with flow-linked causal traces (`serve_trace.json`) and flat metrics
//! JSON (`serve_metrics.json`) there, and points each rung's flight
//! recorder at `<dir>/flight/<x>x`: a panic or an SLO flip into
//! Degraded/Shedding leaves a postmortem bundle there.

use std::path::PathBuf;

use capman::serve::{run_soak, SoakConfig};

fn main() {
    let out_dir = std::env::args().nth(1).map(PathBuf::from);
    println!("serve_soak: overload ramp against a quota of 1 admission per cohort per window\n");
    let mut hottest = None;
    for overload_x in [1usize, 2, 4] {
        let config = SoakConfig {
            cohorts: 3,
            devices_per_cohort: overload_x,
            windows: 3,
            flight_dir: out_dir
                .as_ref()
                .map(|dir| dir.join("flight").join(format!("{overload_x}x"))),
            ..SoakConfig::default()
        };
        let report = run_soak(&config);
        println!("{overload_x}x overload: {}", report.verdict_line());
        for (i, w) in report.windows.iter().enumerate() {
            println!(
                "    window {i}: published {} (min cohort {}), mode={}, breached={}",
                w.published,
                w.min_cohort_published,
                w.mode.label(),
                w.breached
            );
        }
        for bundle in &report.flight_bundles {
            println!("    flight bundle: {}", bundle.display());
        }
        assert!(
            report.starvation_free,
            "the no-starvation contract must hold at {overload_x}x"
        );
        hottest = Some(report);
    }
    let report = hottest.expect("the ramp ran");
    println!("\nfinal SLO mode at 4x: {}", report.final_mode.label());

    // Causal tracing (DESIGN.md §16): every served calibration closed
    // one connected trace whose phases decompose its staleness.
    println!(
        "\nserved traces at 4x: {} closed, phase p99s: queue {:.1} s, lane {:.1} s, \
         solve {:.1} s, publish→adopt {:.1} s",
        report.completed_traces.len(),
        report.phase_p99_s[0],
        report.phase_p99_s[1],
        report.phase_p99_s[2],
        report.phase_p99_s[3],
    );
    if let Some(worst) = report
        .completed_traces
        .iter()
        .max_by(|a, b| a.staleness_s().total_cmp(&b.staleness_s()))
    {
        println!("slowest served request: {}", worst.line());
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        for (name, body) in [
            ("serve.prom", &report.prometheus),
            ("serve_trace.json", &report.trace_json),
            ("serve_metrics.json", &report.metrics_json),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }
    println!("\nPrometheus scrape of the 4x rung:\n");
    // Trim the histogram bodies for the terminal: print families and
    // counters, elide per-bucket lines past the first two.
    let mut bucket_run = 0;
    for line in report.prometheus.lines() {
        if line.contains("_bucket") {
            bucket_run += 1;
            if bucket_run > 2 {
                continue;
            }
        } else {
            if bucket_run > 2 {
                println!("  ... ({} more buckets elided)", bucket_run - 2);
            }
            bucket_run = 0;
        }
        println!("{line}");
    }
}
