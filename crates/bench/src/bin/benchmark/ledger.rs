//! The per-layer rows every traced run reports, in one shape for all
//! workloads.

use capman_obs::Tracer;
use capman_serve::ServiceCounters;

use crate::probe::{CalibStats, Clock, Layer, TickLedger};
use crate::replay::{PhysicsRows, StageRows};
use crate::stats::median;
use crate::{latency_rows, Opts, Report};

/// How far the traced `tick.step_ns` may sit from the untraced host
/// time per step.
const STEP_TOLERANCE: f64 = 0.15;

/// Tick rows: whole timed steps, per-layer timed calls, replayed
/// physics, and the simulator's self time that reconciles them. Steps
/// are timed in batches, layer calls one by one; a single call's clock
/// fence also stops it overlapping its neighbours, so the layer rows
/// lean high and the self time absorbs that.
///
/// `untraced_step_ns` is the untraced host time per step where the
/// workload has one (`fleet-steady`). Smoke runs are too short to judge
/// timings, so they skip the reconciliation checks.
pub fn tick_rows(
    report: &mut Report,
    opts: &Opts,
    ledger: &TickLedger,
    physics: &PhysicsRows,
    untraced_step_ns: Option<&[f64]>,
) {
    let step = ledger.whole_ns / ledger.whole.max(1) as f64;
    report.row("tick.step_ns", step, "ns", ledger.whole as usize);
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        let i = layer as usize;
        let v = ledger.layer_ns[i] / ledger.layer[i].max(1) as f64;
        attributed += v;
        report.row(
            &format!("{}_ns", layer.label()),
            v,
            "ns",
            ledger.layer[i] as usize,
        );
    }
    for (name, v) in [
        ("device.power_ns", physics.power_ns),
        ("battery.pack_ns", physics.pack_ns),
        ("thermal.network_ns", physics.thermal_ns),
    ] {
        attributed += v;
        report.row(name, v, "ns", physics.steps);
    }
    let sim_self = step - attributed;
    report.row("core.sim_self_ns", sim_self, "ns", ledger.whole as usize);
    report.row(
        "device.replay_agrees",
        f64::from(u8::from(physics.agrees)),
        "bool",
        physics.steps,
    );
    report.check(
        ledger.whole > 0 && ledger.layer.iter().all(|&n| n > 0),
        || {
            format!(
                "untimed tick rows: {} whole, {:?} per layer",
                ledger.whole, ledger.layer
            )
        },
    );
    let untraced = untraced_step_ns.map(|v| {
        let ns = median(v);
        report.row("tick.e2e_step_ns", ns, "ns", v.len());
        ns
    });
    if !opts.smoke {
        check_reconciliation(report, step, sim_self, untraced);
    }
}

/// The layer rows must fit inside the step they split (a negative self
/// time means they overshoot it), and the traced step must lie within
/// [`STEP_TOLERANCE`] of the untraced cost per step, where there is one.
pub fn check_reconciliation(
    report: &mut Report,
    step_ns: f64,
    sim_self_ns: f64,
    untraced_step_ns: Option<f64>,
) {
    report.check(sim_self_ns >= 0.0, || {
        format!(
            "tick rows sum to {:.1} ns, more than the {step_ns:.1} ns step",
            step_ns - sim_self_ns
        )
    });
    if let Some(untraced) = untraced_step_ns {
        report.check(
            (step_ns - untraced).abs() <= STEP_TOLERANCE * untraced,
            || {
                format!(
                    "traced step {step_ns:.1} ns is more than {:.0}% from the untraced {untraced:.1} ns",
                    STEP_TOLERANCE * 100.0
                )
            },
        );
    }
}

/// Calibration rows: in-situ host times and counts, and the replica's
/// stage split (marked stale when the replica disagreed).
pub fn calib_rows(report: &mut Report, stats: &CalibStats, stages: &StageRows) {
    let n = stats.insitu_us.len();
    let per = |count: u64| count as f64 / n.max(1) as f64;
    latency_rows(report, "core.calibrate_us", "us", &stats.insitu_us);
    report.row("core.calibrations", n as f64, "count", n);
    report.row(
        "core.calibrate_incremental_frac",
        per(stats.incremental),
        "ratio",
        n,
    );
    report.row(
        "core.calibrate_fallback_frac",
        per(stats.fallback),
        "ratio",
        n,
    );
    report.row(
        "mdp.similarity_sweeps",
        per(stats.similarity_sweeps),
        "count",
        n,
    );
    report.row("mdp.emd_solves", per(stats.emd_solves), "count", n);
    let looked_up = stats.cache_hits + stats.emd_solves;
    report.row(
        "mdp.emd_memo_hit_rate",
        stats.cache_hits as f64 / looked_up.max(1) as f64,
        "ratio",
        n,
    );
    report.row("mdp.bellman_sweeps", per(stats.bellman_sweeps), "count", n);

    let m = stages.calibrations;
    let first_stage = report.rows.len();
    report.row("core.profiler_model_us", stages.profiler_model_us, "us", m);
    report.row("mdp.graph_filter_us", stages.graph_filter_us, "us", m);
    report.row("mdp.similarity_us", stages.similarity_us, "us", m);
    report.row("mdp.abstraction_us", stages.abstraction_us, "us", m);
    report.row("mdp.bellman_us", stages.bellman_us, "us", m);
    report.row(
        "calib.unattributed_us",
        stages.insitu_us - stages.stage_sum_us(),
        "us",
        m,
    );
    if !stages.agrees {
        for row in &mut report.rows[first_stage..] {
            row.stale = true;
        }
    }
    report.row(
        "calib.replica_agrees",
        f64::from(u8::from(stages.agrees)),
        "bool",
        m,
    );
    report.check(n > 0 && m > 0, || "no calibration was measured".to_string());
}

/// What the service did during a traced run, when there is a service.
pub struct ServiceView<'a> {
    pub counters: ServiceCounters,
    pub queue_depth_max: usize,
    pub adopted_frac: f64,
    pub staleness_s: &'a [f64],
}

/// Admission counts and exact simulated staleness (all 0 without a
/// service).
pub fn service_rows(report: &mut Report, view: Option<ServiceView<'_>>) {
    let c = view.as_ref().map(|v| v.counters).unwrap_or_default();
    for (name, v) in [
        ("serve.admitted", c.admitted),
        ("serve.replaced", c.replaced),
        ("serve.shed", c.shed),
        ("serve.backpressure", c.backpressure),
        ("serve.coalesced", c.coalesced),
        ("serve.completed", c.completed),
    ] {
        report.row(name, v as f64, "count", 1);
    }
    let staleness = view.as_ref().map_or(&[][..], |v| v.staleness_s);
    report.row(
        "serve.queue_depth_max",
        view.as_ref().map_or(0, |v| v.queue_depth_max) as f64,
        "count",
        1,
    );
    report.row(
        "serve.adopted_frac",
        view.as_ref().map_or(0.0, |v| v.adopted_frac),
        "ratio",
        1,
    );
    latency_rows(report, "serve.staleness", "sim_s", staleness);
    report.row("serve.shed_fraction", c.shed_fraction(), "ratio", 1);
}

/// Clock and tracing-cost rows; validate the trace and write it where
/// `--trace-out` asks.
pub fn trace_rows(
    report: &mut Report,
    opts: &Opts,
    clock: &Clock,
    tracer: &Tracer,
    ratios: &[f64],
) {
    report.row("trace.clock_overhead_ns", clock.pair_ns(), "ns", 1);
    report.row(
        "trace.overhead_frac",
        median(ratios) - 1.0,
        "ratio",
        ratios.len(),
    );
    let drain = tracer.drain();
    let valid = capman_obs::trace::validate(&drain.records);
    report.check(valid.is_ok(), || format!("trace invalid: {valid:?}"));
    report.check(drain.dropped == 0, || {
        format!("trace ring dropped {} records", drain.dropped)
    });
    if let Some(path) = &opts.trace_out {
        let written = std::fs::write(path, capman_obs::export::chrome_trace(&drain));
        report.check(written.is_ok(), || format!("write {path}: {written:?}"));
    }
}
