//! Measure fleet throughput with inline vs background calibration and
//! write `BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p capman-bench --bin bench_fleet                    # 1k/4k/16k ladder
//! cargo run --release -p capman-bench --bin bench_fleet -- --devices 1024  # one size
//! cargo run --release -p capman-bench --bin bench_fleet -- --devices 1024 --arena-devices 16384,65536,1000000  # scale run
//! cargo run --release -p capman-bench --bin bench_fleet -- --quick         # CI smoke sizes
//! cargo run --release -p capman-bench --bin bench_fleet -- --require-async-win
//! cargo run --release -p capman-bench --bin bench_fleet -- --obs-overhead  # obs cost contract
//! ```
//!
//! Observability flags (most useful with `--features obs`):
//!
//! * `--trace-out <path>` — drain the span tracer after the run and
//!   write a Chrome `trace_event` JSON file.
//! * `--metrics-out <path>` — write the metrics-registry snapshot as
//!   flat JSON, plus Prometheus text next to it (`<path>.prom`).
//! * `--obs-overhead` — instead of the throughput ladder, run one fleet
//!   repeatedly with the obs runtime switch off vs on (interleaved,
//!   min-wall per arm) and enforce the overhead contract: with the
//!   feature compiled out both arms are identical code, so the measured
//!   delta must sit inside the < 2% noise budget; with it compiled in,
//!   the off-arm (kill switch) must also stay < 2%, and the on-arm's
//!   recording cost is reported. Writes `BENCH_obs_overhead.json`
//!   (override with `--out`).
//!
//! Per fleet size the binary runs the same two-cohort CAPMAN fleet
//! through `ArenaRunner` twice — once calibrating inline (blocking,
//! per-device), once against a threaded calibration service that never
//! sheds (`ServiceConfig::unmetered`, the "pool" arm) — and measures
//! devices/sec for both. Before any number is reported it asserts the
//! pool arm's correctness envelope:
//!
//! * **no lost ticks** — every device executes exactly as many
//!   scheduling ticks as under inline calibration (the calibration path
//!   must not change how long a device runs);
//! * **nothing shed** — the service neither shed nor back-pressured a
//!   request, and after shutdown every admitted request either
//!   published or was abandoned unstarted;
//! * **bounded staleness** — no device waited past its own horizon for
//!   a calibration it requested.
//!
//! `--require-async-win` additionally asserts the pool arm beats inline
//! by at least 2x at 4096+ devices (the win comes from cohort
//! coalescing — one background solve serves every device of a cohort —
//! so it holds even single-core).
//!
//! Alongside the fleet ladder the binary runs an **arena ladder**: the
//! pool arm in 4096-device shards with streaming aggregation, never
//! materializing the per-device summary vector. Each arena row records
//! wall time *and* the process peak RSS (`VmHWM`), and the ladder
//! asserts the arena's memory contract: every row's peak RSS stays
//! within 1.5x of the previous (smaller) row's, and throughput stays
//! within 2x of the smallest row's rate. `--arena-devices a,b,c` pins
//! the arena ladder explicitly; a scale run pairs a small `--devices`
//! with a large arena ladder.

use std::sync::Arc;
use std::time::Instant;

use capman_bench::perf_report::{ArenaRow, FleetReport, FleetRow, ObsOverheadReport};
use capman_bench::rss::peak_rss_kb;
use capman_bench::trials::{self, SampleGroup};
use capman_fleet::{ArenaConfig, ArenaRunner, FleetPlan, FleetProfile, FleetResult};
use capman_serve::{CalibrationService, ServiceConfig, ServiceCounters};
use capman_workload::WorkloadKind;

// A compressed fixture: a 25-minute discharge with a 5-minute
// calibration cadence packs four calibration intervals into a horizon
// short enough to sweep 16k devices. (The paper's 20-minute cadence
// over a full-day discharge has the same solve-to-tick ratio; only the
// absolute wall time differs.)
const HORIZON_S: f64 = 1500.0;
const EVERY_S: f64 = 300.0;
/// Devices per shard in the fleet ladder.
const BATCH: usize = 64;
/// Devices resident per shard arena — the arena ladder's memory knob.
const ARENA_SHARD: usize = 4096;
/// Solver threads of the pool arm's calibration service.
const POOL_WORKERS: usize = 2;

fn cohort_profiles() -> Vec<FleetProfile> {
    let mut video = FleetProfile::capman("video", WorkloadKind::Video, 41);
    let mut pcmark = FleetProfile::capman("pcmark", WorkloadKind::Pcmark, 43);
    for profile in [&mut video, &mut pcmark] {
        profile.config.max_horizon_s = HORIZON_S;
        profile.calibrator.every_s = EVERY_S;
    }
    vec![video, pcmark]
}

fn build_plan(devices: usize) -> FleetPlan {
    assert!(
        devices >= 2 && devices.is_multiple_of(2),
        "need an even device count"
    );
    FleetPlan::new(cohort_profiles(), devices / 2)
}

/// The fleet ladder's runner: `BATCH`-device shards with per-device
/// summaries, which the tick envelope compares.
fn fleet_runner() -> ArenaRunner {
    ArenaRunner::new(ArenaConfig {
        shard_devices: BATCH,
        collect_summaries: true,
        ..ArenaConfig::default()
    })
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The inline arm: every CAPMAN device calibrates on its own tick.
fn run_inline(plan: &FleetPlan) -> (FleetResult, f64) {
    let t0 = Instant::now();
    let result = fleet_runner().run(plan);
    (result, elapsed_ms(t0))
}

/// The pool arm: a threaded calibration service that never sheds. The
/// timed region covers spawning the solver threads and the shutdown
/// that joins them, so the settled counters are part of the run.
fn run_pool(runner: &ArenaRunner, plan: &FleetPlan) -> (FleetResult, ServiceCounters, f64) {
    let t0 = Instant::now();
    let specs: Vec<_> = plan.profiles().iter().map(|p| p.calibrator).collect();
    let mut service = Arc::new(CalibrationService::new(
        &specs,
        ServiceConfig::unmetered(POOL_WORKERS, specs.len()),
    ));
    let result = runner.run_with_backend(plan, Arc::clone(&service) as _);
    let counters = Arc::get_mut(&mut service)
        .expect("the run released the backend")
        .shutdown();
    (result, counters, elapsed_ms(t0))
}

/// The pool arm's envelope: the unmetered service sheds nothing, every
/// admitted request published or was abandoned unstarted at shutdown,
/// and no device waited past its horizon.
fn assert_pool_envelope(result: &FleetResult, c: &ServiceCounters) {
    assert_eq!(
        (c.shed, c.backpressure),
        (0, 0),
        "the unmetered service must not shed a calibration"
    );
    assert_eq!(
        c.admitted,
        c.completed + c.abandoned,
        "every admitted calibration must publish or be abandoned at shutdown"
    );
    let staleness_max_s = result.aggregate.staleness_s.max();
    assert!(
        staleness_max_s <= HORIZON_S,
        "staleness {staleness_max_s} s exceeds the device horizon"
    );
}

fn fleet_row(devices: usize, require_async_win: bool, reps: usize) -> FleetRow {
    assert!(reps >= 1, "need at least one rep");
    let plan = build_plan(devices);
    // Interleave the arms rep-by-rep (inline, pool, inline, pool, ...)
    // so machine load hits both alike; headlines stay min-wall, the
    // pool-arm distribution rides along for the statistical gate. The
    // simulation itself is deterministic, so any rep's results can
    // carry the correctness envelope and the sketch quantiles.
    let mut inline_wall_ms = f64::INFINITY;
    let mut pool_wall_ms_samples = Vec::with_capacity(reps);
    let mut staleness_p99_s_samples = Vec::with_capacity(reps);
    let mut first: Option<(FleetResult, FleetResult, ServiceCounters)> = None;
    for _ in 0..reps {
        let (inline_rep, inline_ms) = run_inline(&plan);
        let (pool_rep, counters, pool_ms) = run_pool(&fleet_runner(), &plan);
        inline_wall_ms = inline_wall_ms.min(inline_ms);
        pool_wall_ms_samples.push(pool_ms);
        staleness_p99_s_samples.push(pool_rep.aggregate.staleness_s.p99());
        if first.is_none() {
            first = Some((inline_rep, pool_rep, counters));
        }
    }
    let (inline, pool, counters) = first.expect("reps >= 1");
    let pool_wall_ms = pool_wall_ms_samples
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);

    // --- Correctness envelope before any throughput number ------------
    let ticks = |r: &FleetResult| r.summaries.iter().map(|s| s.ticks).collect::<Vec<_>>();
    assert_eq!(
        ticks(&inline),
        ticks(&pool),
        "background calibration must not change how long devices tick"
    );
    assert_pool_envelope(&pool, &counters);

    let row = FleetRow {
        devices,
        cohorts: plan.profiles().len(),
        ticks: pool.aggregate.ticks,
        inline_wall_ms,
        pool_wall_ms,
        pool_wall_ms_samples,
        inline_recalibrations: inline.aggregate.recalibrations,
        pool_completed: counters.completed,
        pool_submitted: counters.submitted,
        pool_coalesced: counters.coalesced + counters.replaced,
        pool_dropped: counters.shed + counters.backpressure,
        staleness_p50_s: pool.aggregate.staleness_s.p50(),
        staleness_p95_s: pool.aggregate.staleness_s.p95(),
        staleness_p99_s: pool.aggregate.staleness_s.p99(),
        staleness_p99_s_samples,
        staleness_max_s: pool.aggregate.staleness_s.max(),
        lifetime_p50_s: pool.aggregate.lifetime_s.p50(),
        hotspot_p95_c: pool.aggregate.hotspot_c.p95(),
    };
    if require_async_win && devices >= 4096 {
        assert!(
            row.speedup() >= 2.0,
            "pool arm must be >= 2x inline at {devices} devices, got {:.2}x",
            row.speedup()
        );
    }
    row
}

/// One arena-ladder row: the pool arm in `ARENA_SHARD`-device shards
/// with streaming aggregation. The correctness envelope here is the
/// aggregation contract — every device counted exactly once, no
/// summary vector materialized, no calibration shed — and peak RSS
/// rides along as the number the arena exists to bound.
fn arena_row(devices: usize, reps: usize) -> ArenaRow {
    assert!(reps >= 1, "need at least one rep");
    let plan = build_plan(devices);
    let runner = ArenaRunner::new(ArenaConfig {
        shard_devices: ARENA_SHARD.min(devices),
        ..ArenaConfig::default()
    });
    let mut wall_ms_samples = Vec::with_capacity(reps);
    let mut first: Option<(FleetResult, ServiceCounters)> = None;
    for _ in 0..reps {
        let (result, counters, wall_ms) = run_pool(&runner, &plan);
        wall_ms_samples.push(wall_ms);
        if first.is_none() {
            first = Some((result, counters));
        }
    }
    let (result, counters) = first.expect("reps >= 1");
    let agg = &result.aggregate;

    // --- Streaming-aggregation envelope -------------------------------
    assert!(
        result.summaries.is_empty(),
        "the arena bench must not materialize the summary vector"
    );
    assert_eq!(agg.devices as usize, devices, "every device counted once");
    assert_eq!(agg.lifetime_s.count(), devices as u64);
    assert_pool_envelope(&result, &counters);

    let wall_ms = wall_ms_samples
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    ArenaRow {
        devices,
        shard_devices: runner.config().shard_devices,
        cohorts: plan.profiles().len(),
        ticks: agg.ticks,
        wall_ms,
        wall_ms_samples,
        peak_rss_kb: peak_rss_kb(),
        recalibrations: agg.recalibrations,
        pool_completed: counters.completed,
        pool_dropped: counters.shed + counters.backpressure,
        staleness_p99_s: agg.staleness_s.p99(),
        lifetime_p50_s: agg.lifetime_s.p50(),
        hotspot_p95_c: agg.hotspot_c.p95(),
    }
}

/// The arena's scale contract, asserted over an ascending ladder:
/// growing the fleet must not grow memory (peak RSS within 1.5x of the
/// previous row — the `VmHWM` mark is process-monotone, so the bound
/// says "this row added almost nothing") and must not sink throughput
/// (within 2x of the smallest row's devices/sec; per-device work is
/// constant, so a bigger fleet only amortizes fixed costs better).
fn assert_arena_scaling(rows: &[ArenaRow]) {
    for pair in rows.windows(2) {
        let (small, big) = (&pair[0], &pair[1]);
        if small.peak_rss_kb > 0 {
            assert!(
                (big.peak_rss_kb as f64) <= 1.5 * small.peak_rss_kb as f64,
                "arena memory contract broken: {} devices peaked at {} kB vs {} kB at {}",
                big.devices,
                big.peak_rss_kb,
                small.peak_rss_kb,
                small.devices
            );
        }
    }
    if let Some(first) = rows.first() {
        for row in &rows[1..] {
            assert!(
                row.devices_per_s() >= 0.5 * first.devices_per_s(),
                "arena throughput sank at scale: {:.1} dev/s at {} vs {:.1} dev/s at {}",
                row.devices_per_s(),
                row.devices,
                first.devices_per_s(),
                first.devices
            );
        }
    }
}

/// One `--obs-overhead` measurement (see the module docs). Interleaving
/// the arms rep-by-rep keeps both under the same machine conditions;
/// min-wall per arm rejects scheduler hiccups.
fn obs_overhead(devices: usize, reps: usize) -> ObsOverheadReport {
    let plan = build_plan(devices);
    let runner = fleet_runner();
    // Warm-up run: fault in code paths and the allocator before timing.
    capman_obs::set_enabled(false);
    let _ = run_pool(&runner, &plan);
    let mut wall_off_ms = f64::INFINITY;
    let mut wall_on_ms = f64::INFINITY;
    let mut causal_seen = false;
    for _ in 0..reps {
        capman_obs::set_enabled(false);
        wall_off_ms = wall_off_ms.min(run_pool(&runner, &plan).2);
        capman_obs::set_enabled(true);
        wall_on_ms = wall_on_ms.min(run_pool(&runner, &plan).2);
        // Keep ring memory bounded across reps; `--trace-out` snapshots
        // the final rep only.
        if reps > 1 {
            let drain = capman_obs::drain();
            causal_seen = causal_seen
                || drain
                    .records
                    .iter()
                    .any(|r| r.trace != 0 && matches!(r.kind, capman_obs::RecordKind::Link { .. }));
        }
    }
    // The measured on-arm must be doing the *full* job: trace contexts
    // minted at submission and cross-thread flow links recorded. An
    // overhead number for a tracer that silently stopped tracing would
    // certify nothing.
    if capman_obs::compiled() && reps > 1 {
        assert!(
            causal_seen,
            "obs-on arm recorded no flow-linked causal traces — the overhead \
             measurement is not exercising causal tracing"
        );
    }
    ObsOverheadReport {
        obs_compiled: capman_obs::compiled(),
        devices,
        reps,
        wall_off_ms,
        wall_on_ms,
    }
}

/// Honour `--trace-out` / `--metrics-out` after the measured work.
fn write_obs_outputs(trace_out: Option<&str>, metrics_out: Option<&str>) {
    if trace_out.is_some() || metrics_out.is_some() {
        if !capman_obs::compiled() {
            eprintln!("note: built without --features obs — traces and metrics will be empty");
        }
        if let Some(path) = trace_out {
            let drain = capman_obs::drain();
            capman_obs::trace::validate(&drain.records).expect("drained spans must be well-nested");
            let n = drain.records.len();
            std::fs::write(path, capman_obs::export::chrome_trace(&drain))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path} ({n} spans, {} dropped)", drain.dropped);
        }
        if let Some(path) = metrics_out {
            let snap = capman_obs::snapshot();
            std::fs::write(path, capman_obs::export::metrics_json(&snap))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            let prom_path = format!("{path}.prom");
            std::fs::write(&prom_path, capman_obs::export::prometheus_text(&snap))
                .unwrap_or_else(|e| panic!("write {prom_path}: {e}"));
            println!("wrote {path} and {prom_path}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let require_async_win = args.iter().any(|a| a == "--require-async-win");
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let trace_out = flag("--trace-out");
    let metrics_out = flag("--metrics-out");
    let trials_out = flag("--trials");
    let reps: usize = flag("--reps")
        .map(|n| n.parse().expect("--reps takes a number"))
        .unwrap_or(1);

    if args.iter().any(|a| a == "--obs-overhead") {
        let devices = match flag("--devices") {
            Some(n) => n.parse().expect("--devices takes a number"),
            None if quick => 256,
            None => 1024,
        };
        let report = obs_overhead(devices, 3);
        println!(
            "obs overhead @ {} devices (feature {}): off {:.1} ms ({:.1} dev/s), on {:.1} ms \
             ({:.1} dev/s), overhead {:+.2}%",
            report.devices,
            if report.obs_compiled {
                "compiled"
            } else {
                "disabled"
            },
            report.wall_off_ms,
            report.devices_per_s_off(),
            report.wall_on_ms,
            report.devices_per_s_on(),
            report.overhead_pct()
        );
        // The contract from DESIGN.md §12: the *disabled* path (feature
        // off, or feature on with the kill switch off) costs < 2%
        // devices/sec. The off-arm must never lose more than the noise
        // budget to the on-arm, which does strictly more work.
        assert!(
            report.wall_off_ms <= report.wall_on_ms * 1.02,
            "disabled-path overhead contract violated: off {:.1} ms vs on {:.1} ms",
            report.wall_off_ms,
            report.wall_on_ms
        );
        if !report.obs_compiled {
            // Identical code in both arms: the delta is pure harness
            // noise and bounds the measurement resolution.
            assert!(
                report.overhead_pct().abs() < 2.0,
                "feature-off arms diverged by {:.2}% — measurement too noisy",
                report.overhead_pct()
            );
        }
        let out_path = flag("--out").unwrap_or_else(|| "BENCH_obs_overhead.json".to_string());
        std::fs::write(&out_path, report.to_json())
            .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
        println!("wrote {out_path}");
        write_obs_outputs(trace_out.as_deref(), metrics_out.as_deref());
        return;
    }

    let out_path = flag("--out").unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let devices_flag: Option<usize> =
        flag("--devices").map(|n| n.parse().expect("--devices takes a number"));
    let sizes: Vec<usize> = match devices_flag {
        Some(n) => vec![n],
        None if quick => vec![256],
        None => vec![1024, 4096, 16384],
    };
    // Ascending order: VmHWM is monotone, so each row's growth is
    // attributed to the row that caused it.
    let mut arena_sizes: Vec<usize> = match flag("--arena-devices") {
        Some(list) => list
            .split(',')
            .map(|n| n.trim().parse().expect("--arena-devices takes numbers"))
            .collect(),
        None => match devices_flag {
            Some(n) => vec![n],
            None if quick => vec![256],
            None => vec![16_384, 65_536],
        },
    };
    arena_sizes.sort_unstable();
    arena_sizes.dedup();

    let mut report = FleetReport {
        threads: rayon::current_num_threads(),
        batch: BATCH,
        horizon_s: HORIZON_S,
        every_s: EVERY_S,
        ..FleetReport::default()
    };

    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "devices",
        "inline_ms",
        "pool_ms",
        "inl_dev/s",
        "pool_dev/s",
        "speedup",
        "solves",
        "stale_p99"
    );
    for &devices in &sizes {
        let row = fleet_row(devices, require_async_win, reps);
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>10.1} {:>10.1} {:>7.1}x {:>10} {:>9.1}s",
            row.devices,
            row.inline_wall_ms,
            row.pool_wall_ms,
            row.inline_devices_per_s(),
            row.pool_devices_per_s(),
            row.speedup(),
            row.pool_completed,
            row.staleness_p99_s
        );
        report.rows.push(row);
    }

    println!("arena ladder (pool arm, {} devices/shard):", ARENA_SHARD);
    println!(
        "{:>9} {:>12} {:>10} {:>12} {:>8} {:>10}",
        "devices", "wall_ms", "dev/s", "peak_rss_kb", "solves", "stale_p99"
    );
    for &devices in &arena_sizes {
        let row = arena_row(devices, reps);
        println!(
            "{:>9} {:>12.1} {:>10.1} {:>12} {:>8} {:>9.1}s",
            row.devices,
            row.wall_ms,
            row.devices_per_s(),
            row.peak_rss_kb,
            row.pool_completed,
            row.staleness_p99_s
        );
        // Shard size must not change the simulation (full bit-identity
        // is pinned by the fleet crate's tests; ticks are the cheap
        // in-bench witness).
        if let Some(fleet) = report.rows.iter().find(|r| r.devices == row.devices) {
            assert_eq!(
                fleet.ticks, row.ticks,
                "fleet and arena ladders disagree on ticks at {devices} devices"
            );
        }
        report.arena.push(row);
    }
    assert_arena_scaling(&report.arena);

    let json = report.to_json();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");

    if let Some(dir) = trials_out.as_deref() {
        let mut groups = Vec::new();
        for row in &report.rows {
            let task = format!("devices-{}", row.devices);
            groups.push(SampleGroup::new(
                &task,
                "pool",
                "pool_wall_ms",
                &row.pool_wall_ms_samples,
            ));
            groups.push(SampleGroup::new(
                &task,
                "staleness_p99",
                "staleness_p99_s",
                &row.staleness_p99_s_samples,
            ));
        }
        for row in &report.arena {
            groups.push(SampleGroup::new(
                &format!("arena-devices-{}", row.devices),
                "arena",
                "wall_ms",
                &row.wall_ms_samples,
            ));
        }
        trials::emit(std::path::Path::new(dir), "bench_fleet", &groups)
            .unwrap_or_else(|e| panic!("emit trials to {dir}: {e}"));
        println!("wrote {dir} ({} sample groups)", groups.len());
    }
    write_obs_outputs(trace_out.as_deref(), metrics_out.as_deref());
}
