//! The fleet workloads.
//!
//! * `fleet-inline`: `ArenaRunner::run` with inline calibration on two
//!   CAPMAN cohorts over a compressed 25-minute discharge — calibration
//!   dominates, on its incremental path, beside the arena's shard
//!   scheduling and streaming aggregation.
//! * `fleet-steady`: one `DeviceArena` over four mixed-policy cohorts
//!   pumped against a stepped `CalibrationService` at the paper's
//!   20-minute cadence — the device tick dominates.

use std::sync::Arc;
use std::time::Instant;

use capman_core::experiments::PolicyKind;
use capman_core::profiler::Profiler;
use capman_core::{CalibratorSpec, SimConfig};
use capman_fleet::{
    ArenaConfig, ArenaRunner, CalibrationBackend, DeviceArena, DeviceHandle, DeviceSummary,
    FleetPlan, FleetProfile, FleetResult, QuantileSketch,
};
use capman_obs::Tracer;
use capman_serve::{AdmissionConfig, CalibrationService, ServiceConfig, ServiceCounters};
use capman_workload::WorkloadKind;

use crate::ledger::{calib_rows, service_rows, tick_rows, trace_rows, ServiceView};
use crate::probe::{
    CalibRec, CalibStats, Clock, CohortCache, ProbeBackend, Tape, TickLedger, TickProbe,
    TracedDevice,
};
use crate::replay::{replay_calibrations, replay_physics};
use crate::stats::{mean, median, Digest};
use crate::{e2e_rows, latency_rows, run_rounds, Opts, Report, RoundOut};

/// `bench_fleet`'s compressed fixture: four calibration intervals in a
/// horizon short enough to run thousands of devices.
const INLINE_HORIZON_S: f64 = 1500.0;
const INLINE_EVERY_S: f64 = 300.0;
/// The paper's calibration cadence, also the service's quota window.
pub const WINDOW_S: f64 = 1200.0;
const PUMPS_PER_WINDOW: u32 = 8;
/// Devices (or cohorts) whose inputs a traced run records for replay.
const RECORDED: usize = 64;
/// Span-ring capacity of the benchmark's tracer, records per thread.
pub const TRACE_RING: usize = 1 << 20;

/// Replayed devices: 64, or half of a small plan so the other half is
/// timed in situ.
pub fn recorded(devices: usize) -> usize {
    RECORDED.min(devices / 2)
}

/// A seed-derived profile seed, distinct per cohort `salt`.
pub fn profile_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// Simulated device-seconds of a set of devices (one `DeviceSim::step`
/// each, at the 1 s step).
fn device_seconds(summaries: &[DeviceSummary]) -> u64 {
    summaries.iter().map(|s| s.service_time_s).sum::<f64>() as u64
}

fn digest_sketch(d: &mut Digest, s: &QuantileSketch) {
    d.u64(s.count());
    d.f64(s.min());
    d.f64(s.max());
    for i in 0..=20 {
        d.f64(s.quantile(f64::from(i) / 20.0));
    }
}

fn digest_summaries(d: &mut Digest, summaries: &[DeviceSummary]) {
    for s in summaries {
        d.u64(s.device_id);
        d.u64(s.cohort as u64);
        d.f64(s.service_time_s);
        d.f64(s.work_served);
        d.f64(s.energy_delivered_j);
        d.f64(s.max_hotspot_c);
        d.u64(s.switches);
        d.u64(s.ticks);
        d.u64(s.recalibrations);
        d.f64(s.max_staleness_s);
    }
}

pub fn digest_counters(d: &mut Digest, c: &ServiceCounters) {
    for v in [
        c.submitted,
        c.admitted,
        c.coalesced,
        c.replaced,
        c.shed,
        c.backpressure,
        c.completed,
        c.abandoned,
    ] {
        d.u64(v);
    }
}

/// Both service ledger identities, checked at a quiescent point.
pub fn check_identities(report: &mut Report, c: &ServiceCounters, pending: usize) {
    report.check(
        c.submitted == c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure,
        || format!("admission identity broken: {c:?}"),
    );
    report.check(
        c.admitted == c.completed + pending as u64 + c.abandoned,
        || format!("completion identity broken: {c:?}, {pending} pending"),
    );
}

// ---------------------------------------------------------------------------
// fleet-inline

struct InlineSize {
    per_cohort: usize,
    shard: usize,
    warmup_per_cohort: usize,
    traced_per_cohort: usize,
}

fn inline_size(smoke: bool) -> InlineSize {
    if smoke {
        InlineSize {
            per_cohort: 4,
            shard: 2,
            warmup_per_cohort: 1,
            traced_per_cohort: 2,
        }
    } else {
        InlineSize {
            per_cohort: 1024,
            shard: 256,
            warmup_per_cohort: 32,
            traced_per_cohort: 512,
        }
    }
}

fn inline_profiles(seed: u64) -> Vec<FleetProfile> {
    let mut video = FleetProfile::capman("video", WorkloadKind::Video, profile_seed(seed, 41));
    let mut pcmark = FleetProfile::capman("pcmark", WorkloadKind::Pcmark, profile_seed(seed, 43));
    for profile in [&mut video, &mut pcmark] {
        profile.config.max_horizon_s = INLINE_HORIZON_S;
        profile.calibrator.every_s = INLINE_EVERY_S;
    }
    vec![video, pcmark]
}

/// Set-up: the plan, plus a two-shard warm-up run that faults in the
/// code paths and the allocator before the timed run.
fn setup_inline(profiles: &[FleetProfile], size: &InlineSize) -> FleetPlan {
    let warm = FleetPlan::new(profiles.to_vec(), size.warmup_per_cohort);
    ArenaRunner::new(ArenaConfig {
        shard_devices: size.warmup_per_cohort,
        ..ArenaConfig::default()
    })
    .run(&warm);
    FleetPlan::new(profiles.to_vec(), size.per_cohort)
}

fn inline_runner(size: &InlineSize, parallel: bool) -> ArenaRunner {
    ArenaRunner::new(ArenaConfig {
        shard_devices: size.shard,
        parallel,
        collect_summaries: true,
        ..ArenaConfig::default()
    })
}

/// One timed `ArenaRunner::run`, checked and digested.
fn inline_round(
    report: &mut Report,
    runner: &ArenaRunner,
    plan: &FleetPlan,
    batch_ms: &mut Vec<f64>,
) -> (RoundOut, FleetResult) {
    let t0 = Instant::now();
    let result = runner.run(plan);
    let wall_s = t0.elapsed().as_secs_f64();
    let agg = &result.aggregate;
    batch_ms.extend(agg.shards.iter().map(|s| s.wall_ms));
    report.check(
        agg.devices as usize == plan.len() && result.summaries.len() == plan.len(),
        || format!("fleet-inline ran {} of {} devices", agg.devices, plan.len()),
    );
    report.check(
        agg.shards.iter().map(|s| s.devices).sum::<u64>() == agg.devices,
        || "shards do not account for every device".to_string(),
    );
    report.check(agg.recalibrations > 0, || {
        "no device calibrated".to_string()
    });
    let mut d = Digest::new();
    d.u64(agg.devices);
    d.u64(agg.ticks);
    d.u64(agg.recalibrations);
    for sketch in [&agg.lifetime_s, &agg.hotspot_c, &agg.staleness_s] {
        digest_sketch(&mut d, sketch);
    }
    digest_summaries(&mut d, &result.summaries);
    let out = RoundOut {
        ops: device_seconds(&result.summaries),
        wall_s,
        digest: d.finish(),
    };
    (out, result)
}

pub fn inline_e2e(opts: &Opts, report: &mut Report) {
    let size = inline_size(opts.smoke);
    let profiles = inline_profiles(opts.seed);
    let runner = inline_runner(&size, true);
    let rounds = run_rounds(
        opts.seconds,
        || setup_inline(&profiles, &size),
        |plan, batch_ms| inline_round(report, &runner, &plan, batch_ms).0,
    );
    e2e_rows(report, "fleet-inline", opts, &rounds);
}

pub fn inline_traced(opts: &Opts, clock: Clock, report: &mut Report) {
    let size = inline_size(opts.smoke);
    let profiles = inline_profiles(opts.seed);

    // Fleet rows come from one untraced parallel round's own shard rows.
    let plan = setup_inline(&profiles, &size);
    let (round, full) = inline_round(report, &inline_runner(&size, true), &plan, &mut Vec::new());
    report.check_golden("fleet-inline", opts, round.digest);
    let agg = &full.aggregate;
    let walls: Vec<f64> = agg.shards.iter().map(|s| s.wall_ms).collect();
    report.row("fleet.shard_wall_ms_p50", median(&walls), "ms", walls.len());
    report.row(
        "fleet.shard_wall_ms_max",
        walls.iter().copied().fold(0.0, f64::max),
        "ms",
        walls.len(),
    );

    // Then pairs of passes over the sub-plan: untraced through the serial
    // arena runner, traced through the benchmark's own device loop.
    let sub = FleetPlan::new(profiles, size.traced_per_cohort);
    let serial = inline_runner(&size, false);
    let tracer = Tracer::new(TRACE_RING);
    let probe = TickProbe::new(clock, &tracer, None);
    let mut ledger = TickLedger::default();
    let mut tapes = Vec::new();
    let mut ratios = Vec::new();
    let started = Instant::now();
    loop {
        let first = ratios.is_empty();
        probe.set_spans(first);
        let t0 = Instant::now();
        let untraced = serial.run(&sub);
        let wall_u = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut cache = CohortCache::new(&sub);
        let mut summaries = Vec::with_capacity(sub.len());
        for i in 0..sub.len() {
            let record = first && i < recorded(sub.len());
            let mut dev = TracedDevice::build(&sub, i, None, &mut cache, &tracer, record);
            probe.run_until(&mut dev, f64::INFINITY, &mut ledger);
            summaries.push(dev.summary());
            tapes.extend(dev.tape.take());
        }
        ratios.push(t1.elapsed().as_secs_f64() / wall_u);
        report.check(summaries == untraced.summaries, || {
            "traced fleet-inline sub-plan diverged from the untraced run".to_string()
        });
        if first {
            let mut d = Digest::new();
            digest_summaries(&mut d, &summaries);
            report.digest = d.finish();
        }
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    report.attempted = ledger.steps;
    let physics = replay_physics(&tapes, &clock);
    let stages = replay_calibrations(&tapes, &clock, &tracer);
    tick_rows(report, opts, &ledger, &physics, None);
    calib_rows(report, &ledger.calibrations, &stages);
    service_rows(report, None);
    trace_rows(report, opts, &clock, &tracer, &ratios);
}

// ---------------------------------------------------------------------------
// fleet-steady

struct SteadySize {
    per_cohort: usize,
    windows: u32,
    warmup_per_cohort: usize,
    warmup_windows: u32,
}

fn steady_size(smoke: bool) -> SteadySize {
    if smoke {
        SteadySize {
            per_cohort: 2,
            windows: 3,
            warmup_per_cohort: 1,
            warmup_windows: 1,
        }
    } else {
        SteadySize {
            per_cohort: 256,
            windows: 9,
            warmup_per_cohort: 16,
            warmup_windows: 3,
        }
    }
}

/// CAPMAN on two workloads plus two no-profiler baselines, after the
/// mixed device population of in-the-wild studies.
fn steady_profiles(seed: u64, horizon_s: f64) -> Vec<FleetProfile> {
    let capman = |name: &str, workload, salt| {
        let mut p = FleetProfile::capman(name, workload, profile_seed(seed, salt));
        p.config.max_horizon_s = horizon_s;
        p
    };
    let baseline = |name: &str, kind, workload, salt| {
        let mut p = FleetProfile::capman(name, workload, profile_seed(seed, salt));
        p.kind = kind;
        p.config = SimConfig {
            max_horizon_s: horizon_s,
            ..SimConfig::paper()
        };
        p
    };
    vec![
        capman("capman-video", WorkloadKind::Video, 51),
        capman("capman-pcmark", WorkloadKind::Pcmark, 53),
        baseline(
            "dual-geekbench",
            PolicyKind::Dual,
            WorkloadKind::Geekbench,
            57,
        ),
        baseline(
            "heuristic-eta50",
            PolicyKind::Heuristic,
            WorkloadKind::EtaStatic { eta: 50 },
            59,
        ),
    ]
}

/// A stepped service with one admission per cohort per window; the
/// solve-latency objective is disabled so no admission depends on host
/// time.
pub fn stepped_service(specs: &[CalibratorSpec], queue_bound: usize) -> CalibrationService {
    let mut config = ServiceConfig {
        admission: AdmissionConfig {
            queue_bound,
            quota_per_window: 1,
            window_s: WINDOW_S,
        },
        ..ServiceConfig::default()
    };
    config.slo.spec.solve_p99_us.objective = f64::INFINITY;
    CalibrationService::new(specs, config)
}

fn steady_backend(plan: &FleetPlan, clock: Clock, timed: bool) -> Arc<ProbeBackend> {
    let specs: Vec<_> = plan.profiles().iter().map(|p| p.calibrator).collect();
    let service = Arc::new(stepped_service(&specs, specs.len()));
    let record = if timed { specs.len() } else { 0 };
    Arc::new(ProbeBackend::new(service, clock, timed, record))
}

/// What one pass of the steady schedule produced.
#[derive(Default)]
struct SteadyRun {
    wall_s: f64,
    batch_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    evaluate_us: Vec<f64>,
    /// Most requests pending when a pump's solves began.
    queue_depth_max: usize,
}

/// The soak schedule: each window, devices advance in eight slices and
/// the service solves what admission let through after each slice; the
/// SLO is judged at the window's end.
fn pump_schedule(
    report: &mut Report,
    backend: &ProbeBackend,
    plan: &FleetPlan,
    windows: u32,
    tracer: Option<&Tracer>,
    mut advance: impl FnMut(f64),
    mut solve: impl FnMut(f64, &mut Vec<f64>),
) -> SteadyRun {
    let service = &backend.service;
    let cohorts = plan.profiles().len();
    let mut run = SteadyRun::default();
    let mut seqs = vec![0u64; cohorts];
    let t_run = Instant::now();
    for window in 0..windows {
        let submitted_before = backend.log().submitted.clone();
        let window_start = WINDOW_S * f64::from(window);
        for pump in 1..=PUMPS_PER_WINDOW {
            let t = window_start + WINDOW_S * f64::from(pump) / f64::from(PUMPS_PER_WINDOW);
            let _span = tracer.and_then(|tr| tr.span("arena.pump", u64::from(pump)));
            let t0 = Instant::now();
            advance(t);
            run.queue_depth_max = run.queue_depth_max.max(service.queue_depth());
            solve(t, &mut run.solve_ms);
            run.batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let depth = service.queue_depth();
            report.check(depth == 0, || {
                format!("{depth} requests left pending at {t} s")
            });
        }
        let t0 = Instant::now();
        service.evaluate_slo();
        run.evaluate_us.push(t0.elapsed().as_secs_f64() * 1e6);
        // A cohort that asked for a calibration this window got one.
        let submitted = backend.log().submitted.clone();
        for (c, seq) in seqs.iter_mut().enumerate() {
            let now = service.snapshot(c).seq;
            report.check(submitted[c] == submitted_before[c] || now > *seq, || {
                format!("cohort {c} submitted in window {window} but nothing was published")
            });
            *seq = now;
        }
    }
    run.wall_s = t_run.elapsed().as_secs_f64();
    run
}

/// Digest and check what a steady pass left behind.
fn steady_digest(report: &mut Report, backend: &ProbeBackend, summaries: &[DeviceSummary]) -> u64 {
    let service = &backend.service;
    let counters = service.counters();
    check_identities(report, &counters, service.queue_depth());
    let mut d = Digest::new();
    digest_summaries(&mut d, summaries);
    digest_counters(&mut d, &counters);
    for c in 0..service.cohorts() {
        d.u64(service.snapshot(c).seq);
    }
    let log = backend.log();
    for &s in &log.staleness_s {
        d.f64(s);
    }
    d.u64(log.adopted.len() as u64);
    d.finish()
}

fn untraced_solve(service: &CalibrationService, t: f64, solve_ms: &mut Vec<f64>) {
    let t0 = Instant::now();
    let ran = service.run_pending(t);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    solve_ms.extend(std::iter::repeat_n(ms / ran.max(1) as f64, ran));
}

struct Steady {
    plan: FleetPlan,
    backend: Arc<ProbeBackend>,
    arena: DeviceArena,
    build_s: f64,
}

fn build_steady(opts: &Opts, per_cohort: usize, windows: u32, clock: Clock) -> Steady {
    let horizon_s = WINDOW_S * f64::from(windows);
    let plan = FleetPlan::new(steady_profiles(opts.seed, horizon_s), per_cohort);
    let backend = steady_backend(&plan, clock, false);
    let shared: Arc<dyn CalibrationBackend> = backend.clone();
    let t0 = Instant::now();
    let arena = DeviceArena::build(&plan, 0, plan.len(), Some(&shared));
    Steady {
        build_s: t0.elapsed().as_secs_f64(),
        plan,
        backend,
        arena,
    }
}

/// Set-up: a small copy of the workload run to warm the code paths and
/// the allocator, then the round's plan, service and arena.
fn setup_steady(opts: &Opts, size: &SteadySize, clock: Clock) -> Steady {
    let mut warm = build_steady(opts, size.warmup_per_cohort, size.warmup_windows, clock);
    steady_pass(&mut Report::default(), &mut warm, size.warmup_windows);
    build_steady(opts, size.per_cohort, size.windows, clock)
}

/// One untraced pass: returns the run, its summaries and digest.
fn steady_pass(
    report: &mut Report,
    st: &mut Steady,
    windows: u32,
) -> (SteadyRun, Vec<DeviceSummary>, u64) {
    let arena = &mut st.arena;
    let service = Arc::clone(&st.backend.service);
    let run = pump_schedule(
        report,
        &st.backend,
        &st.plan,
        windows,
        None,
        |t| {
            arena.run_window(t);
        },
        |t, solve_ms| untraced_solve(&service, t, solve_ms),
    );
    let summaries: Vec<DeviceSummary> = (0..st.arena.len())
        .map(|h| st.arena.summary(DeviceHandle::new(h as u32)))
        .collect();
    let digest = steady_digest(report, &st.backend, &summaries);
    (run, summaries, digest)
}

pub fn steady_e2e(opts: &Opts, clock: Clock, report: &mut Report) {
    let size = steady_size(opts.smoke);
    let mut submit_us = Vec::new();
    let mut solve_ms = Vec::new();
    let mut staleness_s = Vec::new();
    let mut build_us_per_device = Vec::new();
    let mut shed_fraction = 0.0;
    let mut devices = 0;
    let rounds = run_rounds(
        opts.seconds,
        || setup_steady(opts, &size, clock),
        |mut st, batch_ms| {
            let (run, summaries, digest) = steady_pass(report, &mut st, size.windows);
            // Every round runs the same input: report the last round's
            // samples rather than let them pile up in memory.
            batch_ms.extend(&run.batch_ms);
            solve_ms = run.solve_ms;
            let log = st.backend.log();
            submit_us.clone_from(&log.submit_us);
            staleness_s.clone_from(&log.staleness_s);
            shed_fraction = st.backend.service.counters().shed_fraction();
            devices = st.plan.len();
            build_us_per_device.push(st.build_s * 1e6 / devices as f64);
            RoundOut {
                ops: device_seconds(&summaries),
                wall_s: run.wall_s,
                digest,
            }
        },
    );
    e2e_rows(report, "fleet-steady", opts, &rounds);
    latency_rows(report, "submit_us", "us", &submit_us);
    latency_rows(report, "solve_ms", "ms", &solve_ms);
    latency_rows(report, "staleness", "sim_s", &staleness_s);
    report.row("shed_fraction", shed_fraction, "ratio", 1);
    report.row(
        "fleet.build_us_per_device",
        median(&build_us_per_device),
        "us",
        build_us_per_device.len(),
    );
    report.row(
        "fleet.rss_kb_per_device",
        rounds.peak_rss_kb as f64 / devices as f64,
        "kB",
        1,
    );
}

/// Service solves of a traced pass, one step at a time so each solve is
/// timed and attributed to its cohort.
struct TracedSolves<'a> {
    backend: &'a ProbeBackend,
    clock: Clock,
    /// Where spans go, in the first traced pass only.
    spans: Option<&'a Tracer>,
    stats: &'a mut CalibStats,
    sched_us: &'a mut Vec<f64>,
    tapes: &'a mut [Tape],
}

impl TracedSolves<'_> {
    fn solve(&mut self, t: f64, solve_ms: &mut Vec<f64>) {
        let service = &self.backend.service;
        loop {
            let before: Vec<u64> = (0..service.cohorts())
                .map(|c| service.snapshot(c).seq)
                .collect();
            let span = self.spans.and_then(|t| t.span("serve.step", 0));
            let t0 = Instant::now();
            let ran = service.step(t);
            let us = self.clock.interval_ns(t0, Instant::now(), 0) / 1e3;
            drop(span);
            if !ran {
                return;
            }
            record_solve(
                service,
                &before,
                us,
                &mut self.backend.log().pending,
                self.stats,
                self.sched_us,
                self.tapes,
            );
            solve_ms.push(us / 1e3);
        }
    }
}

/// Account the solve a service step just published: find its cohort
/// (the one whose seq moved past `before`), count it, take the scheduler
/// self time, and keep the solved payload for the replica when the
/// cohort has a tape.
pub fn record_solve(
    service: &CalibrationService,
    before: &[u64],
    step_us: f64,
    pending: &mut [Option<(f64, Profiler)>],
    stats: &mut CalibStats,
    sched_us: &mut Vec<f64>,
    tapes: &mut [Tape],
) {
    let cohort = (0..before.len())
        .find(|&c| service.snapshot(c).seq > before[c])
        .expect("a solving step publishes one cohort");
    let snap = service.snapshot(cohort);
    let cal = snap
        .calibration
        .as_ref()
        .expect("a published snapshot holds a calibration");
    stats.add(cal, step_us);
    sched_us.push(step_us - snap.wall_us);
    let payload = pending.get_mut(cohort).and_then(Option::take);
    if let (Some(tape), Some((now_s, profiler))) = (tapes.get_mut(cohort), payload) {
        tape.calibs.push(CalibRec {
            now_s,
            profiler,
            insitu: cal.clone(),
            insitu_us: step_us,
        });
    }
}

/// A calibration-only tape per cohort (the physics fields are unused).
pub fn cohort_tapes(plan: &FleetPlan, tracer: &Tracer, cohorts: usize) -> Vec<Tape> {
    plan.profiles()
        .iter()
        .cycle()
        .take(cohorts)
        .map(|p| Tape {
            trace: tracer.mint_trace(),
            kind: p.kind,
            config: p.config,
            model: Arc::new(p.phone.power_model()),
            rho: p.calibrator.rho,
            theta: p.calibrator.theta,
            steps: Vec::new(),
            calibs: Vec::new(),
        })
        .collect()
}

pub fn steady_traced(opts: &Opts, clock: Clock, report: &mut Report) {
    let size = steady_size(opts.smoke);
    let tracer = Tracer::new(TRACE_RING);
    let mut ledger = TickLedger::default();
    let mut stats = CalibStats::default();
    let mut sched_us = Vec::new();
    let mut evaluate_us = Vec::new();
    let mut queue_depth_max = 0;
    let mut ratios = Vec::new();
    let mut e2e_step_ns = Vec::new();
    let mut step_tapes = Vec::new();
    let mut calib_tapes = Vec::new();
    let started = Instant::now();
    let backend = loop {
        let first = ratios.is_empty();
        let mut st = setup_steady(opts, &size, clock);
        let (run_u, summaries_u, digest_u) = steady_pass(report, &mut st, size.windows);
        let solve_s: f64 = run_u.solve_ms.iter().sum::<f64>() / 1e3;
        e2e_step_ns.push((run_u.wall_s - solve_s) * 1e9 / device_seconds(&summaries_u) as f64);

        let backend = steady_backend(&st.plan, clock, true);
        let shared: Arc<dyn CalibrationBackend> = backend.clone();
        let probe = TickProbe::new(clock, &tracer, Some(backend.as_ref()));
        probe.set_spans(first);
        let mut cache = CohortCache::new(&st.plan);
        let n = st.plan.len();
        let mut devices: Vec<TracedDevice> = (0..n)
            .map(|i| {
                let record = first && i < recorded(n);
                TracedDevice::build(&st.plan, i, Some(&shared), &mut cache, &tracer, record)
            })
            .collect();
        if first {
            calib_tapes = cohort_tapes(&st.plan, &tracer, st.plan.profiles().len());
        }
        let mut solves = TracedSolves {
            backend: &backend,
            clock,
            spans: first.then_some(&tracer),
            stats: &mut stats,
            sched_us: &mut sched_us,
            tapes: if first { &mut calib_tapes } else { &mut [] },
        };
        let run_t = pump_schedule(
            report,
            &backend,
            &st.plan,
            size.windows,
            first.then_some(&tracer),
            |t| {
                // A columnar loop over the devices, as `DeviceArena::run_window`.
                for dev in devices.iter_mut() {
                    probe.run_until(dev, t, &mut ledger);
                }
            },
            |t, solve_ms| solves.solve(t, solve_ms),
        );
        ratios.push(run_t.wall_s / run_u.wall_s);
        let summaries_t: Vec<DeviceSummary> = devices.iter().map(TracedDevice::summary).collect();
        let digest_t = steady_digest(report, &backend, &summaries_t);
        report.check(digest_t == digest_u, || {
            "traced fleet-steady run diverged from the untraced run".to_string()
        });
        report.digest = digest_u;
        report.check_golden("fleet-steady", opts, digest_u);
        step_tapes.extend(devices.iter_mut().filter_map(|d| d.tape.take()));
        evaluate_us.extend(&run_t.evaluate_us);
        queue_depth_max = queue_depth_max.max(run_t.queue_depth_max);
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break backend;
        }
    };
    report.attempted = ledger.steps;
    let physics = replay_physics(&step_tapes, &clock);
    let stages = replay_calibrations(&calib_tapes, &clock, &tracer);
    tick_rows(report, opts, &ledger, &physics, Some(&e2e_step_ns));
    calib_rows(report, &stats, &stages);
    let log = backend.log();
    let published: u64 = (0..backend.service.cohorts())
        .map(|c| backend.service.snapshot(c).seq)
        .sum();
    service_rows(
        report,
        Some(ServiceView {
            counters: backend.service.counters(),
            queue_depth_max,
            adopted_frac: log.adopted.len() as f64 / published.max(1) as f64,
            staleness_s: &log.staleness_s,
        }),
    );
    trace_rows(report, opts, &clock, &tracer, &ratios);
    let (snapshot_ns, adopt_ns) = backend.call_costs_ns();
    latency_rows(report, "serve.submit_us", "us", &log.submit_us);
    report.row("serve.sched_us", mean(&sched_us), "us", sched_us.len());
    report.row(
        "serve.evaluate_slo_us",
        mean(&evaluate_us),
        "us",
        evaluate_us.len(),
    );
    report.row("serve.snapshot_ns", snapshot_ns, "ns", 1);
    report.row("serve.adopt_ns", adopt_ns, "ns", 1);
}
