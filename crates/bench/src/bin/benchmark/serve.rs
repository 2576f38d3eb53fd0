//! The `serve-overload` workload: a stepped `CalibrationService` with 256
//! tenant cohorts, driven on an open-loop schedule in simulated time.
//!
//! Each cohort submits four times per 20-minute window, every eighth of
//! the window's 32 pumps, the cohorts staggered over the first eight.
//! Every cohort's first submission of a window is admitted, so the
//! window opens with a burst of 256 admissions that the service, at
//! most nine solves per pump (288 per window), works off over the
//! window: requests queue, later submissions replace pending payloads or
//! are shed on quota, and the lanes decide the order.
//! Payloads are profilers captured from simulated CAPMAN devices during
//! set-up; each cohort walks a seed-shuffled order of them, so
//! consecutive solves of a cohort never share a profiler lineage, which
//! keeps every solve on the calibrator's rebuild path. No device ticks
//! during the timed phase.

use std::collections::VecDeque;
use std::time::Instant;

use capman_core::profiler::Profiler;
use capman_core::CalibratorSpec;
use capman_fleet::{CalibrationBackend, FleetPlan, FleetPolicy, FleetProfile};
use capman_obs::Tracer;
use capman_serve::{AdmissionOutcome, CalibrationService};
use capman_workload::WorkloadKind;

use crate::fleet::{
    check_identities, cohort_tapes, digest_counters, profile_seed, record_solve, recorded,
    stepped_service, TRACE_RING, WINDOW_S,
};
use crate::ledger::{calib_rows, service_rows, tick_rows, trace_rows, ServiceView};
use crate::probe::{CalibStats, Clock, CohortCache, Tape, TickLedger, TickProbe, TracedDevice};
use crate::replay::{replay_calibrations, replay_physics};
use crate::stats::{mean, Digest};
use crate::{e2e_rows, latency_rows, run_rounds, Opts, Report, RoundOut};

const PUMPS_PER_WINDOW: u32 = 32;
/// Each cohort submits on every `SUBMIT_STRIDE`-th pump: four per window.
const SUBMIT_STRIDE: usize = 8;
/// Simulated seconds of device use the payload profilers are learnt from.
const CAPTURE_S: f64 = 3600.0;
/// Seed of the capture devices. The payload corpus is the same for every
/// `--seed`, which shuffles the order cohorts walk it in instead: a
/// solve's cost depends on its profiler, and a corpus of 128 drawn
/// afresh per seed moved the mean solve cost by several percent.
const CORPUS_SEED: u64 = 1;

struct ServeSize {
    cohorts: usize,
    windows: u32,
    capture_per_cohort: usize,
    solves_per_pump: usize,
}

fn serve_size(smoke: bool) -> ServeSize {
    if smoke {
        ServeSize {
            cohorts: 16,
            windows: 2,
            capture_per_cohort: 2,
            solves_per_pump: 1,
        }
    } else {
        ServeSize {
            cohorts: 256,
            windows: 25,
            capture_per_cohort: 32,
            solves_per_pump: 9,
        }
    }
}

/// The devices whose profilers become the request payloads.
fn capture_plan(per_cohort: usize) -> FleetPlan {
    let workloads = [
        WorkloadKind::Video,
        WorkloadKind::Pcmark,
        WorkloadKind::EtaStatic { eta: 50 },
        WorkloadKind::Geekbench,
    ];
    let profiles = workloads
        .iter()
        .zip(61..)
        .map(|(&workload, salt)| {
            let mut p = FleetProfile::capman(
                format!("{workload:?}"),
                workload,
                profile_seed(CORPUS_SEED, salt),
            );
            p.config.max_horizon_s = CAPTURE_S;
            p
        })
        .collect();
    FleetPlan::new(profiles, per_cohort)
}

fn profiler_of(dev: &TracedDevice) -> Profiler {
    match &dev.policy {
        FleetPolicy::Capman(p) => p.profiler().clone(),
        _ => unreachable!("capture devices run inline CAPMAN"),
    }
}

/// Simulate the capture devices and keep their profilers. With a probe,
/// the device loop is traced into its ledger, and with `tapes` the first
/// devices keep replay tapes.
fn capture(
    plan: &FleetPlan,
    tracer: &Tracer,
    mut probe: Option<(&TickProbe<'_>, &mut TickLedger)>,
    mut tapes: Option<&mut Vec<Tape>>,
) -> Vec<Profiler> {
    let mut cache = CohortCache::new(plan);
    let record = if tapes.is_some() {
        recorded(plan.len())
    } else {
        0
    };
    let mut profilers = Vec::with_capacity(plan.len());
    for i in 0..plan.len() {
        let mut dev = TracedDevice::build(plan, i, None, &mut cache, tracer, i < record);
        match probe.as_mut() {
            None => {
                dev.sim
                    .run_until(&mut dev.policy, &mut dev.cursor, &mut dev.tel, CAPTURE_S);
            }
            Some((probe, ledger)) => probe.run_until(&mut dev, CAPTURE_S, ledger),
        }
        profilers.push(profiler_of(&dev));
        if let (Some(tapes), Some(tape)) = (tapes.as_mut(), dev.tape.take()) {
            tapes.push(tape);
        }
    }
    profilers
}

/// The traced-only side of a schedule pass: where its per-call timings
/// and the recorded cohorts' solves go.
struct ServeProbe<'a> {
    /// Where spans go; `None` after the first traced pass keeps the span
    /// buffer bounded.
    spans: Option<&'a Tracer>,
    /// Per recorded cohort, the payload its next solve will run.
    pending: Vec<Option<(f64, Profiler)>>,
    cohort_trace: Vec<u64>,
    stats: &'a mut CalibStats,
    sched_us: &'a mut Vec<f64>,
    snapshot_ns: &'a mut Vec<f64>,
    adopt_ns: &'a mut Vec<f64>,
    tapes: &'a mut [Tape],
}

/// What one pass of the schedule produced.
#[derive(Default)]
struct ScheduleRun {
    wall_s: f64,
    solves: u64,
    batch_ms: Vec<f64>,
    submit_us: Vec<f64>,
    solve_ms: Vec<f64>,
    evaluate_us: Vec<f64>,
    staleness_s: Vec<f64>,
    queue_depth_max: usize,
    digest: u64,
}

/// Drive the service through the open-loop schedule. The harness is the
/// tenant: at the start of each pump it reads every cohort's snapshot
/// and adopts new publications, then submits, then lets the service
/// solve.
fn schedule(
    report: &mut Report,
    service: &CalibrationService,
    profilers: &[Profiler],
    seed: u64,
    size: &ServeSize,
    clock: &Clock,
    mut traced: Option<&mut ServeProbe<'_>>,
) -> ScheduleRun {
    let cohorts = size.cohorts;
    let mut run = ScheduleRun::default();
    let mut seen = vec![0u64; cohorts];
    let mut admitted_at: Vec<VecDeque<f64>> = vec![VecDeque::new(); cohorts];
    let mut submissions = vec![0usize; cohorts];
    // The seed shuffles the corpus; cohort c walks it from position c,
    // one step per submission. Every position is some cohort's start,
    // so whatever the shuffle, solves spread evenly over the corpus.
    let mut order: Vec<usize> = (0..profilers.len()).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut starved = Vec::new();
    let t_run = Instant::now();
    let pump_s = WINDOW_S / f64::from(PUMPS_PER_WINDOW);
    // The pump after the last window only observes.
    for pump in 0..=size.windows * PUMPS_PER_WINDOW {
        let t = pump_s * f64::from(pump);
        let last = pump == size.windows * PUMPS_PER_WINDOW;
        let _pump_span = traced
            .as_ref()
            .and_then(|p| p.spans?.span("serve.pump", u64::from(pump)));
        let t0 = Instant::now();
        for c in 0..cohorts {
            let snap = match traced.as_deref_mut() {
                None => service.snapshot(c),
                Some(p) => {
                    let s0 = Instant::now();
                    let snap = service.snapshot(c);
                    p.snapshot_ns.push(clock.interval_ns(s0, Instant::now(), 0));
                    snap
                }
            };
            if snap.seq > seen[c] {
                seen[c] = snap.seq;
                let since = admitted_at[c]
                    .pop_front()
                    .expect("a publication follows an admission");
                run.staleness_s.push(t - since);
                match traced.as_deref_mut() {
                    None => service.adopt(c, &snap, t),
                    Some(p) => {
                        let a0 = Instant::now();
                        service.adopt(c, &snap, t);
                        p.adopt_ns.push(clock.interval_ns(a0, Instant::now(), 0));
                    }
                }
            }
        }
        if last {
            break;
        }
        let slot = pump as usize % SUBMIT_STRIDE;
        for c in ((SUBMIT_STRIDE - slot) % SUBMIT_STRIDE..cohorts).step_by(SUBMIT_STRIDE) {
            let profiler = &profilers[order[(c + submissions[c]) % order.len()]];
            submissions[c] += 1;
            let _span = traced.as_ref().and_then(|p| {
                p.spans?
                    .span_in("serve.submit", c as u64, p.cohort_trace[c])
            });
            let s0 = Instant::now();
            let outcome = service.submit_request(c, t, profiler, 1.0);
            run.submit_us
                .push(clock.interval_ns(s0, Instant::now(), 0) / 1e3);
            if outcome == AdmissionOutcome::Admitted {
                admitted_at[c].push_back(t);
            }
            if let Some(p) = traced.as_deref_mut() {
                let payload = matches!(
                    outcome,
                    AdmissionOutcome::Admitted | AdmissionOutcome::Replaced
                );
                if payload && c < p.pending.len() {
                    p.pending[c] = Some((t, profiler.clone()));
                }
            }
        }
        run.queue_depth_max = run.queue_depth_max.max(service.queue_depth());
        for _ in 0..size.solves_per_pump {
            let before: Option<Vec<u64>> = traced
                .as_ref()
                .map(|_| (0..cohorts).map(|c| service.snapshot(c).seq).collect());
            let _span = traced.as_ref().and_then(|p| p.spans?.span("serve.step", 0));
            let s0 = Instant::now();
            let ran = service.step(t);
            let us = clock.interval_ns(s0, Instant::now(), 0) / 1e3;
            if !ran {
                break;
            }
            run.solves += 1;
            run.solve_ms.push(us / 1e3);
            if let (Some(p), Some(before)) = (traced.as_deref_mut(), before) {
                record_solve(
                    service,
                    &before,
                    us,
                    &mut p.pending,
                    p.stats,
                    p.sched_us,
                    p.tapes,
                );
            }
        }
        run.batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if (pump + 1) % PUMPS_PER_WINDOW == 0 {
            let _span = traced
                .as_ref()
                .and_then(|p| p.spans?.span("serve.evaluate_slo", 0));
            let e0 = Instant::now();
            service.evaluate_slo();
            run.evaluate_us
                .push(clock.interval_ns(e0, Instant::now(), 0) / 1e3);
            // No tenant waits a whole window for its calibration.
            let window = pump / PUMPS_PER_WINDOW;
            starved.extend(
                (0..cohorts)
                    .filter(|&c| admitted_at[c].front().is_some_and(|&a| t - a >= WINDOW_S))
                    .map(|c| (window, c)),
            );
        }
    }
    run.wall_s = t_run.elapsed().as_secs_f64();

    let counters = service.counters();
    check_identities(report, &counters, service.queue_depth());
    report.check(starved.is_empty(), || {
        format!("starved (window, cohort): {starved:?}")
    });
    report.check(
        counters.backpressure == 0 && counters.coalesced == 0,
        || format!("unexpected refusals: {counters:?}"),
    );
    let mut d = Digest::new();
    digest_counters(&mut d, &counters);
    for (c, &seq) in seen.iter().enumerate() {
        d.u64(seq);
        // The last published calibration: its solve's input and result.
        let snap = service.snapshot(c);
        d.f64(snap.requested_at_s);
        if let Some(cal) = &snap.calibration {
            for &v in &cal.solution.values {
                d.f64(v);
            }
            for a in &cal.solution.policy {
                d.u64(a.map_or(u64::MAX, |a| a as u64));
            }
        }
    }
    for &s in &run.staleness_s {
        d.f64(s);
    }
    d.u64(u64::from(service.mode() as u8));
    run.digest = d.finish();
    run
}

/// The splitmix64 finaliser: a well-mixed 64-bit hash.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn new_service(size: &ServeSize) -> CalibrationService {
    stepped_service(&vec![CalibratorSpec::paper(); size.cohorts], size.cohorts)
}

pub fn overload_e2e(opts: &Opts, clock: Clock, report: &mut Report) {
    let size = serve_size(opts.smoke);
    let plan = capture_plan(size.capture_per_cohort);
    let tracer = Tracer::new(1);
    let mut submit_us = Vec::new();
    let mut solve_ms = Vec::new();
    let mut staleness_s = Vec::new();
    let mut shed_fraction = 0.0;
    let rounds = run_rounds(
        opts.seconds,
        || (capture(&plan, &tracer, None, None), new_service(&size)),
        |(profilers, service), batch_ms| {
            let run = schedule(report, &service, &profilers, opts.seed, &size, &clock, None);
            // Every round runs the same input: report the last round's
            // samples rather than let them pile up in memory.
            batch_ms.extend(&run.batch_ms);
            submit_us = run.submit_us;
            solve_ms = run.solve_ms;
            staleness_s = run.staleness_s;
            shed_fraction = service.counters().shed_fraction();
            RoundOut {
                ops: run.solves,
                wall_s: run.wall_s,
                digest: run.digest,
            }
        },
    );
    e2e_rows(report, "serve-overload", opts, &rounds);
    latency_rows(report, "submit_us", "us", &submit_us);
    latency_rows(report, "solve_ms", "ms", &solve_ms);
    latency_rows(report, "staleness", "sim_s", &staleness_s);
    report.row("shed_fraction", shed_fraction, "ratio", 1);
}

pub fn overload_traced(opts: &Opts, clock: Clock, report: &mut Report) {
    let size = serve_size(opts.smoke);
    let plan = capture_plan(size.capture_per_cohort);
    let tracer = Tracer::new(TRACE_RING);
    let probe = TickProbe::new(clock, &tracer, None);
    let mut ledger = TickLedger::default();
    let mut step_tapes = Vec::new();
    let mut stats = CalibStats::default();
    let mut sched_us = Vec::new();
    let mut snapshot_ns = Vec::new();
    let mut adopt_ns = Vec::new();
    let mut evaluate_us = Vec::new();
    let mut calib_tapes = Vec::new();
    let mut ratios = Vec::new();
    let started = Instant::now();
    let (counters, run) = loop {
        let first = ratios.is_empty();
        let profilers = capture(&plan, &tracer, None, None);
        let run_u = schedule(
            report,
            &new_service(&size),
            &profilers,
            opts.seed,
            &size,
            &clock,
            None,
        );

        // The traced pass: the capture's device loop through the probes
        // (the tick rows), then the schedule with per-call timing. The
        // first pass also records replay tapes.
        probe.set_spans(first);
        let profilers = capture(
            &plan,
            &tracer,
            Some((&probe, &mut ledger)),
            first.then_some(&mut step_tapes),
        );
        let service = new_service(&size);
        let record = if first { recorded(2 * size.cohorts) } else { 0 };
        if first {
            calib_tapes = cohort_tapes(&plan, &tracer, record);
        }
        let mut p = ServeProbe {
            spans: first.then_some(&tracer),
            pending: vec![None; record],
            cohort_trace: (0..size.cohorts).map(|_| tracer.mint_trace()).collect(),
            stats: &mut stats,
            sched_us: &mut sched_us,
            snapshot_ns: &mut snapshot_ns,
            adopt_ns: &mut adopt_ns,
            tapes: if first { &mut calib_tapes } else { &mut [] },
        };
        let run_t = schedule(
            report,
            &service,
            &profilers,
            opts.seed,
            &size,
            &clock,
            Some(&mut p),
        );
        report.check(run_t.digest == run_u.digest, || {
            "traced serve-overload run diverged from the untraced run".to_string()
        });
        report.digest = run_u.digest;
        report.check_golden("serve-overload", opts, run_u.digest);
        ratios.push(run_t.wall_s / run_u.wall_s);
        evaluate_us.extend(&run_t.evaluate_us);
        report.attempted += run_t.solves;
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break (service.counters(), run_t);
        }
    };
    let physics = replay_physics(&step_tapes, &clock);
    let stages = replay_calibrations(&calib_tapes, &clock, &tracer);
    tick_rows(report, opts, &ledger, &physics, None);
    calib_rows(report, &stats, &stages);
    service_rows(
        report,
        Some(ServiceView {
            counters,
            queue_depth_max: run.queue_depth_max,
            adopted_frac: 1.0,
            staleness_s: &run.staleness_s,
        }),
    );
    trace_rows(report, opts, &clock, &tracer, &ratios);
    latency_rows(report, "serve.submit_us", "us", &run.submit_us);
    report.row("serve.sched_us", mean(&sched_us), "us", sched_us.len());
    report.row(
        "serve.evaluate_slo_us",
        mean(&evaluate_us),
        "us",
        evaluate_us.len(),
    );
    report.row(
        "serve.snapshot_ns",
        mean(&snapshot_ns),
        "ns",
        snapshot_ns.len(),
    );
    report.row("serve.adopt_ns", mean(&adopt_ns), "ns", adopt_ns.len());
}
