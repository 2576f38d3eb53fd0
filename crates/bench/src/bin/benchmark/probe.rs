//! Timing probes for the traced runs.
//!
//! The simulator is generic over its policy, trace source and telemetry
//! sink, so the benchmark times each layer from outside: [`Probed`]
//! wraps the three seams of `DeviceSim::step`, and [`ProbeBackend`]
//! forwards the `CalibrationBackend` seam to the calibration service.
//! Nothing inside the program is instrumented.
//!
//! Timed intervals are corrected for the cost of reading the clock
//! ([`Clock`]): one read is subtracted from every interval, and two from
//! a parent for each timed interval nested inside it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use capman_battery::chemistry::Class;
use capman_core::experiments::{build_pack, PolicyKind};
use capman_core::online::Calibration;
use capman_core::policy::{DecisionContext, Observation, Policy};
use capman_core::profiler::Profiler;
use capman_core::sim::DeviceSim;
use capman_core::telemetry::{CalibrationSample, LeanTelemetry, Sample, TelemetrySink};
use capman_core::SimConfig;
use capman_device::phone::PhoneProfile;
use capman_device::power::{Demand, PowerModel};
use capman_device::states::DeviceState;
use capman_fleet::{
    CalibrationBackend, CalibrationSnapshot, DeviceSpec, DeviceSummary, FleetPlan, FleetPolicy,
    SubmitOutcome,
};
use capman_obs::Tracer;
use capman_serve::{AdmissionOutcome, CalibrationService};
use capman_workload::{Segment, TraceCursor, TraceSource};

use crate::stats::mean;

/// A traced device's steps are sampled in blocks of `BLOCK_STEPS`: the
/// step at `SPANNED_AT` is recorded as spans, the `WHOLE_STEPS` from
/// `WHOLE_AT` on are timed as one batch, and of the rest every
/// `LAYER_EVERY`-th has one layer's calls timed, the layers in turn.
/// No step is both spanned and timed: span bookkeeping would inflate it.
const BLOCK_STEPS: u64 = 256;
const SPANNED_AT: u64 = 8;
const WHOLE_AT: u64 = 128;
const WHOLE_STEPS: u64 = 32;
const LAYER_EVERY: u64 = 16;
/// Per-step physics inputs recorded per replayed device.
const TAPE_STEPS: usize = 4096;

/// Nanoseconds between two instants.
pub fn ns_between(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_nanos() as f64
}

/// The measured cost of one `Instant::now()` read.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    read_ns: f64,
}

impl Clock {
    /// Measure the read cost from many empty intervals (two back-to-back
    /// reads), what a timed interval adds to the work: the mean of the
    /// middle half, which drops interrupted samples.
    pub fn calibrate() -> Self {
        let mut deltas: Vec<f64> = (0..200_000)
            .map(|_| {
                let t0 = Instant::now();
                ns_between(t0, black_box(Instant::now()))
            })
            .collect();
        deltas.sort_by(f64::total_cmp);
        let n = deltas.len();
        Clock {
            read_ns: mean(&deltas[n / 4..3 * n / 4]),
        }
    }

    /// Cost of one read pair, the overhead one timed interval adds.
    pub fn pair_ns(&self) -> f64 {
        2.0 * self.read_ns
    }

    /// Corrected duration of `t0..t1` holding `children` timed intervals.
    pub fn interval_ns(&self, t0: Instant, t1: Instant, children: u64) -> f64 {
        ns_between(t0, t1) - self.read_ns * (1 + 2 * children) as f64
    }
}

/// The layer calls of one step that the wrappers can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TraceSource::segments_in` and `demand_at`.
    Trace,
    /// `Policy::decide`, including a pooled policy's snapshot read.
    Decide,
    /// `Policy::observe`: the profiler update.
    Observe,
    /// `TelemetrySink` calls.
    Telemetry,
}

impl Layer {
    pub const ALL: [Layer; 4] = [
        Layer::Trace,
        Layer::Decide,
        Layer::Observe,
        Layer::Telemetry,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Layer::Trace => "workload.trace",
            Layer::Decide => "core.decide",
            Layer::Observe => "core.observe",
            Layer::Telemetry => "core.telemetry",
        }
    }
}

/// What the probes do during one step. A step is timed whole or has one
/// layer's calls timed, never both, so a timed interval holds no other
/// clock reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepMode {
    /// Forward only (decides are still timed to catch calibrations).
    Plain,
    /// Record the step and its layer calls as spans.
    Spanned,
    /// Time the whole `DeviceSim::step`.
    Whole,
    /// Time this layer's calls.
    Layer(Layer),
}

/// One step's inputs to the physics layers, enough to replay them.
#[derive(Debug, Clone, Copy)]
pub struct StepRec {
    /// Device state after the step's actions and battery switch.
    pub state: DeviceState,
    /// The cell the policy chose.
    pub target: Class,
    pub tec_on: bool,
    /// Hot-spot reading the step started from.
    pub hotspot_c: f64,
    /// Trace demand before thermal throttling.
    pub demand: Demand,
    /// Total pack load the simulator computed (the replay's check).
    pub power_w: f64,
}

/// One calibration's inputs and in-situ result, enough to replay it.
pub struct CalibRec {
    pub now_s: f64,
    pub profiler: Profiler,
    pub insitu: Calibration,
    /// Host time of the in-situ calibration, microseconds.
    pub insitu_us: f64,
}

/// Everything recorded for one replayed device or cohort.
pub struct Tape {
    pub trace: u64,
    pub kind: PolicyKind,
    pub config: SimConfig,
    pub model: Arc<PowerModel>,
    pub rho: f64,
    pub theta: f64,
    pub steps: Vec<StepRec>,
    pub calibs: Vec<CalibRec>,
}

/// Counts and host times over in-situ calibrations.
#[derive(Debug, Default)]
pub struct CalibStats {
    pub insitu_us: Vec<f64>,
    pub incremental: u64,
    pub fallback: u64,
    pub similarity_sweeps: u64,
    pub emd_solves: u64,
    pub cache_hits: u64,
    pub bellman_sweeps: u64,
}

impl CalibStats {
    pub fn add(&mut self, cal: &Calibration, insitu_us: f64) {
        self.insitu_us.push(insitu_us);
        if let Some(inc) = &cal.incremental {
            self.incremental += 1;
            self.fallback += u64::from(inc.full_fallback);
        }
        self.similarity_sweeps += cal.engine_run.sweeps as u64;
        self.emd_solves += cal.engine_run.emd_solves as u64;
        self.cache_hits += cal.engine_run.cache_hits as u64;
        self.bellman_sweeps += cal.bellman_sweeps as u64;
    }
}

/// Sums over the timed steps of a traced run.
#[derive(Debug, Default)]
pub struct TickLedger {
    /// Steps that reached the policy (every simulated device-second).
    pub steps: u64,
    /// Non-calibrating steps timed whole (in batches), and their summed
    /// time.
    pub whole: u64,
    pub whole_ns: f64,
    /// Per [`Layer`]: non-calibrating steps whose calls of that layer
    /// were timed, and the summed time of those calls.
    pub layer: [u64; 4],
    pub layer_ns: [f64; 4],
    /// Inline calibrations: every calibrating step is timed.
    pub calibrations: CalibStats,
}

/// A device simulated by the benchmark's own loop instead of a
/// `DeviceArena`, built from the same public constructors.
pub struct TracedDevice {
    pub spec: DeviceSpec,
    pub sim: DeviceSim,
    pub cursor: TraceCursor,
    pub policy: FleetPolicy,
    pub tel: LeanTelemetry,
    pub trace: u64,
    steps: u64,
    pub tape: Option<Tape>,
}

/// Cohort-shared phone and power model, one per cohort as the arena
/// holds them.
pub struct CohortCache(Vec<Option<(Arc<PhoneProfile>, Arc<PowerModel>)>>);

impl CohortCache {
    pub fn new(plan: &FleetPlan) -> Self {
        CohortCache(vec![None; plan.profiles().len()])
    }
}

impl TracedDevice {
    /// Device `i` of `plan`, constructed exactly as `DeviceArena::build`
    /// constructs its rows. `record` keeps a replay tape.
    pub fn build(
        plan: &FleetPlan,
        i: usize,
        backend: Option<&Arc<dyn CalibrationBackend>>,
        cache: &mut CohortCache,
        tracer: &Tracer,
        record: bool,
    ) -> Self {
        let spec = plan.spec(i);
        let profile = &plan.profiles()[spec.cohort];
        let (phone, model) = cache.0[spec.cohort]
            .get_or_insert_with(|| {
                (
                    Arc::new(profile.phone.clone()),
                    Arc::new(profile.phone.power_model()),
                )
            })
            .clone();
        let config = profile.device_config(&spec);
        let trace = tracer.mint_trace();
        TracedDevice {
            sim: DeviceSim::new(phone, Arc::clone(&model), build_pack(profile.kind), config),
            cursor: TraceCursor::new(
                profile.workload,
                profile.config.max_horizon_s,
                spec.trace_seed,
                spec.perturbation,
            ),
            policy: FleetPolicy::for_device(profile, &spec, backend, || profile.trace(&spec)),
            tel: LeanTelemetry::default(),
            trace,
            steps: 0,
            tape: record.then(|| Tape {
                trace,
                kind: profile.kind,
                config,
                model,
                rho: profile.calibrator.rho,
                theta: profile.calibrator.theta,
                steps: Vec::with_capacity(TAPE_STEPS),
                calibs: Vec::new(),
            }),
            spec,
        }
    }

    /// The device's summary row, as `DeviceArena::summary` reports it.
    pub fn summary(&self) -> DeviceSummary {
        DeviceSummary {
            device_id: self.spec.device_id,
            cohort: self.spec.cohort,
            service_time_s: self.sim.time_s(),
            work_served: self.sim.work_served(),
            energy_delivered_j: self.sim.energy_delivered_j(),
            max_hotspot_c: self.sim.peak_hotspot_c(),
            switches: self.sim.switches(),
            ticks: self.tel.samples,
            recalibrations: self.policy.recalibrations(),
            max_staleness_s: self.tel.max_staleness_s,
        }
    }

    pub fn is_done(&self) -> bool {
        self.sim.end_reason().is_some()
    }
}

/// Shared per-step state of the three seam wrappers. Single-threaded:
/// one probe drives one device loop.
pub struct TickProbe<'t> {
    clock: Clock,
    tracer: &'t Tracer,
    backend: Option<&'t ProbeBackend>,
    /// Record sampled steps as spans (off after the first traced pass
    /// keeps the span buffer bounded).
    spans: Cell<bool>,
    mode: Cell<StepMode>,
    trace: Cell<u64>,
    /// Time of the timed layer's calls this step.
    layer_ns: Cell<f64>,
    decided: Cell<bool>,
    /// The decide ran an inline calibration; `decide_ns` is its time.
    calibrated: Cell<bool>,
    decide_ns: Cell<f64>,
    /// The device keeps a tape: clone its calibration inputs.
    taping: Cell<bool>,
    /// The device's step tape still has room.
    recording: Cell<bool>,
    steps: RefCell<Vec<StepRec>>,
    calib: RefCell<Option<(Profiler, Calibration)>>,
}

impl<'t> TickProbe<'t> {
    /// `backend`, when the devices calibrate through a [`ProbeBackend`],
    /// has its per-call timing paused during timed steps.
    pub fn new(clock: Clock, tracer: &'t Tracer, backend: Option<&'t ProbeBackend>) -> Self {
        TickProbe {
            clock,
            tracer,
            backend,
            spans: Cell::new(true),
            mode: Cell::new(StepMode::Plain),
            trace: Cell::new(0),
            layer_ns: Cell::new(0.0),
            decided: Cell::new(false),
            calibrated: Cell::new(false),
            decide_ns: Cell::new(0.0),
            taping: Cell::new(false),
            recording: Cell::new(false),
            steps: RefCell::new(Vec::new()),
            calib: RefCell::new(None),
        }
    }

    pub fn set_spans(&self, on: bool) {
        self.spans.set(on);
    }

    /// Backend intervals (submissions) opened so far.
    fn nested(&self) -> u64 {
        self.backend.map_or(0, ProbeBackend::intervals)
    }

    /// Run one call of `layer` under the step's mode.
    fn around<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        match self.mode.get() {
            StepMode::Layer(timed) if timed == layer => {
                let n0 = self.nested();
                let t0 = Instant::now();
                let r = f();
                let t1 = Instant::now();
                let ns = self.clock.interval_ns(t0, t1, self.nested() - n0);
                self.layer_ns.set(self.layer_ns.get() + ns);
                r
            }
            StepMode::Spanned => {
                let _span = self.tracer.span_in(layer.label(), 0, self.trace.get());
                f()
            }
            _ => f(),
        }
    }

    /// Advance `dev` until it ends or reaches `t_end`, as
    /// `DeviceSim::run_until` does.
    pub fn run_until(&self, dev: &mut TracedDevice, t_end: f64, ledger: &mut TickLedger) {
        while !dev.is_done() && dev.sim.time_s() < t_end {
            if dev.tape.is_none() && dev.steps % BLOCK_STEPS == WHOLE_AT {
                self.whole_batch(dev, t_end, ledger);
            } else {
                self.step(dev, ledger);
            }
        }
    }

    /// Reset the per-step state for a step in `mode`.
    fn prepare(&self, dev: &TracedDevice, mode: StepMode) {
        self.mode.set(mode);
        if let Some(backend) = self.backend {
            backend.pause(!matches!(mode, StepMode::Plain | StepMode::Spanned));
        }
        self.trace.set(dev.trace);
        self.layer_ns.set(0.0);
        self.decided.set(false);
        self.calibrated.set(false);
        self.taping.set(dev.tape.is_some());
        self.recording.set(
            dev.tape
                .as_ref()
                .is_some_and(|t| t.steps.len() < TAPE_STEPS),
        );
    }

    /// `DeviceSim::step` through the wrapped seams.
    fn sim_step(&self, dev: &mut TracedDevice) {
        dev.steps += 1;
        dev.sim.step(
            &mut Probed {
                inner: &mut dev.policy,
                probe: self,
            },
            &mut Probed {
                inner: &mut dev.cursor,
                probe: self,
            },
            &mut Probed {
                inner: &mut dev.tel,
                probe: self,
            },
        );
        if let Some(tape) = dev.tape.as_mut() {
            tape.steps.append(&mut self.steps.borrow_mut());
        }
    }

    /// Account the inline calibration the last decide ran, timed `ns`.
    fn calibration(&self, dev: &mut TracedDevice, ledger: &mut TickLedger, ns: f64) {
        let FleetPolicy::Capman(p) = &dev.policy else {
            unreachable!("only inline CAPMAN calibrates on the decide")
        };
        let cal = p
            .calibrator()
            .calibration()
            .expect("a calibration just ran");
        ledger.calibrations.add(cal, ns / 1e3);
        if let (Some(tape), Some((profiler, insitu))) =
            (dev.tape.as_mut(), self.calib.borrow_mut().take())
        {
            tape.calibs.push(CalibRec {
                now_s: dev.sim.time_s(),
                profiler,
                insitu,
                insitu_us: ns / 1e3,
            });
        }
    }

    /// One step, spanned, layer-timed or plain by its index.
    fn step(&self, dev: &mut TracedDevice, ledger: &mut TickLedger) {
        let k = dev.steps;
        // Recorded devices are never timed: recording sits inside the step.
        let mode = if self.spans.get() && k % BLOCK_STEPS == SPANNED_AT {
            StepMode::Spanned
        } else if dev.tape.is_none() && k.is_multiple_of(LAYER_EVERY) {
            StepMode::Layer(Layer::ALL[(k / LAYER_EVERY) as usize % Layer::ALL.len()])
        } else {
            StepMode::Plain
        };
        self.prepare(dev, mode);
        let span = (mode == StepMode::Spanned)
            .then(|| self.tracer.span_in("tick.step", k, dev.trace))
            .flatten();
        self.sim_step(dev);
        drop(span);
        if !self.decided.get() {
            // The cycle had already ended: no layer ran.
            return;
        }
        ledger.steps += 1;
        if self.calibrated.get() {
            self.calibration(dev, ledger, self.decide_ns.get());
        } else if let StepMode::Layer(layer) = mode {
            ledger.layer[layer as usize] += 1;
            ledger.layer_ns[layer as usize] += self.layer_ns.get();
        }
    }

    /// Up to [`WHOLE_STEPS`] consecutive steps timed as one interval, so
    /// the clock read and its fence are spread over many steps. A batch
    /// holding a calibration is charged to the calibration instead,
    /// less the batch's other steps at the mean step time so far.
    fn whole_batch(&self, dev: &mut TracedDevice, t_end: f64, ledger: &mut TickLedger) {
        self.prepare(dev, StepMode::Whole);
        let mut steps = 0;
        let mut calibrated = false;
        let n0 = self.nested();
        let t0 = Instant::now();
        while steps < WHOLE_STEPS && !dev.is_done() && dev.sim.time_s() < t_end {
            self.decided.set(false);
            self.sim_step(dev);
            steps += u64::from(self.decided.get());
            calibrated |= self.calibrated.get();
        }
        let ns = self
            .clock
            .interval_ns(t0, Instant::now(), self.nested() - n0);
        ledger.steps += steps;
        if calibrated {
            let others = steps.saturating_sub(1) as f64;
            let mean_step = ledger.whole_ns / ledger.whole.max(1) as f64;
            self.calibration(dev, ledger, ns - others * mean_step);
        } else if steps > 0 {
            ledger.whole += steps;
            ledger.whole_ns += ns;
        }
    }
}

/// A seam wrapper: forwards to `inner`, timing or spanning the call as
/// the probe's step mode says.
pub struct Probed<'a, 't, X> {
    inner: &'a mut X,
    probe: &'a TickProbe<'t>,
}

impl Policy for Probed<'_, '_, FleetPolicy> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, obs: &Observation) {
        let inner = &mut *self.inner;
        self.probe.around(Layer::Observe, || inner.observe(obs));
        if self.probe.recording.get() {
            let mut steps = self.probe.steps.borrow_mut();
            let rec = steps.last_mut().expect("decide recorded the step");
            rec.state = obs.new_state;
            rec.power_w = obs.power_w;
        }
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Class {
        let probe = self.probe;
        let mode = probe.mode.get();
        let before = self.inner.recalibrations();
        let span = (mode == StepMode::Spanned)
            .then(|| {
                probe
                    .tracer
                    .span_in(Layer::Decide.label(), 0, probe.trace.get())
            })
            .flatten();
        // Outside whole-step timing every decide is timed, so every
        // inline calibration is; a whole timed step times its own.
        let target = if mode == StepMode::Whole {
            self.inner.decide(ctx)
        } else {
            let n0 = probe.nested();
            let t0 = Instant::now();
            let target = self.inner.decide(ctx);
            let t1 = Instant::now();
            probe
                .decide_ns
                .set(probe.clock.interval_ns(t0, t1, probe.nested() - n0));
            target
        };
        drop(span);
        probe.decided.set(true);
        if let FleetPolicy::Capman(p) = &*self.inner {
            if p.recalibrations() != before {
                probe.calibrated.set(true);
                if probe.taping.get() {
                    // The profiler is cloned before the step's observe
                    // mutates it; the decide itself never does.
                    let cal = p.calibrator().calibration().expect("calibrated").clone();
                    *probe.calib.borrow_mut() = Some((p.profiler().clone(), cal));
                }
            }
        }
        if mode == StepMode::Layer(Layer::Decide) {
            probe.layer_ns.set(probe.decide_ns.get());
        }
        if probe.recording.get() {
            probe.steps.borrow_mut().push(StepRec {
                state: ctx.state,
                target,
                tec_on: ctx.tec_on,
                hotspot_c: ctx.hotspot_c,
                demand: Demand::default(),
                power_w: 0.0,
            });
        }
        target
    }

    fn overhead_us(&self) -> f64 {
        self.inner.overhead_us()
    }

    fn recalibrations(&self) -> u64 {
        self.inner.recalibrations()
    }

    fn drain_calibrations(&mut self) -> Vec<CalibrationSample> {
        self.inner.drain_calibrations()
    }
}

impl TraceSource for Probed<'_, '_, TraceCursor> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn segments_in(&mut self, t0: f64, t1: f64) -> &[Segment] {
        let inner = &mut *self.inner;
        self.probe
            .around(Layer::Trace, move || inner.segments_in(t0, t1))
    }

    fn demand_at(&mut self, t: f64) -> Demand {
        let inner = &mut *self.inner;
        let demand = self.probe.around(Layer::Trace, || inner.demand_at(t));
        if self.probe.recording.get() {
            if let Some(rec) = self.probe.steps.borrow_mut().last_mut() {
                rec.demand = demand;
            }
        }
        demand
    }
}

impl TelemetrySink for Probed<'_, '_, LeanTelemetry> {
    fn record_sample(&mut self, sample: Sample) {
        let inner = &mut *self.inner;
        self.probe
            .around(Layer::Telemetry, || inner.record_sample(sample));
    }

    fn record_calibration(&mut self, sample: CalibrationSample) {
        let inner = &mut *self.inner;
        self.probe
            .around(Layer::Telemetry, || inner.record_calibration(sample));
    }
}

/// What the forwarding backend saw.
#[derive(Debug, Default)]
pub struct BackendLog {
    /// Host time of every submission, microseconds.
    pub submit_us: Vec<f64>,
    /// `now − requested_at` at every device adoption, simulated seconds.
    pub staleness_s: Vec<f64>,
    /// Submissions per cohort.
    pub submitted: Vec<u64>,
    /// Distinct `(cohort, seq)` publications some device adopted.
    pub adopted: BTreeSet<(usize, u64)>,
    /// Per cohort, the payload the next solve will run (the latest
    /// admitted or replacing submission); kept only when recording.
    pub pending: Vec<Option<(f64, Profiler)>>,
}

/// A forwarding `CalibrationBackend` in front of the calibration
/// service. Submissions and adoptions are logged in every run; the
/// per-call snapshot and adopt costs are timed only when `timed`.
pub struct ProbeBackend {
    pub service: Arc<CalibrationService>,
    clock: Clock,
    timed: bool,
    /// Cohorts below this index keep their pending payloads.
    record_cohorts: usize,
    pub log: Mutex<BackendLog>,
    intervals: AtomicU64,
    /// Set while a timed step runs: its intervals must hold no others.
    paused: AtomicBool,
    snapshot_ns: AtomicU64,
    snapshots: AtomicU64,
    adopt_ns: AtomicU64,
    adopts: AtomicU64,
}

impl ProbeBackend {
    pub fn new(
        service: Arc<CalibrationService>,
        clock: Clock,
        timed: bool,
        record_cohorts: usize,
    ) -> Self {
        let cohorts = service.cohorts();
        ProbeBackend {
            service,
            clock,
            timed,
            record_cohorts,
            log: Mutex::new(BackendLog {
                pending: (0..cohorts).map(|_| None).collect(),
                submitted: vec![0; cohorts],
                ..BackendLog::default()
            }),
            intervals: AtomicU64::new(0),
            paused: AtomicBool::new(false),
            snapshot_ns: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            adopt_ns: AtomicU64::new(0),
            adopts: AtomicU64::new(0),
        }
    }

    /// Timed intervals opened so far (nested inside a caller's interval).
    pub fn intervals(&self) -> u64 {
        self.intervals.load(Ordering::Relaxed)
    }

    /// Mean corrected cost of `snapshot()` and of `adopt()`, ns.
    pub fn call_costs_ns(&self) -> (f64, f64) {
        let mean = |sum: &AtomicU64, n: &AtomicU64| {
            let n = n.load(Ordering::Relaxed);
            if n == 0 {
                0.0
            } else {
                sum.load(Ordering::Relaxed) as f64 / n as f64 - self.clock.read_ns
            }
        };
        (
            mean(&self.snapshot_ns, &self.snapshots),
            mean(&self.adopt_ns, &self.adopts),
        )
    }

    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    fn time<R>(&self, sum: &AtomicU64, n: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if !self.timed || self.paused.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        sum.fetch_add(ns, Ordering::Relaxed);
        n.fetch_add(1, Ordering::Relaxed);
        self.intervals.fetch_add(1, Ordering::Relaxed);
        r
    }

    pub fn log(&self) -> std::sync::MutexGuard<'_, BackendLog> {
        self.log.lock().expect("backend log poisoned")
    }
}

impl CalibrationBackend for ProbeBackend {
    fn submit(
        &self,
        cohort: usize,
        now_s: f64,
        profiler: &Profiler,
        compute_speed: f64,
    ) -> SubmitOutcome {
        let t0 = Instant::now();
        let outcome = self
            .service
            .submit_request(cohort, now_s, profiler, compute_speed);
        let t1 = Instant::now();
        self.intervals.fetch_add(1, Ordering::Relaxed);
        let mut log = self.log();
        log.submitted[cohort] += 1;
        log.submit_us.push(self.clock.interval_ns(t0, t1, 0) / 1e3);
        let payload = matches!(
            outcome,
            AdmissionOutcome::Admitted | AdmissionOutcome::Replaced
        );
        if payload && cohort < self.record_cohorts {
            log.pending[cohort] = Some((now_s, profiler.clone()));
        }
        // The service's own projection of its five outcomes onto three.
        match outcome {
            AdmissionOutcome::Admitted => SubmitOutcome::Enqueued,
            AdmissionOutcome::Coalesced | AdmissionOutcome::Replaced => SubmitOutcome::Coalesced,
            AdmissionOutcome::Shed | AdmissionOutcome::Backpressure => SubmitOutcome::Dropped,
        }
    }

    fn snapshot(&self, cohort: usize) -> Arc<CalibrationSnapshot> {
        self.time(&self.snapshot_ns, &self.snapshots, || {
            self.service.snapshot(cohort)
        })
    }

    fn cohorts(&self) -> usize {
        self.service.cohorts()
    }

    fn adopt(&self, cohort: usize, snapshot: &CalibrationSnapshot, now_s: f64) {
        self.time(&self.adopt_ns, &self.adopts, || {
            self.service.adopt(cohort, snapshot, now_s)
        });
        let mut log = self.log();
        log.staleness_s.push(now_s - snapshot.requested_at_s);
        log.adopted.insert((cohort, snapshot.seq));
    }
}
