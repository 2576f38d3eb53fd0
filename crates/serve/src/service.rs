//! The resident calibration service.
//!
//! [`CalibrationService`] is the workspace's one background calibration
//! backend. It implements [`CalibrationBackend`], so a
//! `PooledCapmanPolicy` (and hence a whole `DeviceArena` fleet) drives
//! it without noticing. It is a long-lived multi-tenant broker:
//!
//! * **Admission** (see [`crate::admission`]): every cohort owns at
//!   most one pending slot, per-window quotas meter it, the pending
//!   total is bounded, and overload replaces payloads in place instead
//!   of growing a queue.
//! * **Scheduling** (see [`crate::lanes`]): the next solve goes to the
//!   request with the hottest effective lane — stalest published
//!   calibration, promoted by skip-aging — with ties broken by skips,
//!   then staleness, then cohort index. Passed-over requests age.
//! * **SLO enforcement** (see [`crate::slo`]): [`evaluate_slo`]
//!   (CalibrationService::evaluate_slo) judges the service's own
//!   registry snapshot and flips the mode; the mode scales the
//!   admission quota on the next submissions.
//!
//! # Execution modes
//!
//! With `workers == 0` the service is **manually stepped**
//! ([`step`](CalibrationService::step) /
//! [`run_pending`](CalibrationService::run_pending)): fully
//! deterministic, the mode the fairness proptests and the soak harness
//! use. With `workers > 0` background threads pull picks from the same
//! scheduler under a condvar, and shutdown is drain-on-drop: started
//! solves publish before the join, admitted-but-unstarted requests are
//! counted `abandoned`.
//!
//! [`ServiceConfig::unmetered`] is the configuration for callers that
//! want every request solved rather than rationed: a pending slot for
//! every cohort and a quota that never runs out, so nothing is shed.
//!
//! # Counter identities
//!
//! Two identities hold at every quiescent point and are pinned by
//! tests, including across shutdown races:
//!
//! ```text
//! submitted == admitted + coalesced + replaced + shed + backpressure
//! admitted  == completed + pending + abandoned
//! ```
//!
//! (`pending` is 0 after shutdown, so post-shutdown the second reads
//! `admitted == completed + abandoned`.)

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use arc_swap::ArcSwap;
use capman_core::online::{Calibrator, CalibratorSpec};
use capman_core::profiler::Profiler;
use capman_fleet::{CalibrationBackend, CalibrationSnapshot, SnapshotTrace, SubmitOutcome};
use capman_obs::{CompletedTrace, Counter, FlightRecorder, Gauge, Histogram, Registry, Tracer};

use crate::admission::{effective_quota, AdmissionConfig, AdmissionOutcome, CohortLedger};
use crate::lanes::{self, Lane, LaneConfig};
use crate::slo::{ServiceMode, SloConfig, SloMonitor, SloVerdict};

/// Full service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Admission-layer sizing and quotas.
    pub admission: AdmissionConfig,
    /// Lane thresholds and aging.
    pub lanes: LaneConfig,
    /// SLO objectives and enforcement knobs.
    pub slo: SloConfig,
    /// Background solver threads. 0 = manually stepped (deterministic).
    pub workers: usize,
    /// Span-ring capacity of the service's tracer.
    pub trace_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            lanes: LaneConfig::default(),
            slo: SloConfig::default(),
            workers: 0,
            trace_capacity: 8192,
        }
    }
}

impl ServiceConfig {
    /// A service that never sheds: every one of `cohorts` cohorts can
    /// hold a pending request and the per-window quota never runs out,
    /// so each submission is admitted, replaces its cohort's pending
    /// payload, or coalesces with the solve in flight. `workers` as in
    /// [`ServiceConfig::workers`].
    pub fn unmetered(workers: usize, cohorts: usize) -> Self {
        let mut config = ServiceConfig {
            workers,
            ..ServiceConfig::default()
        };
        config.admission.queue_bound = cohorts.max(1);
        config.admission.quota_per_window = u32::MAX;
        config
    }
}

/// Counter snapshot for reports and the overload tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceCounters {
    /// Total submissions.
    pub submitted: u64,
    /// Admitted into a pending slot.
    pub admitted: u64,
    /// Absorbed by an in-flight solve.
    pub coalesced: u64,
    /// Replaced a cohort's pending payload in place (drop-oldest).
    pub replaced: u64,
    /// Rejected: cohort quota exhausted for the window.
    pub shed: u64,
    /// Rejected: service-wide pending bound reached.
    pub backpressure: u64,
    /// Solves completed and published.
    pub completed: u64,
    /// Admitted requests discarded unstarted at shutdown.
    pub abandoned: u64,
}

impl ServiceCounters {
    /// Submissions whose payload never reached a solve (the shed side
    /// of the load-shedding story).
    pub fn shed_submissions(&self) -> u64 {
        self.replaced + self.shed + self.backpressure
    }

    /// Fraction of submissions shed; 0 when nothing was submitted.
    pub fn shed_fraction(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.shed_submissions() as f64 / self.submitted as f64
    }
}

/// An admitted request parked in its cohort's pending slot.
struct PendingRequest {
    /// Payload timestamp: simulated time of the newest submission
    /// folded into this slot (replacements refresh it).
    payload_t_s: f64,
    /// When the slot was first filled — bounded wait is measured from
    /// here, and replacements do NOT refresh it.
    first_submitted_s: f64,
    /// Pick rounds this request has been passed over.
    skips: u32,
    profiler: Profiler,
    compute_speed: f64,
    /// Causal trace id minted at admission (replacements keep it, like
    /// the age fields — the trace follows the slot, not the payload).
    trace: u64,
    /// Record id of the admission's origin event (flow-link source for
    /// the queue hop).
    origin: u64,
    /// Simulated time the scheduler first passed this request over —
    /// the end of pure queue wait in the critical-path decomposition.
    first_skipped_s: Option<f64>,
    /// Simulated time of the winning pick; set by `pick`.
    picked_s: f64,
    /// Record id of the `serve_pick` event; set by `pick`.
    pick_event: u64,
}

#[derive(Default)]
struct CohortCell {
    pending: Option<PendingRequest>,
    ledger: CohortLedger,
}

struct SchedState {
    cells: Vec<CohortCell>,
    pending_count: usize,
    /// High-water mark of submission time — the scheduler's notion of
    /// "now" when workers pick asynchronously.
    last_now_s: f64,
    draining: bool,
}

struct ServeSlot {
    snapshot: ArcSwap<CalibrationSnapshot>,
    calibrator: Mutex<Calibrator>,
    in_flight: AtomicBool,
    /// Highest snapshot seq a device has adopted: the *first* adoption
    /// of each publication closes its trace; cohort-mates adopting the
    /// same snapshot later are no-ops for tracing.
    last_adopted_seq: AtomicU64,
}

struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    coalesced: AtomicU64,
    replaced: AtomicU64,
    shed: AtomicU64,
    backpressure: AtomicU64,
    completed: AtomicU64,
    abandoned: AtomicU64,
}

/// Cached registry handles — the registry lookup is a scan, so the hot
/// paths must not repeat it per submission.
struct Metrics {
    outcome: [Arc<Counter>; 5],
    completed: Arc<Counter>,
    abandoned: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    mode: Arc<Gauge>,
    staleness: Arc<Histogram>,
    lane_staleness: [Arc<Histogram>; 3],
    lane_picks: [Arc<Counter>; 3],
    solve_us: Arc<Histogram>,
    /// Critical-path phase histograms, indexed like
    /// [`PHASE_NAMES`]: queue, lane, solve, publish→adopt. Their
    /// per-trace values sum to the request's served staleness.
    phase: [Arc<Histogram>; 4],
}

/// Names of the critical-path phase histograms, in decomposition order.
pub const PHASE_NAMES: [&str; 4] = [
    "serve_phase_queue_s",
    "serve_phase_lane_s",
    "serve_phase_solve_s",
    "serve_phase_publish_adopt_s",
];

const STALENESS_BOUNDS: [f64; 10] = [
    1.0, 5.0, 15.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 2400.0, 4800.0,
];
const SOLVE_BOUNDS: [f64; 12] = [
    100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 1e6,
];

impl Metrics {
    fn build(registry: &Registry) -> Self {
        let outcome_counter = |o: AdmissionOutcome, help: &str| {
            registry.counter(&format!("serve_{}_total", o.label()), help)
        };
        let lane_hist = |lane: Lane| {
            registry.histogram(
                &format!("serve_staleness_{}_s", lane.label()),
                "First-submission-to-solve wait for picks served on this lane, simulated seconds",
                &STALENESS_BOUNDS,
            )
        };
        let lane_counter = |lane: Lane| {
            registry.counter(
                &format!("serve_lane_{}_total", lane.label()),
                "Picks served on this effective lane",
            )
        };
        Metrics {
            outcome: [
                outcome_counter(AdmissionOutcome::Admitted, "Submissions admitted to a slot"),
                outcome_counter(
                    AdmissionOutcome::Coalesced,
                    "Submissions absorbed by an in-flight solve",
                ),
                outcome_counter(
                    AdmissionOutcome::Replaced,
                    "Pending payloads replaced in place (drop-oldest)",
                ),
                outcome_counter(AdmissionOutcome::Shed, "Submissions shed on cohort quota"),
                outcome_counter(
                    AdmissionOutcome::Backpressure,
                    "Submissions refused on the service-wide pending bound",
                ),
            ],
            completed: registry.counter("serve_completed_total", "Solves completed and published"),
            abandoned: registry.counter(
                "serve_abandoned_total",
                "Admitted requests discarded unstarted at shutdown",
            ),
            queue_depth: registry
                .gauge("serve_queue_depth", "Pending (admitted, unsolved) requests"),
            mode: registry.gauge(
                "serve_mode",
                "Service mode: 0 normal, 1 degraded, 2 shedding",
            ),
            staleness: registry.histogram(
                "serve_staleness_s",
                "Simulated seconds from a request's first submission to the start of its solve",
                &STALENESS_BOUNDS,
            ),
            lane_staleness: [
                lane_hist(Lane::Hot),
                lane_hist(Lane::Normal),
                lane_hist(Lane::Cold),
            ],
            lane_picks: [
                lane_counter(Lane::Hot),
                lane_counter(Lane::Normal),
                lane_counter(Lane::Cold),
            ],
            solve_us: registry.histogram(
                "serve_solve_us",
                "Background calibration solve wall time, microseconds",
                &SOLVE_BOUNDS,
            ),
            phase: [
                registry.histogram(
                    PHASE_NAMES[0],
                    "Critical path: pure queue wait (submission to first scheduler consideration), simulated seconds",
                    &STALENESS_BOUNDS,
                ),
                registry.histogram(
                    PHASE_NAMES[1],
                    "Critical path: lane wait (first consideration to the winning pick), simulated seconds",
                    &STALENESS_BOUNDS,
                ),
                registry.histogram(
                    PHASE_NAMES[2],
                    "Critical path: solve (pick to publication), simulated seconds",
                    &STALENESS_BOUNDS,
                ),
                registry.histogram(
                    PHASE_NAMES[3],
                    "Critical path: adoption lag (publication to first device adoption), simulated seconds",
                    &STALENESS_BOUNDS,
                ),
            ],
        }
    }

    fn outcome(&self, o: AdmissionOutcome) -> &Counter {
        let index = match o {
            AdmissionOutcome::Admitted => 0,
            AdmissionOutcome::Coalesced => 1,
            AdmissionOutcome::Replaced => 2,
            AdmissionOutcome::Shed => 3,
            AdmissionOutcome::Backpressure => 4,
        };
        &self.outcome[index]
    }
}

struct Shared {
    config: ServiceConfig,
    slots: Vec<ServeSlot>,
    sched: Mutex<SchedState>,
    work_ready: Condvar,
    mode: AtomicU8,
    counters: Counters,
    registry: Registry,
    tracer: Tracer,
    metrics: Metrics,
    /// Attached flight recorder, if any: receives completed traces at
    /// adoption and verdicts/snapshots/drains at SLO evaluation, and is
    /// dumped when the mode degrades.
    flight: Mutex<Option<Arc<FlightRecorder>>>,
}

/// The resident multi-tenant calibration service.
pub struct CalibrationService {
    shared: Arc<Shared>,
    monitor: Mutex<SloMonitor>,
    workers: Vec<JoinHandle<()>>,
}

impl CalibrationService {
    /// A service with one calibrator slot per cohort spec. Spawns
    /// `config.workers` solver threads (0 = manual stepping).
    pub fn new(specs: &[CalibratorSpec], config: ServiceConfig) -> Self {
        assert!(!specs.is_empty(), "service needs at least one cohort");
        assert!(config.admission.queue_bound > 0, "service needs a queue");
        let registry = Registry::new();
        let metrics = Metrics::build(&registry);
        let slots = specs
            .iter()
            .map(|spec| ServeSlot {
                snapshot: ArcSwap::from_pointee(CalibrationSnapshot::placeholder()),
                calibrator: Mutex::new(spec.build()),
                in_flight: AtomicBool::new(false),
                last_adopted_seq: AtomicU64::new(0),
            })
            .collect::<Vec<_>>();
        let cells = (0..slots.len()).map(|_| CohortCell::default()).collect();
        let shared = Arc::new(Shared {
            config,
            slots,
            sched: Mutex::new(SchedState {
                cells,
                pending_count: 0,
                last_now_s: 0.0,
                draining: false,
            }),
            work_ready: Condvar::new(),
            mode: AtomicU8::new(ServiceMode::Normal.as_u8()),
            counters: Counters {
                submitted: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                replaced: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                backpressure: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                abandoned: AtomicU64::new(0),
            },
            registry,
            tracer: Tracer::new(config.trace_capacity),
            metrics,
            flight: Mutex::new(None),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker(&shared))
            })
            .collect();
        CalibrationService {
            shared,
            monitor: Mutex::new(SloMonitor::new(config.slo)),
            workers,
        }
    }

    /// Submit a calibration request and get the full admission verdict.
    /// Never blocks on a solve; `O(1)` under the scheduler lock.
    pub fn submit_request(
        &self,
        cohort: usize,
        now_s: f64,
        profiler: &Profiler,
        compute_speed: f64,
    ) -> AdmissionOutcome {
        let shared = &self.shared;
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        // Every submission mints a causal trace at the boundary; only
        // the one that fills (and keeps) the pending slot completes.
        let ctx = shared.tracer.begin_trace("serve_submit", cohort as u64);
        let outcome = {
            let mut st = shared.sched.lock().expect("scheduler poisoned");
            st.last_now_s = st.last_now_s.max(now_s);
            if st.draining {
                // A draining service admits nothing more; callers racing
                // a graceful teardown get an explicit refusal.
                AdmissionOutcome::Backpressure
            } else if shared.slots[cohort].in_flight.load(Ordering::Acquire) {
                AdmissionOutcome::Coalesced
            } else if let Some(pending) = st.cells[cohort].pending.as_mut() {
                // Drop-oldest per cohort: replace the payload in place.
                // Age (first_submitted_s, skips) is kept — overload must
                // not reset a tenant's position in line.
                pending.payload_t_s = now_s;
                pending.profiler = profiler.clone();
                pending.compute_speed = compute_speed;
                AdmissionOutcome::Replaced
            } else if st.pending_count >= shared.config.admission.queue_bound {
                // Checked before the quota: a refused submission must
                // not burn window quota the cohort never got to use.
                AdmissionOutcome::Backpressure
            } else {
                let mode = ServiceMode::from_u8(shared.mode.load(Ordering::Relaxed));
                let quota = effective_quota(shared.config.admission.quota_per_window, mode);
                let cell = &mut st.cells[cohort];
                cell.ledger.roll(now_s, shared.config.admission.window_s);
                if cell.ledger.try_admit(quota) {
                    cell.pending = Some(PendingRequest {
                        payload_t_s: now_s,
                        first_submitted_s: now_s,
                        skips: 0,
                        profiler: profiler.clone(),
                        compute_speed,
                        trace: ctx.trace,
                        origin: ctx.origin,
                        first_skipped_s: None,
                        picked_s: now_s,
                        pick_event: 0,
                    });
                    st.pending_count += 1;
                    shared.metrics.queue_depth.set(st.pending_count as i64);
                    shared.work_ready.notify_one();
                    AdmissionOutcome::Admitted
                } else {
                    AdmissionOutcome::Shed
                }
            }
        };
        shared.metrics.outcome(outcome).inc();
        match outcome {
            AdmissionOutcome::Admitted => {
                shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
            }
            AdmissionOutcome::Coalesced => {
                shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            AdmissionOutcome::Replaced => {
                shared.counters.replaced.fetch_add(1, Ordering::Relaxed);
            }
            AdmissionOutcome::Shed => {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            }
            AdmissionOutcome::Backpressure => {
                shared.counters.backpressure.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Pick the hottest pending request and age the rest. Returns
    /// `None` when nothing is pending. Must run under the scheduler
    /// lock; marks the cohort in flight before returning so concurrent
    /// submissions coalesce.
    fn pick(shared: &Shared, st: &mut SchedState) -> Option<(usize, PendingRequest)> {
        let now = st.last_now_s;
        let lane_cfg = &shared.config.lanes;
        let mut best: Option<(usize, usize, u32, f64)> = None; // cohort, rank, skips, staleness
        for (cohort, cell) in st.cells.iter().enumerate() {
            let Some(pending) = &cell.pending else {
                continue;
            };
            let snap = shared.slots[cohort].snapshot.load_full();
            let staleness = if snap.seq == 0 {
                f64::INFINITY
            } else {
                (now - snap.requested_at_s).max(0.0)
            };
            let lane = lanes::effective(
                lanes::classify(staleness, lane_cfg),
                pending.skips,
                lane_cfg.promote_after,
            );
            let rank = lane.rank();
            // Pick key: lane rank, then most-skipped, then stalest,
            // then lowest cohort index (a total order, so picks are
            // deterministic).
            let wins = match best {
                None => true,
                Some((b_cohort, b_rank, b_skips, b_staleness)) => {
                    if rank != b_rank {
                        rank < b_rank
                    } else if pending.skips != b_skips {
                        pending.skips > b_skips
                    } else if staleness != b_staleness {
                        staleness > b_staleness
                    } else {
                        cohort < b_cohort
                    }
                }
            };
            if wins {
                best = Some((cohort, rank, pending.skips, staleness));
            }
        }
        let (cohort, rank, _, _) = best?;
        for (other, cell) in st.cells.iter_mut().enumerate() {
            if other != cohort {
                if let Some(pending) = cell.pending.as_mut() {
                    pending.skips = pending.skips.saturating_add(1);
                    // First pass-over ends the request's pure queue
                    // wait: from here on it is waiting on lane rank.
                    pending.first_skipped_s.get_or_insert(now);
                }
            }
        }
        let mut request = st.cells[cohort]
            .pending
            .take()
            .expect("picked cohort has a request");
        st.pending_count -= 1;
        shared.metrics.queue_depth.set(st.pending_count as i64);
        shared.slots[cohort]
            .in_flight
            .store(true, Ordering::Release);
        let wait_s = (now - request.first_submitted_s).max(0.0);
        shared
            .metrics
            .staleness
            .observe_with_exemplar(wait_s, request.trace);
        shared.metrics.lane_staleness[rank].observe_with_exemplar(wait_s, request.trace);
        shared.metrics.lane_picks[rank].inc();
        request.picked_s = now;
        request.pick_event = shared
            .tracer
            .event_in("serve_pick", cohort as u64, request.trace);
        // Stitch the submit→pick hop (submission may have come from a
        // device thread, picks happen under the scheduler).
        shared.tracer.link(
            "serve_queue_flow",
            request.origin,
            request.pick_event,
            request.trace,
        );
        Some((cohort, request))
    }

    /// Run one pick to completion: solve, publish, account. The solve
    /// happens outside the scheduler lock.
    fn execute(shared: &Shared, cohort: usize, request: PendingRequest) {
        let slot = &shared.slots[cohort];
        let span = shared
            .tracer
            .span_in("serve_solve", cohort as u64, request.trace);
        if let Some(span) = &span {
            // Stitch the pick→solve hop (a worker may solve a pick made
            // under another thread's scheduler lock).
            shared.tracer.link(
                "serve_solve_flow",
                request.pick_event,
                span.id(),
                request.trace,
            );
        }
        let wall_us = {
            let mut calibrator = slot.calibrator.lock().expect("calibrator poisoned");
            calibrator.recalibrate(
                request.payload_t_s,
                &request.profiler,
                request.compute_speed,
            )
        };
        let calibration = {
            let calibrator = slot.calibrator.lock().expect("calibrator poisoned");
            calibrator.calibration().cloned()
        };
        // Publication's simulated time: the scheduler clock has kept
        // moving while the solve ran (worker mode), never earlier than
        // the pick.
        let published_s = {
            let st = shared.sched.lock().expect("scheduler poisoned");
            st.last_now_s.max(request.picked_s)
        };
        // Recorded before the store so the event id can ride the
        // snapshot as the adoption hop's flow source.
        let publish_span = shared
            .tracer
            .event_in("serve_publish", cohort as u64, request.trace);
        let trace = (request.trace != 0).then_some(SnapshotTrace {
            trace: request.trace,
            publish_span,
            submitted_s: request.first_submitted_s,
            queue_end_s: request.first_skipped_s.unwrap_or(request.picked_s),
            picked_s: request.picked_s,
            published_s,
        });
        let prev_seq = slot.snapshot.load_full().seq;
        slot.snapshot.store(Arc::new(CalibrationSnapshot {
            seq: prev_seq + 1,
            requested_at_s: request.payload_t_s,
            wall_us,
            calibration,
            trace,
        }));
        shared.metrics.solve_us.observe(wall_us);
        shared.metrics.completed.inc();
        drop(span);
        // Publish before accounting: once `completed` covers this
        // solve, readers must already see the snapshot.
        shared.counters.completed.fetch_add(1, Ordering::Release);
        slot.in_flight.store(false, Ordering::Release);
    }

    fn worker(shared: &Arc<Shared>) {
        loop {
            let picked = {
                let mut st = shared.sched.lock().expect("scheduler poisoned");
                loop {
                    // Draining beats pending: admitted-but-unstarted
                    // work is abandoned at shutdown, not raced for.
                    if st.draining {
                        return;
                    }
                    if let Some(picked) = Self::pick(shared, &mut st) {
                        break picked;
                    }
                    st = shared.work_ready.wait(st).expect("scheduler poisoned");
                }
            };
            Self::execute(shared, picked.0, picked.1);
        }
    }

    /// Manually run one solve: pick the hottest pending request at
    /// simulated time `now_s` and execute it synchronously. Returns
    /// whether any work was done. This is the deterministic mode the
    /// fairness tests and the soak harness use (`workers: 0`).
    pub fn step(&self, now_s: f64) -> bool {
        let picked = {
            let mut st = self.shared.sched.lock().expect("scheduler poisoned");
            st.last_now_s = st.last_now_s.max(now_s);
            if st.draining {
                return false;
            }
            Self::pick(&self.shared, &mut st)
        };
        match picked {
            Some((cohort, request)) => {
                Self::execute(&self.shared, cohort, request);
                true
            }
            None => false,
        }
    }

    /// [`step`](Self::step) until nothing is pending; returns the
    /// number of solves run.
    pub fn run_pending(&self, now_s: f64) -> usize {
        let mut ran = 0;
        while self.step(now_s) {
            ran += 1;
        }
        ran
    }

    /// Requests currently parked in pending slots.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .sched
            .lock()
            .expect("scheduler poisoned")
            .pending_count
    }

    /// Current counter values.
    pub fn counters(&self) -> ServiceCounters {
        let c = &self.shared.counters;
        ServiceCounters {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            replaced: c.replaced.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            backpressure: c.backpressure.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Acquire),
            abandoned: c.abandoned.load(Ordering::Relaxed),
        }
    }

    /// The service's current operating mode.
    pub fn mode(&self) -> ServiceMode {
        ServiceMode::from_u8(self.shared.mode.load(Ordering::Relaxed))
    }

    /// Judge the service's own registry against the SLO spec, flip the
    /// mode accordingly (quotas pick it up on the next submissions),
    /// and return the verdict. Call once per evaluation window.
    pub fn evaluate_slo(&self) -> SloVerdict {
        let snapshot = self.shared.registry.snapshot();
        let mut monitor = self.monitor.lock().expect("SLO monitor poisoned");
        let prev_mode = ServiceMode::from_u8(self.shared.mode.load(Ordering::Relaxed));
        let verdict = monitor.evaluate(&snapshot);
        self.shared
            .mode
            .store(verdict.mode.as_u8(), Ordering::Relaxed);
        self.shared
            .metrics
            .mode
            .set(i64::from(verdict.mode.as_u8()));
        self.shared
            .tracer
            .event("serve_slo_eval", u64::from(verdict.mode.as_u8()));
        let flight = self.shared.flight.lock().expect("flight poisoned").clone();
        if let Some(flight) = flight {
            flight.note_verdict(verdict.summary());
            flight.note_metrics(snapshot);
            if verdict.mode != prev_mode && verdict.mode != ServiceMode::Normal {
                // Entering a non-Normal mode is the postmortem moment:
                // freeze the span rings and dump while the evidence of
                // *why* is still in the windows.
                flight.absorb(self.shared.tracer.drain());
                let reason = match verdict.mode {
                    ServiceMode::Degraded => "slo-degraded",
                    _ => "slo-shedding",
                };
                let _ = flight.dump(reason);
            }
        }
        verdict
    }

    /// Attach a [`FlightRecorder`]: from now on, SLO verdicts and
    /// metric snapshots are journalled into it, completed traces are
    /// retained for postmortems, and a mode transition into
    /// Degraded/Shedding dumps a bundle automatically.
    pub fn attach_flight(&self, flight: Arc<FlightRecorder>) {
        *self.shared.flight.lock().expect("flight poisoned") = Some(flight);
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.flight.lock().expect("flight poisoned").clone()
    }

    /// The service's metrics registry (Prometheus scrape source).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The service's span tracer (Chrome trace source).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Graceful shutdown: stop admitting, wake and join the workers
    /// (started solves publish before the join), and reclassify every
    /// admitted-but-unstarted request as abandoned. Idempotent —
    /// `Drop` calls it. Returns the settled counters, which satisfy
    /// `admitted == completed + abandoned`.
    pub fn shutdown(&mut self) -> ServiceCounters {
        {
            let mut st = self.shared.sched.lock().expect("scheduler poisoned");
            st.draining = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        {
            let mut st = self.shared.sched.lock().expect("scheduler poisoned");
            for cell in st.cells.iter_mut() {
                if cell.pending.take().is_some() {
                    self.shared
                        .counters
                        .abandoned
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared.metrics.abandoned.inc();
                }
            }
            st.pending_count = 0;
            self.shared.metrics.queue_depth.set(0);
        }
        self.counters()
    }
}

impl Drop for CalibrationService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl CalibrationBackend for CalibrationService {
    fn submit(
        &self,
        cohort: usize,
        now_s: f64,
        profiler: &Profiler,
        compute_speed: f64,
    ) -> SubmitOutcome {
        // The backend's three-way outcome is a projection of the
        // service's five: a replaced payload rides the slot it replaced
        // (the device's request IS pending, so "coalesced" is the honest
        // reading), and both shed flavours are drops.
        match self.submit_request(cohort, now_s, profiler, compute_speed) {
            AdmissionOutcome::Admitted => SubmitOutcome::Enqueued,
            AdmissionOutcome::Coalesced | AdmissionOutcome::Replaced => SubmitOutcome::Coalesced,
            AdmissionOutcome::Shed | AdmissionOutcome::Backpressure => SubmitOutcome::Dropped,
        }
    }

    fn snapshot(&self, cohort: usize) -> Arc<CalibrationSnapshot> {
        self.shared.slots[cohort].snapshot.load_full()
    }

    fn adopt(&self, cohort: usize, snapshot: &CalibrationSnapshot, now_s: f64) {
        let Some(t) = snapshot.trace else { return };
        let slot = &self.shared.slots[cohort];
        // Cohort-mates all adopt the same publication; only the first
        // closes its trace — the critical path ends at the first device
        // the calibration reached, later adopters merely share it.
        let prev = slot
            .last_adopted_seq
            .fetch_max(snapshot.seq, Ordering::AcqRel);
        if prev >= snapshot.seq {
            return;
        }
        let adopt_event = self
            .shared
            .tracer
            .event_in("serve_adopt", snapshot.seq, t.trace);
        self.shared
            .tracer
            .link("serve_adopt_flow", t.publish_span, adopt_event, t.trace);
        let completed = CompletedTrace::new(
            t.trace,
            cohort,
            t.submitted_s,
            t.queue_end_s,
            t.picked_s,
            t.published_s,
            now_s,
        );
        for (hist, phase) in self.shared.metrics.phase.iter().zip(completed.phases()) {
            hist.observe_with_exemplar(phase, t.trace);
        }
        let flight = self.shared.flight.lock().expect("flight poisoned").clone();
        if let Some(flight) = flight {
            flight.note_trace(completed);
        }
    }

    fn cohorts(&self) -> usize {
        self.shared.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capman_device::fsm::Action;
    use capman_device::states::DeviceState;

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

    fn specs(n: usize) -> Vec<CalibratorSpec> {
        (0..n).map(|_| CalibratorSpec::paper()).collect()
    }

    fn manual(n: usize, admission: AdmissionConfig) -> CalibrationService {
        CalibrationService::new(
            &specs(n),
            ServiceConfig {
                admission,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn admit_solve_publish_round_trip() {
        let service = manual(1, AdmissionConfig::default());
        let profiler = warm_profiler();
        assert_eq!(
            service.submit_request(0, 1200.0, &profiler, 1.0),
            AdmissionOutcome::Admitted
        );
        assert_eq!(service.queue_depth(), 1);
        assert!(service.step(1200.0));
        assert!(!service.step(1200.0), "queue is empty again");
        let snap = CalibrationBackend::snapshot(&service, 0);
        assert_eq!(snap.seq, 1);
        assert!(snap.calibration.is_some());
        assert_eq!(snap.requested_at_s, 1200.0);
        let c = service.counters();
        assert_eq!((c.submitted, c.admitted, c.completed), (1, 1, 1));
    }

    #[test]
    fn replacement_keeps_age_and_refreshes_payload() {
        let service = manual(1, AdmissionConfig::default());
        let profiler = warm_profiler();
        assert_eq!(
            service.submit_request(0, 1000.0, &profiler, 1.0),
            AdmissionOutcome::Admitted
        );
        assert_eq!(
            service.submit_request(0, 1400.0, &profiler, 1.0),
            AdmissionOutcome::Replaced
        );
        assert_eq!(
            service.queue_depth(),
            1,
            "replacement does not grow the queue"
        );
        assert!(service.step(1400.0));
        let snap = CalibrationBackend::snapshot(&service, 0);
        assert_eq!(
            snap.requested_at_s, 1400.0,
            "the solve runs the newest payload"
        );
        // The wait histogram measured from the FIRST submission.
        let hist = service.registry().snapshot();
        let h = hist
            .histograms
            .iter()
            .find(|h| h.name == "serve_staleness_s")
            .expect("staleness histogram registered");
        assert_eq!(h.count, 1);
        assert!(h.sum >= 300.0, "wait measured from 1000 s, not 1400 s");
    }

    #[test]
    fn quota_sheds_and_windows_refresh_it() {
        let service = manual(
            1,
            AdmissionConfig {
                queue_bound: 8,
                quota_per_window: 1,
                window_s: 600.0,
            },
        );
        let profiler = warm_profiler();
        assert_eq!(
            service.submit_request(0, 100.0, &profiler, 1.0),
            AdmissionOutcome::Admitted
        );
        service.run_pending(100.0);
        assert_eq!(
            service.submit_request(0, 200.0, &profiler, 1.0),
            AdmissionOutcome::Shed,
            "window quota of 1 is spent"
        );
        assert_eq!(
            service.submit_request(0, 700.0, &profiler, 1.0),
            AdmissionOutcome::Admitted,
            "next window refreshes the quota"
        );
        let c = service.counters();
        assert_eq!(c.shed, 1);
        assert_eq!(
            c.submitted,
            c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure
        );
    }

    #[test]
    fn queue_bound_backpressure_does_not_burn_quota() {
        let service = manual(
            2,
            AdmissionConfig {
                queue_bound: 1,
                quota_per_window: 1,
                window_s: 600.0,
            },
        );
        let profiler = warm_profiler();
        assert_eq!(
            service.submit_request(0, 100.0, &profiler, 1.0),
            AdmissionOutcome::Admitted
        );
        assert_eq!(
            service.submit_request(1, 100.0, &profiler, 1.0),
            AdmissionOutcome::Backpressure,
            "service-wide bound reached"
        );
        service.run_pending(100.0);
        assert_eq!(
            service.submit_request(1, 101.0, &profiler, 1.0),
            AdmissionOutcome::Admitted,
            "the refused submission did not consume cohort 1's quota"
        );
    }

    #[test]
    fn pick_order_prefers_the_stalest_and_ages_the_passed_over() {
        let service = manual(
            3,
            AdmissionConfig {
                queue_bound: 8,
                quota_per_window: 4,
                window_s: 10_000.0,
            },
        );
        let profiler = warm_profiler();
        // Give cohort 2 a fresh published calibration; 0 and 1 stay at
        // the seq-0 placeholder (infinitely stale → Hot lane).
        service.submit_request(2, 10.0, &profiler, 1.0);
        service.run_pending(10.0);
        for cohort in 0..3 {
            assert_eq!(
                service.submit_request(cohort, 20.0, &profiler, 1.0),
                AdmissionOutcome::Admitted
            );
        }
        // Hot beats Cold: cohorts 0 and 1 (never calibrated) go first,
        // lowest cohort index breaking the tie.
        assert!(service.step(20.0));
        assert_eq!(CalibrationBackend::snapshot(&service, 0).seq, 1);
        assert_eq!(CalibrationBackend::snapshot(&service, 1).seq, 0);
        assert!(service.step(20.0));
        assert_eq!(CalibrationBackend::snapshot(&service, 1).seq, 1);
        assert!(service.step(20.0));
        assert_eq!(CalibrationBackend::snapshot(&service, 2).seq, 2);
        let snap = service.registry().snapshot();
        let picks: u64 = snap
            .counters
            .iter()
            .filter(|(n, _, _)| n.starts_with("serve_lane_"))
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(picks, 4, "every pick lands on exactly one lane");
    }

    #[test]
    fn threaded_service_drains_on_drop_with_the_identity() {
        let mut service = CalibrationService::new(
            &specs(8),
            ServiceConfig {
                workers: 2,
                admission: AdmissionConfig {
                    queue_bound: 8,
                    quota_per_window: 4,
                    window_s: 600.0,
                },
                ..ServiceConfig::default()
            },
        );
        let profiler = warm_profiler();
        for cohort in 0..8 {
            service.submit_request(cohort, 100.0, &profiler, 1.0);
        }
        let c = service.shutdown();
        assert_eq!(
            c.submitted,
            c.admitted + c.coalesced + c.replaced + c.shed + c.backpressure
        );
        assert_eq!(
            c.admitted,
            c.completed + c.abandoned,
            "every admitted request either published or was abandoned"
        );
        // Published snapshots are complete; abandoned cohorts still hold
        // the seq-0 placeholder.
        for cohort in 0..8 {
            let snap = CalibrationBackend::snapshot(&service, cohort);
            assert_eq!(snap.calibration.is_some(), snap.seq > 0);
        }
        // Post-shutdown submissions are refused, not panicking.
        assert_eq!(
            service.submit_request(0, 200.0, &profiler, 1.0),
            AdmissionOutcome::Backpressure
        );
    }

    #[test]
    fn slo_mode_feeds_back_into_quota() {
        let mut config = ServiceConfig {
            admission: AdmissionConfig {
                queue_bound: 8,
                quota_per_window: 4,
                window_s: 600.0,
            },
            ..ServiceConfig::default()
        };
        // An impossible queue-depth objective so any pending request
        // breaches, with instant escalation.
        config.slo.spec.queue_depth.objective = 0.0;
        config.slo.spec.queue_depth.floor = 0.5;
        config.slo.escalate_after = 1;
        let service = CalibrationService::new(&specs(1), config);
        let profiler = warm_profiler();
        assert_eq!(
            service.submit_request(0, 100.0, &profiler, 1.0),
            AdmissionOutcome::Admitted
        );
        let verdict = service.evaluate_slo();
        assert!(verdict.breached);
        assert_eq!(service.mode(), ServiceMode::Degraded);
        // Shedding mode forces the quota to 1: the cohort spent its
        // admission, so in-window follow-ups shed even though the base
        // quota (4) has room.
        service.evaluate_slo();
        assert_eq!(service.mode(), ServiceMode::Shedding);
        service.run_pending(100.0);
        assert_eq!(
            service.submit_request(0, 150.0, &profiler, 1.0),
            AdmissionOutcome::Shed
        );
    }

    #[test]
    fn backend_projection_maps_the_five_outcomes_to_three() {
        let service = manual(
            1,
            AdmissionConfig {
                queue_bound: 8,
                quota_per_window: 1,
                window_s: 600.0,
            },
        );
        let profiler = warm_profiler();
        let backend: &dyn CalibrationBackend = &service;
        assert_eq!(
            backend.submit(0, 100.0, &profiler, 1.0),
            SubmitOutcome::Enqueued
        );
        assert_eq!(
            backend.submit(0, 110.0, &profiler, 1.0),
            SubmitOutcome::Coalesced,
            "replacement reads as coalesced to the backend caller"
        );
        service.run_pending(110.0);
        assert_eq!(
            backend.submit(0, 120.0, &profiler, 1.0),
            SubmitOutcome::Dropped,
            "quota shed reads as dropped"
        );
        assert_eq!(backend.cohorts(), 1);
    }
}
