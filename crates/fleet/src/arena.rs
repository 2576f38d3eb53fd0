//! Data-oriented device arenas: the million-device fleet path.
//!
//! The roster-based [`FleetRunner`](crate::runner::FleetRunner) carries
//! per-device baggage that is invisible at 10⁴ devices and fatal at
//! 10⁶: a materialized [`DeviceSpec`](crate::profile::DeviceSpec)
//! roster, a full workload trace per
//! device, a boxed policy per device, a telemetry series per device and
//! a `DeviceSummary` vector for the whole fleet. [`ArenaRunner`] keeps
//! none of it:
//!
//! * devices come from a [`FleetPlan`] that *derives* specs
//!   arithmetically instead of storing them;
//! * each shard owns a [`DeviceArena`] — structure-of-arrays columns
//!   (physics cores, streaming trace cursors, enum-dispatched policies,
//!   constant-memory telemetry counters, done flags) indexed by dense
//!   [`DeviceHandle`]s — so live state exists only for the
//!   `shard_devices` devices currently in flight;
//! * traces are generated on the fly by
//!   [`TraceCursor`](capman_workload::TraceCursor) from the device's
//!   `trace_seed`, bounded by a sliding window instead of the horizon;
//! * results fold into per-shard [`QuantileSketch`]es and scalar
//!   accumulators that merge as shards finish — the per-device summary
//!   vector is never materialized unless
//!   [`ArenaConfig::collect_summaries`] asks for it (the determinism
//!   tests do; a million-device run does not).
//!
//! Peak RSS is therefore bounded by `shard_devices × columns` plus the
//! fixed sketch geometry, independent of fleet size, and every number
//! that comes out is bit-identical to the roster runner over the same
//! plan (the equivalence tests below and the arena proptests pin this).
//!
//! [`ArenaConfig::time_slice_s`] additionally schedules shards in
//! simulated-time windows: every live device advances to the window
//! boundary before any advances past it. Windowing changes nothing
//! numerically (the per-device step sequence is identical — see
//! `DeviceSim::run_until`); it exists so shard workers interleave
//! progress, which keeps backend calibration requests flowing in rough
//! simulated-time order instead of device order.
//!
//! [`ArenaRunner::run`] calibrates CAPMAN devices inline.
//! [`ArenaRunner::run_with_backend`] hands them a caller-owned
//! [`CalibrationBackend`] instead; for background solves that is a
//! threaded `capman-serve` calibration service.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use capman_core::experiments::build_pack;
use capman_core::policy::Policy;
use capman_core::sim::DeviceSim;
use capman_core::telemetry::{LeanTelemetry, ShardThroughput};
use capman_device::phone::PhoneProfile;
use capman_device::power::PowerModel;
use capman_workload::TraceCursor;
use rayon::prelude::*;

use crate::backend::CalibrationBackend;
use crate::dispatch::FleetPolicy;
use crate::profile::{FleetPlan, FleetProfile};
use crate::runner::{
    hotspot_sketch, lifetime_sketch, record_shard_metrics, staleness_sketch, DeviceSummary,
    FleetAggregate, FleetResult,
};
use crate::sketch::QuantileSketch;

/// Dense index of one device's row across a [`DeviceArena`]'s columns.
///
/// Handles are shard-local: handle `h` of shard `s` is fleet device
/// `s × shard_devices + h`. `u32` bounds a shard at ~4 billion devices,
/// which is not the binding constraint (memory is).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceHandle(u32);

impl DeviceHandle {
    /// The handle for column row `index`.
    pub fn new(index: u32) -> Self {
        DeviceHandle(index)
    }

    /// The column row this handle indexes.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Arena-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ArenaConfig {
    /// Devices resident per shard arena — the memory knob: peak RSS
    /// scales with this, not with the fleet.
    pub shard_devices: usize,
    /// Simulated seconds per scheduling window. `f64::INFINITY` runs
    /// each shard's devices straight through (the fast default);
    /// a finite slice interleaves devices at window granularity.
    pub time_slice_s: f64,
    /// Deal shards across cores (`false`: same shards, calling thread).
    pub parallel: bool,
    /// Also materialize the per-device summary vector (fleet order).
    /// Costs O(devices) memory — for tests and small fleets only.
    pub collect_summaries: bool,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        ArenaConfig {
            shard_devices: 256,
            time_slice_s: f64::INFINITY,
            parallel: true,
            collect_summaries: false,
        }
    }
}

/// Cohort-shared immutable context, hoisted out of the per-device rows:
/// one profile/phone/power-model set per cohort per shard, `Arc`-shared
/// into every [`DeviceSim`] of the cohort.
struct CohortCtx {
    profile: Arc<FleetProfile>,
    phone: Arc<PhoneProfile>,
    model: Arc<PowerModel>,
}

impl CohortCtx {
    fn new(profile: &Arc<FleetProfile>) -> Self {
        CohortCtx {
            profile: Arc::clone(profile),
            phone: Arc::new(profile.phone.clone()),
            model: Arc::new(profile.phone.power_model()),
        }
    }
}

/// Structure-of-arrays state for one shard's resident devices.
///
/// Each column holds one facet of every device, indexed by
/// [`DeviceHandle`]: `sims` the physics core (pack SoC, thermal
/// temperatures, power-state machine, accumulators), `cursors` the
/// streaming trace state (generator RNG counter plus its sliding
/// window), `policies` the enum-dispatched scheduler state, `telemetry`
/// the constant-memory tick/staleness counters, `done` the completion
/// flags. Everything cohort-shared lives once in the `CohortCtx` cache,
/// not in the rows.
pub struct DeviceArena {
    ids: Vec<u64>,
    cohorts: Vec<u32>,
    sims: Vec<DeviceSim>,
    cursors: Vec<TraceCursor>,
    policies: Vec<FleetPolicy>,
    telemetry: Vec<LeanTelemetry>,
    done: Vec<bool>,
    active: usize,
}

impl DeviceArena {
    /// Build the arena for plan devices `start .. start + count`.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the plan or exceeds `u32` handles.
    pub fn build(
        plan: &FleetPlan,
        start: usize,
        count: usize,
        backend: Option<&Arc<dyn CalibrationBackend>>,
    ) -> Self {
        assert!(start + count <= plan.len(), "device range leaves the plan");
        assert!(u32::try_from(count).is_ok(), "handles are u32");
        let mut ctxs: Vec<Option<CohortCtx>> = (0..plan.profiles().len()).map(|_| None).collect();
        let mut arena = DeviceArena {
            ids: Vec::with_capacity(count),
            cohorts: Vec::with_capacity(count),
            sims: Vec::with_capacity(count),
            cursors: Vec::with_capacity(count),
            policies: Vec::with_capacity(count),
            telemetry: Vec::with_capacity(count),
            done: vec![false; count],
            active: count,
        };
        for i in start..start + count {
            let spec = plan.spec(i);
            if ctxs[spec.cohort].is_none() {
                ctxs[spec.cohort] = Some(CohortCtx::new(&plan.profiles()[spec.cohort]));
            }
            let ctx = ctxs[spec.cohort].as_ref().expect("just initialised");
            let profile = &ctx.profile;
            arena.ids.push(spec.device_id);
            arena.cohorts.push(spec.cohort as u32);
            arena.sims.push(DeviceSim::new(
                Arc::clone(&ctx.phone),
                Arc::clone(&ctx.model),
                build_pack(profile.kind),
                profile.device_config(&spec),
            ));
            arena.cursors.push(TraceCursor::new(
                profile.workload,
                profile.config.max_horizon_s,
                spec.trace_seed,
                spec.perturbation,
            ));
            // Only an Oracle cohort pays for a materialized trace (the
            // clairvoyant baseline owns its copy by definition).
            arena
                .policies
                .push(FleetPolicy::for_device(profile, &spec, backend, || {
                    profile.trace(&spec)
                }));
            arena.telemetry.push(LeanTelemetry::default());
        }
        arena
    }

    /// Devices resident in this arena.
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the arena holds no devices.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Devices whose discharge cycle has not ended yet.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Advance every live device to simulated time `t_end` (or its
    /// cycle end, whichever comes first). Returns the remaining active
    /// count.
    pub fn run_window(&mut self, t_end: f64) -> usize {
        for h in 0..self.sims.len() {
            if self.done[h] {
                continue;
            }
            if self.sims[h]
                .run_until(
                    &mut self.policies[h],
                    &mut self.cursors[h],
                    &mut self.telemetry[h],
                    t_end,
                )
                .is_some()
            {
                self.done[h] = true;
                self.active -= 1;
            }
        }
        self.active
    }

    /// The device's summary row (valid once its cycle ended; mid-run it
    /// reflects progress so far).
    pub fn summary(&self, handle: DeviceHandle) -> DeviceSummary {
        let h = handle.index();
        let sim = &self.sims[h];
        DeviceSummary {
            device_id: self.ids[h],
            cohort: self.cohorts[h] as usize,
            service_time_s: sim.time_s(),
            work_served: sim.work_served(),
            energy_delivered_j: sim.energy_delivered_j(),
            max_hotspot_c: sim.peak_hotspot_c(),
            switches: sim.switches(),
            ticks: self.telemetry[h].samples,
            recalibrations: self.policies[h].recalibrations(),
            max_staleness_s: self.telemetry[h].max_staleness_s,
        }
    }
}

/// The streaming aggregation state: scalar accumulators plus sketches
/// in the canonical fleet geometries. Each in-flight shard folds into a
/// private `StreamAgg` and absorbs it into the shared one the moment it
/// finishes, so live sketch memory scales with *concurrent* shards, not
/// the shard count. Bin-wise `u64` adds commute, so the absorb order —
/// whatever the scheduler makes it — yields exactly the roster runner's
/// serial fold.
struct StreamAgg {
    devices: u64,
    ticks: u64,
    recalibrations: u64,
    lifetime_s: QuantileSketch,
    hotspot_c: QuantileSketch,
    staleness_s: QuantileSketch,
}

impl StreamAgg {
    fn new(lifetime_hi: f64) -> Self {
        StreamAgg {
            devices: 0,
            ticks: 0,
            recalibrations: 0,
            lifetime_s: lifetime_sketch(lifetime_hi),
            hotspot_c: hotspot_sketch(),
            staleness_s: staleness_sketch(),
        }
    }

    fn insert(&mut self, s: &DeviceSummary) {
        self.devices += 1;
        self.ticks += s.ticks;
        self.recalibrations += s.recalibrations;
        self.lifetime_s.insert(s.service_time_s);
        self.hotspot_c.insert(s.max_hotspot_c);
        self.staleness_s.insert(s.max_staleness_s);
    }

    fn absorb(&mut self, shard: &StreamAgg) {
        self.devices += shard.devices;
        self.ticks += shard.ticks;
        self.recalibrations += shard.recalibrations;
        self.lifetime_s.merge(&shard.lifetime_s);
        self.hotspot_c.merge(&shard.hotspot_c);
        self.staleness_s.merge(&shard.staleness_s);
    }
}

/// The per-shard slot that outlives the shard: its throughput row and —
/// only when [`ArenaConfig::collect_summaries`] asks — its summaries.
/// A default cell is a few pointers, so pre-sizing one per shard stays
/// cheap even at millions of devices.
#[derive(Default)]
struct ShardCell {
    throughput: Option<ShardThroughput>,
    summaries: Vec<DeviceSummary>,
}

/// The lifetime sketch's upper bound for a plan (the roster runner's
/// rule: the longest cohort horizon, at least 1 s).
fn plan_lifetime_hi(plan: &FleetPlan) -> f64 {
    plan.profiles()
        .iter()
        .map(|p| p.config.max_horizon_s)
        .fold(1.0, f64::max)
}

/// Runs [`FleetPlan`]s through shard arenas under an [`ArenaConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaRunner {
    config: ArenaConfig,
}

impl ArenaRunner {
    /// A runner with the given configuration.
    pub fn new(config: ArenaConfig) -> Self {
        ArenaRunner { config }
    }

    /// The configuration this runner applies.
    pub fn config(&self) -> ArenaConfig {
        self.config
    }

    /// Simulate every device of the plan and aggregate, calibrating
    /// CAPMAN devices inline. The summary vector is empty unless
    /// [`ArenaConfig::collect_summaries`] is set.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty, the shard size is zero or the time
    /// slice is not positive.
    pub fn run(&self, plan: &FleetPlan) -> FleetResult {
        self.run_impl(plan, None)
    }

    /// Like [`run`], but CAPMAN devices submit to and adopt from a
    /// caller-owned calibration backend (e.g. a threaded calibration
    /// service) instead of calibrating inline. The caller keeps the
    /// backend's shutdown and counters.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configs as [`run`].
    ///
    /// [`run`]: ArenaRunner::run
    pub fn run_with_backend(
        &self,
        plan: &FleetPlan,
        backend: Arc<dyn CalibrationBackend>,
    ) -> FleetResult {
        self.run_impl(plan, Some(backend))
    }

    fn run_impl(
        &self,
        plan: &FleetPlan,
        backend: Option<Arc<dyn CalibrationBackend>>,
    ) -> FleetResult {
        assert!(!plan.is_empty(), "cannot run an empty plan");
        assert!(self.config.shard_devices > 0, "shard size must be positive");
        assert!(
            self.config.time_slice_s > 0.0,
            "time slice must be positive"
        );
        let _run_span = capman_obs::span("fleet_run", plan.len() as u64);
        let t0 = Instant::now();
        let shard_devices = self.config.shard_devices;
        let n_shards = plan.len().div_ceil(shard_devices);
        let lifetime_hi = plan_lifetime_hi(plan);
        let agg = Mutex::new(StreamAgg::new(lifetime_hi));
        let mut cells: Vec<ShardCell> = (0..n_shards).map(|_| ShardCell::default()).collect();
        if self.config.parallel {
            cells.par_chunks_mut(1).enumerate().for_each(|shard, cell| {
                run_arena_shard(
                    plan,
                    shard,
                    &self.config,
                    backend.as_ref(),
                    &agg,
                    &mut cell[0],
                );
            });
        } else {
            for (shard, cell) in cells.iter_mut().enumerate() {
                run_arena_shard(plan, shard, &self.config, backend.as_ref(), &agg, cell);
            }
        }

        let merged = agg.into_inner().expect("a shard panicked mid-merge");
        let mut shards = Vec::with_capacity(n_shards);
        let mut summaries = Vec::new();
        if self.config.collect_summaries {
            summaries.reserve_exact(plan.len());
        }
        for cell in cells {
            shards.push(cell.throughput.expect("every shard cell ran exactly once"));
            summaries.extend(cell.summaries);
        }
        FleetResult {
            summaries,
            aggregate: FleetAggregate {
                devices: merged.devices,
                ticks: merged.ticks,
                recalibrations: merged.recalibrations,
                lifetime_s: merged.lifetime_s,
                hotspot_c: merged.hotspot_c,
                staleness_s: merged.staleness_s,
                shards,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            },
        }
    }
}

/// Run one shard: build its arena, drive it window by window, fold the
/// finished devices into the cell's streaming aggregation.
fn run_arena_shard(
    plan: &FleetPlan,
    shard: usize,
    config: &ArenaConfig,
    backend: Option<&Arc<dyn CalibrationBackend>>,
    agg: &Mutex<StreamAgg>,
    cell: &mut ShardCell,
) {
    let _shard_span = capman_obs::span("fleet_shard", shard as u64);
    let t_shard = Instant::now();
    let start = shard * config.shard_devices;
    let count = config.shard_devices.min(plan.len() - start);
    let mut arena = DeviceArena::build(plan, start, count, backend);

    let mut t_end = config.time_slice_s;
    while arena.run_window(t_end) > 0 {
        t_end += config.time_slice_s;
    }

    let lifetime_hi = plan_lifetime_hi(plan);
    let mut fold = StreamAgg::new(lifetime_hi);
    if config.collect_summaries {
        cell.summaries.reserve_exact(count);
    }
    for h in 0..count {
        let s = arena.summary(DeviceHandle::new(h as u32));
        fold.insert(&s);
        if config.collect_summaries {
            cell.summaries.push(s);
        }
    }
    record_shard_metrics(fold.devices, fold.ticks);
    cell.throughput = Some(ShardThroughput {
        shard,
        devices: fold.devices,
        ticks: fold.ticks,
        wall_ms: t_shard.elapsed().as_secs_f64() * 1e3,
    });
    agg.lock().expect("aggregate mutex poisoned").absorb(&fold);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Fleet;
    use crate::runner::{FleetConfig, FleetRunner};
    use capman_core::experiments::PolicyKind;
    use capman_workload::WorkloadKind;

    fn profiles() -> Vec<FleetProfile> {
        let mut capman = FleetProfile::capman("video", WorkloadKind::Video, 21);
        capman.config.max_horizon_s = 1500.0;
        capman.calibrator.every_s = 600.0;
        let mut dual = FleetProfile::capman("pcmark-dual", WorkloadKind::Pcmark, 22);
        dual.kind = PolicyKind::Dual;
        dual.config.max_horizon_s = 1500.0;
        dual.config.tec_enabled = false;
        vec![capman, dual]
    }

    fn assert_aggregates_match(a: &FleetAggregate, b: &FleetAggregate) {
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.recalibrations, b.recalibrations);
        assert_eq!(a.lifetime_s, b.lifetime_s);
        assert_eq!(a.hotspot_c, b.hotspot_c);
        assert_eq!(a.staleness_s, b.staleness_s);
    }

    #[test]
    fn arena_matches_roster_runner_bitwise() {
        let fleet = Fleet::build(profiles(), 3);
        let roster = FleetRunner::new(FleetConfig::default()).run(&fleet);
        let plan = FleetPlan::new(profiles(), 3);
        let arena = ArenaRunner::new(ArenaConfig {
            shard_devices: 4,
            collect_summaries: true,
            ..ArenaConfig::default()
        })
        .run(&plan);
        assert_eq!(roster.summaries, arena.summaries);
        assert_aggregates_match(&roster.aggregate, &arena.aggregate);
    }

    #[test]
    fn time_sliced_windows_match_single_pass_bitwise() {
        let plan = FleetPlan::new(profiles(), 2);
        let single = ArenaRunner::new(ArenaConfig {
            shard_devices: 3,
            collect_summaries: true,
            ..ArenaConfig::default()
        })
        .run(&plan);
        let sliced = ArenaRunner::new(ArenaConfig {
            shard_devices: 3,
            time_slice_s: 250.0,
            collect_summaries: true,
            ..ArenaConfig::default()
        })
        .run(&plan);
        assert_eq!(single.summaries, sliced.summaries);
        assert_aggregates_match(&single.aggregate, &sliced.aggregate);
    }

    #[test]
    fn summaries_stay_off_unless_collected() {
        let plan = FleetPlan::new(profiles(), 2);
        let result = ArenaRunner::new(ArenaConfig {
            shard_devices: 2,
            ..ArenaConfig::default()
        })
        .run(&plan);
        assert!(result.summaries.is_empty());
        assert_eq!(result.aggregate.devices, plan.len() as u64);
        assert_eq!(result.aggregate.lifetime_s.count(), plan.len() as u64);
        let shard_devices: u64 = result.aggregate.shards.iter().map(|s| s.devices).sum();
        assert_eq!(shard_devices, result.aggregate.devices);
        let shard_ticks: u64 = result.aggregate.shards.iter().map(|s| s.ticks).sum();
        assert_eq!(shard_ticks, result.aggregate.ticks);
    }

    #[test]
    fn serial_arena_matches_parallel_arena() {
        let plan = FleetPlan::new(profiles(), 2);
        let mk = |parallel| {
            ArenaRunner::new(ArenaConfig {
                shard_devices: 3,
                parallel,
                collect_summaries: true,
                ..ArenaConfig::default()
            })
            .run(&plan)
        };
        let serial = mk(false);
        let parallel = mk(true);
        assert_eq!(serial.summaries, parallel.summaries);
        assert_aggregates_match(&serial.aggregate, &parallel.aggregate);
    }
}
