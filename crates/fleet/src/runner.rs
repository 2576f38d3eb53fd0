//! The roster fleet runner and the fleet result types.
//!
//! [`FleetRunner`] carries every device of a materialized [`Fleet`]
//! roster through its full discharge cycle, dealing devices across
//! cores in cache-sized batches (shards) and calibrating inline. Each
//! shard worker writes its [`DeviceSummary`] results into disjoint
//! output slots, so the summary vector follows fleet order — device
//! `i`'s summary is at index `i` whatever the schedule — and the
//! parallel run is bit-identical to a serial pass over the same fleet.
//!
//! The roster runner is the arena's test oracle: the
//! [`ArenaRunner`](crate::arena::ArenaRunner) must reproduce it bit for
//! bit (`arena_matches_roster_runner_bitwise`, `tests/proptest_arena.rs`).
//! Production fleets, including background-calibrated ones, run on the
//! arena.

use std::sync::Arc;
use std::time::Instant;

use capman_core::experiments::build_pack;
use capman_core::policy::Policy;
use capman_core::sim::DeviceSim;
use capman_core::telemetry::{LeanTelemetry, ShardThroughput};
use rayon::prelude::*;

use crate::dispatch::FleetPolicy;
use crate::profile::{DeviceSpec, Fleet};
use crate::sketch::QuantileSketch;

/// Roster-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Devices per shard (rayon work unit). Sized so one shard's hot
    /// state stays cache-resident; 64 is a good default.
    pub batch: usize,
    /// Deal shards across cores (`false`: the same shards run one
    /// after another on the calling thread, the determinism reference).
    pub parallel: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            batch: 64,
            parallel: true,
        }
    }
}

/// Per-device result, reduced from the full [`Outcome`] to what fleet
/// reports need. `PartialEq` compares exactly (f64 bit semantics via
/// `==`), which is what the sharded-vs-serial determinism contract is
/// stated in terms of.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Fleet-unique device id.
    pub device_id: u64,
    /// Cohort index.
    pub cohort: usize,
    /// Seconds until the discharge cycle ended.
    pub service_time_s: f64,
    /// Work served, utilisation-seconds.
    pub work_served: f64,
    /// Energy delivered to the load, joules.
    pub energy_delivered_j: f64,
    /// Peak hot-spot temperature, degC.
    pub max_hotspot_c: f64,
    /// Battery switches performed.
    pub switches: u64,
    /// Scheduling ticks executed (telemetry samples).
    pub ticks: u64,
    /// Calibrations this device adopted (backend) or ran (inline).
    pub recalibrations: u64,
    /// Largest calibration staleness observed, simulated seconds.
    pub max_staleness_s: f64,
}

/// Fleet-level aggregation: streaming percentile sketches over the
/// per-device summaries plus run-wide counters.
#[derive(Debug, Clone)]
pub struct FleetAggregate {
    /// Devices simulated.
    pub devices: u64,
    /// Total scheduling ticks across the fleet.
    pub ticks: u64,
    /// Total calibrations adopted/ran across the fleet.
    pub recalibrations: u64,
    /// Battery lifetime (service time) distribution, seconds.
    pub lifetime_s: QuantileSketch,
    /// Peak hot-spot temperature distribution, degC.
    pub hotspot_c: QuantileSketch,
    /// Per-device max calibration-staleness distribution, seconds.
    pub staleness_s: QuantileSketch,
    /// Per-shard throughput counters.
    pub shards: Vec<ShardThroughput>,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: f64,
}

impl FleetAggregate {
    /// Devices per wall-clock second over the whole run.
    pub fn devices_per_s(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.devices as f64 / (self.wall_ms / 1e3)
    }
}

/// A completed fleet run: summaries in fleet order plus the aggregate.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-device summaries; index `i` is device `i` of the fleet.
    pub summaries: Vec<DeviceSummary>,
    /// Fleet-level aggregation.
    pub aggregate: FleetAggregate,
}

/// Runs fleet rosters to completion under a [`FleetConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// A runner with the given configuration.
    pub fn new(config: FleetConfig) -> Self {
        FleetRunner { config }
    }

    /// The configuration this runner applies.
    pub fn config(&self) -> FleetConfig {
        self.config
    }

    /// Simulate every device of the fleet and aggregate.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty or the batch size is zero.
    pub fn run(&self, fleet: &Fleet) -> FleetResult {
        assert!(!fleet.is_empty(), "cannot run an empty fleet");
        assert!(self.config.batch > 0, "batch size must be positive");
        let _run_span = capman_obs::span("fleet_run", fleet.len() as u64);
        let t0 = Instant::now();
        let batch = self.config.batch;
        let n_shards = fleet.len().div_ceil(batch);
        // One pre-sized cell per shard: every worker writes only its own
        // cell (indexed by the chunk position), so no lock is taken and
        // no post-hoc sort is needed — cell order IS shard order, and
        // concatenating the cells' summaries reproduces fleet order.
        let mut cells: Vec<ShardCell> = (0..n_shards).map(|_| ShardCell::default()).collect();
        if self.config.parallel {
            cells.par_chunks_mut(1).enumerate().for_each(|shard, cell| {
                run_shard(fleet, shard, batch, &mut cell[0]);
            });
        } else {
            for (shard, cell) in cells.iter_mut().enumerate() {
                run_shard(fleet, shard, batch, cell);
            }
        }
        let mut summaries: Vec<DeviceSummary> = Vec::with_capacity(fleet.len());
        let mut shards: Vec<ShardThroughput> = Vec::with_capacity(n_shards);
        for cell in cells {
            summaries.extend(cell.summaries);
            shards.push(cell.throughput.expect("every shard cell ran exactly once"));
        }
        let aggregate = aggregate(fleet, &summaries, shards, t0);
        FleetResult {
            summaries,
            aggregate,
        }
    }
}

/// Feed the registry from exactly the per-shard values that go into
/// [`ShardThroughput`], so registry totals always equal the
/// `ShardThroughput`-derived sums (the obs acceptance test checks this
/// equality).
pub(crate) fn record_shard_metrics(devices: u64, ticks: u64) {
    if capman_obs::enabled() {
        capman_obs::counter!("fleet_shards_total", "Fleet shards executed").inc();
        capman_obs::counter!("fleet_devices_total", "Devices simulated to completion").add(devices);
        capman_obs::counter!("fleet_ticks_total", "Scheduler ticks across all devices").add(ticks);
    }
}

/// One shard's output: its summaries (in device order) plus throughput.
/// Workers own disjoint cells, so writes need no synchronisation.
#[derive(Debug, Default)]
struct ShardCell {
    summaries: Vec<DeviceSummary>,
    throughput: Option<ShardThroughput>,
}

/// Simulate one shard's contiguous device range into its cell. The
/// shard owns a single [`FleetPolicy`] slot re-initialised in place per
/// device, so the loop performs no per-device policy allocation.
fn run_shard(fleet: &Fleet, shard: usize, batch: usize, cell: &mut ShardCell) {
    let _shard_span = capman_obs::span("fleet_shard", shard as u64);
    let t_shard = Instant::now();
    let start = shard * batch;
    let end = (start + batch).min(fleet.len());
    cell.summaries.reserve_exact(end - start);
    let mut slot = FleetPolicy::placeholder();
    let mut ticks = 0u64;
    for spec in &fleet.devices[start..end] {
        let summary = run_device(fleet, spec, &mut slot);
        ticks += summary.ticks;
        cell.summaries.push(summary);
    }
    record_shard_metrics(cell.summaries.len() as u64, ticks);
    cell.throughput = Some(ShardThroughput {
        shard,
        devices: cell.summaries.len() as u64,
        ticks,
        wall_ms: t_shard.elapsed().as_secs_f64() * 1e3,
    });
}

/// Simulate one device to completion, re-initialising the shard's
/// policy slot for it.
fn run_device(fleet: &Fleet, spec: &DeviceSpec, slot: &mut FleetPolicy) -> DeviceSummary {
    let profile = &fleet.profiles[spec.cohort];
    let mut trace = profile.trace(spec);
    let config = profile.device_config(spec);
    let pack = build_pack(profile.kind);
    *slot = FleetPolicy::for_device(profile, spec, None, || trace.clone());
    let mut sim = DeviceSim::new(
        Arc::new(profile.phone.clone()),
        Arc::new(profile.phone.power_model()),
        pack,
        config,
    );
    let mut lean = LeanTelemetry::default();
    while sim.step(slot, &mut trace, &mut lean).is_none() {}
    DeviceSummary {
        device_id: spec.device_id,
        cohort: spec.cohort,
        service_time_s: sim.time_s(),
        work_served: sim.work_served(),
        energy_delivered_j: sim.energy_delivered_j(),
        max_hotspot_c: sim.peak_hotspot_c(),
        switches: sim.switches(),
        ticks: lean.samples,
        recalibrations: slot.recalibrations(),
        max_staleness_s: lean.max_staleness_s,
    }
}

/// The canonical sketch geometries of the fleet aggregate. The arena's
/// streaming per-shard folds build the same geometries so their bin-wise
/// merges equal this serial fold exactly.
pub(crate) fn lifetime_sketch(horizon: f64) -> QuantileSketch {
    QuantileSketch::new(0.0, horizon, 2048)
}

/// Peak-hot-spot sketch geometry (see [`lifetime_sketch`]).
pub(crate) fn hotspot_sketch() -> QuantileSketch {
    QuantileSketch::new(15.0, 90.0, 750)
}

/// Calibration-staleness sketch geometry (see [`lifetime_sketch`]).
pub(crate) fn staleness_sketch() -> QuantileSketch {
    QuantileSketch::new(0.0, 120.0, 1200)
}

/// Fold per-device summaries into the fleet aggregate. Runs serially in
/// fleet order over already-reduced summaries, so it is deterministic
/// regardless of how the shards were scheduled.
fn aggregate(
    fleet: &Fleet,
    summaries: &[DeviceSummary],
    shards: Vec<ShardThroughput>,
    t0: Instant,
) -> FleetAggregate {
    let horizon = fleet
        .profiles
        .iter()
        .map(|p| p.config.max_horizon_s)
        .fold(1.0, f64::max);
    let mut lifetime_s = lifetime_sketch(horizon);
    let mut hotspot_c = hotspot_sketch();
    let mut staleness_s = staleness_sketch();
    let mut ticks = 0u64;
    let mut recalibrations = 0u64;
    for s in summaries {
        lifetime_s.insert(s.service_time_s);
        hotspot_c.insert(s.max_hotspot_c);
        staleness_s.insert(s.max_staleness_s);
        ticks += s.ticks;
        recalibrations += s.recalibrations;
    }
    FleetAggregate {
        devices: summaries.len() as u64,
        ticks,
        recalibrations,
        lifetime_s,
        hotspot_c,
        staleness_s,
        shards,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::FleetProfile;
    use capman_core::experiments::PolicyKind;
    use capman_workload::WorkloadKind;

    /// A small, short-horizon fleet that still crosses the calibration
    /// interval at least once for CAPMAN cohorts.
    fn tiny_fleet(devices_per_profile: usize) -> Fleet {
        let mut capman = FleetProfile::capman("video", WorkloadKind::Video, 21);
        capman.config.max_horizon_s = 1500.0;
        capman.calibrator.every_s = 600.0;
        let mut dual = FleetProfile::capman("pcmark-dual", WorkloadKind::Pcmark, 22);
        dual.kind = PolicyKind::Dual;
        dual.config.max_horizon_s = 1500.0;
        dual.config.tec_enabled = false;
        Fleet::build(vec![capman, dual], devices_per_profile)
    }

    #[test]
    fn sharded_parallel_run_is_bit_identical_to_serial() {
        let fleet = tiny_fleet(3);
        let serial = FleetRunner::new(FleetConfig {
            parallel: false,
            ..FleetConfig::default()
        })
        .run(&fleet);
        let parallel = FleetRunner::new(FleetConfig {
            parallel: true,
            batch: 2,
        })
        .run(&fleet);
        assert_eq!(serial.summaries, parallel.summaries);
    }

    #[test]
    fn summaries_follow_fleet_order() {
        let fleet = tiny_fleet(2);
        let result = FleetRunner::new(FleetConfig {
            batch: 3,
            ..FleetConfig::default()
        })
        .run(&fleet);
        assert_eq!(result.summaries.len(), fleet.len());
        for (spec, summary) in fleet.devices.iter().zip(&result.summaries) {
            assert_eq!(spec.device_id, summary.device_id);
            assert_eq!(spec.cohort, summary.cohort);
        }
    }

    #[test]
    fn aggregate_sketches_cover_every_device() {
        let fleet = tiny_fleet(2);
        let result = FleetRunner::new(FleetConfig::default()).run(&fleet);
        let agg = &result.aggregate;
        assert_eq!(agg.lifetime_s.count(), agg.devices);
        assert_eq!(agg.hotspot_c.count(), agg.devices);
        assert!(agg.lifetime_s.p50() > 0.0);
        let shard_devices: u64 = agg.shards.iter().map(|s| s.devices).sum();
        assert_eq!(shard_devices, agg.devices);
        let shard_ticks: u64 = agg.shards.iter().map(|s| s.ticks).sum();
        assert_eq!(shard_ticks, agg.ticks);
    }
}
