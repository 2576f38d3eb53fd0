//! Time-series telemetry (the signals behind Figs. 13 and 15), plus the
//! background-calibration event log fed by the similarity engine.

use capman_battery::chemistry::Class;

/// One telemetry sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Total active power drawn from the pack, milliwatts.
    pub power_mw: f64,
    /// Hot-spot temperature, degC.
    pub hotspot_c: f64,
    /// Shell (skin) temperature, degC.
    pub shell_c: f64,
    /// Battery node temperature, degC.
    pub battery_c: f64,
    /// State of charge of the big cell.
    pub big_soc: f64,
    /// State of charge of the LITTLE cell (1.0 for single packs).
    pub little_soc: f64,
    /// The cell carrying the load.
    pub active: Class,
    /// Whether the TEC was energised.
    pub tec_on: bool,
    /// Terminal voltage of the active cell, volts.
    pub voltage_v: f64,
}

/// One background-calibration event: when it ran and what the similarity
/// engine did (sweeps, exact EMD solves, memo-cache hits, bound-pruned
/// pairs, wall time).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSample {
    /// Simulation time the calibration ran, seconds.
    pub time_s: f64,
    /// Fixpoint sweeps of Algorithm 1.
    pub sweeps: usize,
    /// Exact SSP solves performed by the engine.
    pub emd_solves: usize,
    /// Pairs served from the EMD memo cache.
    pub cache_hits: usize,
    /// Pairs decided by the EMD bounds without a solve.
    pub bound_pruned: usize,
    /// Wall time of the engine run, microseconds.
    pub wall_us: f64,
    /// Action nodes in the pruned calibration graph.
    pub graph_action_nodes: usize,
    /// Jacobi sweeps of the coarse-to-fine Bellman pipeline (quotient
    /// levels plus the final full-space solve).
    pub bellman_sweeps: usize,
    /// Quotient levels the pipeline solved before the full space.
    pub bellman_levels: usize,
    /// Whether the solve was seeded from the previous calibration.
    pub warm_started: bool,
    /// Simulated seconds between the calibration being requested and
    /// the first scheduling tick that observed its result. Zero for
    /// inline (blocking) calibrations; positive when the work ran on an
    /// asynchronous pool while the device kept ticking.
    pub staleness_s: f64,
}

impl CalibrationSample {
    /// Fraction of non-pruned pair evaluations served by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let looked_up = self.cache_hits + self.emd_solves;
        if looked_up == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked_up as f64
        }
    }
}

/// Throughput counters of one fleet shard: how many devices a worker
/// carried through how many scheduling ticks, and the wall-clock it
/// took. The fleet runner fills one per shard and the report derives
/// devices/sec and ticks/sec from the sums; they live here (rather than
/// in the fleet crate) so single-run tooling can emit the same counter
/// shape for a "fleet of one".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardThroughput {
    /// Shard index within the run.
    pub shard: usize,
    /// Devices simulated by this shard.
    pub devices: u64,
    /// Scheduling ticks executed across those devices.
    pub ticks: u64,
    /// Wall-clock the shard took, milliseconds.
    pub wall_ms: f64,
}

impl ShardThroughput {
    /// Devices per wall-clock second (0.0 for a zero-duration shard).
    pub fn devices_per_s(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.devices as f64 / (self.wall_ms / 1e3)
    }

    /// Scheduling ticks per wall-clock second (0.0 for a zero-duration
    /// shard).
    pub fn ticks_per_s(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.ticks as f64 / (self.wall_ms / 1e3)
    }
}

/// Where the simulation engine delivers telemetry: the full time series
/// ([`Telemetry`]) or the fleet arena's counters ([`LeanTelemetry`]).
///
/// The engine constructs samples identically for every sink; a sink only
/// chooses what to *retain*, so swapping sinks cannot change simulation
/// results.
pub trait TelemetrySink {
    /// Deliver one time-series sample.
    fn record_sample(&mut self, sample: Sample);
    /// Deliver one background-calibration event.
    fn record_calibration(&mut self, sample: CalibrationSample);
}

/// A constant-memory telemetry sink for fleet-scale runs: counts samples
/// and folds the calibration staleness maximum instead of retaining the
/// series.
///
/// The counters match the full sink exactly: `samples` equals
/// [`Telemetry::len`] and `max_staleness_s` equals
/// [`Telemetry::max_calibration_staleness_s`] for the same delivery
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeanTelemetry {
    /// Number of samples delivered (the device's scheduling-tick count
    /// as fleet summaries define it).
    pub samples: u64,
    /// Number of calibration events delivered.
    pub calibrations: u64,
    /// Largest calibration staleness observed, simulated seconds (0.0
    /// when no calibration ran or all were inline).
    pub max_staleness_s: f64,
}

impl TelemetrySink for LeanTelemetry {
    fn record_sample(&mut self, _sample: Sample) {
        self.samples += 1;
    }

    fn record_calibration(&mut self, sample: CalibrationSample) {
        self.calibrations += 1;
        self.max_staleness_s = f64::max(self.max_staleness_s, sample.staleness_s);
    }
}

/// A sampled time series with summary statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    samples: Vec<Sample>,
    calibrations: Vec<CalibrationSample>,
}

impl TelemetrySink for Telemetry {
    fn record_sample(&mut self, sample: Sample) {
        self.push(sample);
    }

    fn record_calibration(&mut self, sample: CalibrationSample) {
        self.push_calibration(sample);
    }
}

impl Telemetry {
    /// An empty series.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Append a sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Append a background-calibration event.
    pub fn push_calibration(&mut self, sample: CalibrationSample) {
        self.calibrations.push(sample);
    }

    /// All calibration events in time order.
    pub fn calibrations(&self) -> &[CalibrationSample] {
        &self.calibrations
    }

    /// Mean engine wall time per calibration, microseconds (0.0 when no
    /// calibration ran — fleet aggregation folds empty shards, so every
    /// aggregate here is total on empty sample sets).
    pub fn mean_calibration_wall_us(&self) -> f64 {
        if self.calibrations.is_empty() {
            return 0.0;
        }
        self.calibrations.iter().map(|c| c.wall_us).sum::<f64>() / self.calibrations.len() as f64
    }

    /// Largest calibration staleness observed, simulated seconds (0.0
    /// when no calibration ran or all were inline).
    pub fn max_calibration_staleness_s(&self) -> f64 {
        self.calibrations
            .iter()
            .map(|c| c.staleness_s)
            .fold(0.0, f64::max)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum hot-spot temperature seen, degC (0.0 on an empty series
    /// — an empty shard must fold to a finite aggregate, not -inf).
    pub fn max_hotspot_c(&self) -> f64 {
        self.samples.iter().map(|s| s.hotspot_c).fold(0.0, f64::max)
    }

    /// Mean hot-spot temperature, degC (0.0 on an empty series).
    pub fn mean_hotspot_c(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.hotspot_c).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean active power, milliwatts (0.0 on an empty series).
    pub fn mean_power_mw(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.power_mw).sum::<f64>() / self.samples.len() as f64
    }

    /// Peak active power, milliwatts (0.0 on an empty series).
    pub fn max_power_mw(&self) -> f64 {
        self.samples.iter().map(|s| s.power_mw).fold(0.0, f64::max)
    }

    /// Fraction of samples with the TEC energised.
    pub fn tec_duty(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.tec_on).count() as f64 / self.samples.len() as f64
    }

    /// Fraction of samples with the LITTLE cell active.
    pub fn little_share(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .filter(|s| s.active == Class::Little)
            .count() as f64
            / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, power: f64, hot: f64, tec: bool, active: Class) -> Sample {
        Sample {
            time_s: t,
            power_mw: power,
            hotspot_c: hot,
            shell_c: 30.0,
            battery_c: 28.0,
            big_soc: 0.8,
            little_soc: 0.7,
            active,
            tec_on: tec,
            voltage_v: 3.7,
        }
    }

    #[test]
    fn summary_statistics() {
        let mut t = Telemetry::new();
        t.push(sample(0.0, 1000.0, 40.0, false, Class::Big));
        t.push(sample(30.0, 2000.0, 50.0, true, Class::Little));
        assert_eq!(t.len(), 2);
        assert!((t.mean_power_mw() - 1500.0).abs() < 1e-9);
        assert_eq!(t.max_power_mw(), 2000.0);
        assert_eq!(t.max_hotspot_c(), 50.0);
        assert!((t.mean_hotspot_c() - 45.0).abs() < 1e-9);
        assert!((t.tec_duty() - 0.5).abs() < 1e-12);
        assert!((t.little_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series_aggregates_to_zero_not_nan() {
        // Fleet aggregation folds empty shards through these; every
        // aggregate must be a number, not NaN.
        let t = Telemetry::new();
        assert!(t.is_empty());
        assert_eq!(t.tec_duty(), 0.0);
        assert_eq!(t.little_share(), 0.0);
        assert_eq!(t.mean_power_mw(), 0.0);
        assert_eq!(t.mean_hotspot_c(), 0.0);
        assert!(t.calibrations().is_empty());
        assert_eq!(t.mean_calibration_wall_us(), 0.0);
        assert_eq!(t.max_calibration_staleness_s(), 0.0);
        assert_eq!(t.max_power_mw(), 0.0, "peak of nothing is 0, not -inf");
        assert_eq!(t.max_hotspot_c(), 0.0, "peak of nothing is 0, not -inf");
    }

    #[test]
    fn zero_denominator_ratios_are_zero_not_nan() {
        // Every ratio helper on this type must survive a zero
        // denominator: a calibration that never looked a pair up, and a
        // shard that finished in under the clock's resolution.
        let no_lookups = CalibrationSample {
            time_s: 0.0,
            sweeps: 0,
            emd_solves: 0,
            cache_hits: 0,
            bound_pruned: 5,
            wall_us: 0.0,
            graph_action_nodes: 0,
            bellman_sweeps: 0,
            bellman_levels: 0,
            warm_started: false,
            staleness_s: 0.0,
        };
        assert_eq!(no_lookups.cache_hit_rate(), 0.0);
        let instant = ShardThroughput {
            shard: 0,
            devices: 64,
            ticks: 64_000,
            wall_ms: 0.0,
        };
        assert_eq!(instant.devices_per_s(), 0.0);
        assert_eq!(instant.ticks_per_s(), 0.0);
        let negative_wall = ShardThroughput {
            wall_ms: -1.0,
            ..instant
        };
        assert_eq!(negative_wall.devices_per_s(), 0.0);
        assert_eq!(negative_wall.ticks_per_s(), 0.0);
    }

    #[test]
    fn shard_throughput_rates_handle_zero_wall() {
        let idle = ShardThroughput::default();
        assert_eq!(idle.devices_per_s(), 0.0);
        assert_eq!(idle.ticks_per_s(), 0.0);
        let busy = ShardThroughput {
            shard: 1,
            devices: 128,
            ticks: 128_000,
            wall_ms: 2000.0,
        };
        assert!((busy.devices_per_s() - 64.0).abs() < 1e-9);
        assert!((busy.ticks_per_s() - 64_000.0).abs() < 1e-9);
    }

    #[test]
    fn lean_sink_matches_full_sink_counters() {
        let mut full = Telemetry::new();
        let mut lean = LeanTelemetry::default();
        for i in 0..5 {
            let s = sample(f64::from(i) * 30.0, 1000.0, 40.0, false, Class::Big);
            full.record_sample(s);
            lean.record_sample(s);
        }
        for staleness in [0.0, 4.5, 2.0] {
            let cal = CalibrationSample {
                time_s: 100.0,
                sweeps: 1,
                emd_solves: 0,
                cache_hits: 0,
                bound_pruned: 0,
                wall_us: 10.0,
                graph_action_nodes: 1,
                bellman_sweeps: 1,
                bellman_levels: 0,
                warm_started: false,
                staleness_s: staleness,
            };
            full.record_calibration(cal.clone());
            lean.record_calibration(cal);
        }
        assert_eq!(lean.samples as usize, full.len());
        assert_eq!(lean.calibrations as usize, full.calibrations().len());
        assert_eq!(lean.max_staleness_s, full.max_calibration_staleness_s());
    }

    #[test]
    fn calibration_events_accumulate() {
        let mut t = Telemetry::new();
        t.push_calibration(CalibrationSample {
            time_s: 1200.0,
            sweeps: 5,
            emd_solves: 40,
            cache_hits: 60,
            bound_pruned: 10,
            wall_us: 300.0,
            graph_action_nodes: 8,
            bellman_sweeps: 120,
            bellman_levels: 2,
            warm_started: false,
            staleness_s: 0.0,
        });
        t.push_calibration(CalibrationSample {
            time_s: 2400.0,
            sweeps: 3,
            emd_solves: 0,
            cache_hits: 100,
            bound_pruned: 10,
            wall_us: 100.0,
            graph_action_nodes: 8,
            bellman_sweeps: 9,
            bellman_levels: 2,
            warm_started: true,
            staleness_s: 3.0,
        });
        assert_eq!(t.calibrations().len(), 2);
        assert!((t.mean_calibration_wall_us() - 200.0).abs() < 1e-9);
        assert_eq!(t.max_calibration_staleness_s(), 3.0);
        assert!((t.calibrations()[0].cache_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(t.calibrations()[1].cache_hit_rate(), 1.0);
        // The warm second calibration spends far fewer Bellman sweeps.
        assert!(t.calibrations()[1].warm_started);
        assert!(t.calibrations()[1].bellman_sweeps < t.calibrations()[0].bellman_sweeps);
    }
}
