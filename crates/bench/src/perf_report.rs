//! Machine-readable perf tracking: `BENCH_mdp.json`.
//!
//! The `bench_mdp` binary measures the solver and similarity hot paths
//! and serialises the numbers here, so the perf trajectory is diffable
//! across PRs (the vendored serde stand-in has no format backend, so
//! the JSON is emitted by hand — the schema is flat enough for that).

use std::fmt::Write as _;

/// `num / den` with the zero/degenerate denominator guarded to 0.0 —
/// every ratio a report derives goes through here so an empty or
/// zero-wall measurement renders as 0, never NaN/Inf (which would also
/// corrupt the hand-written JSON).
pub fn guarded_ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One solver measurement row.
#[derive(Debug, Clone)]
pub struct SolverRow {
    /// State count of the fixture graph.
    pub states: usize,
    /// `(state, action)` pairs with outcomes.
    pub action_nodes: usize,
    /// Total transition edges.
    pub outcomes: usize,
    /// Bellman sweeps to convergence.
    pub iterations: usize,
    /// Pre-CSR baseline: nested-Vec Gauss–Seidel, milliseconds.
    pub nested_ms: f64,
    /// CSR solver, serial schedule, milliseconds.
    pub csr_serial_ms: f64,
    /// CSR solver, parallel schedule, milliseconds.
    pub csr_parallel_ms: f64,
    /// Every serial-CSR rep, milliseconds — the per-rep distribution
    /// the statistical perf gate runs Welch's t-test over (empty in
    /// reports predating the samples schema).
    pub csr_serial_ms_samples: Vec<f64>,
}

impl SolverRow {
    /// Speedup of the serial CSR solver over the nested baseline
    /// (0.0 when the CSR measurement is degenerate).
    pub fn speedup_serial(&self) -> f64 {
        guarded_ratio(self.nested_ms, self.csr_serial_ms)
    }

    /// Speedup of the parallel CSR solver over the nested baseline
    /// (0.0 when the CSR measurement is degenerate).
    pub fn speedup_parallel(&self) -> f64 {
        guarded_ratio(self.nested_ms, self.csr_parallel_ms)
    }
}

/// One similarity-engine measurement row.
#[derive(Debug, Clone)]
pub struct SimilarityRow {
    /// State count of the fixture graph.
    pub states: usize,
    /// Reference recursion wall time, milliseconds.
    pub reference_ms: f64,
    /// Parallel memoized engine wall time, milliseconds.
    pub engine_ms: f64,
    /// Every engine rep, milliseconds (Welch's t-test input).
    pub engine_ms_samples: Vec<f64>,
}

impl SimilarityRow {
    /// Speedup of the engine over the reference recursion (0.0 when the
    /// engine measurement is degenerate).
    pub fn speedup(&self) -> f64 {
        guarded_ratio(self.reference_ms, self.engine_ms)
    }
}

/// The full report the binary writes.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Worker threads available to the parallel paths.
    pub threads: usize,
    /// Solver rows, one per fixture size.
    pub solver: Vec<SolverRow>,
    /// Similarity rows, one per fixture size.
    pub similarity: Vec<SimilarityRow>,
}

fn push_f64(out: &mut String, key: &str, value: f64, trailing: bool) {
    let _ = write!(out, "      \"{key}\": {value:.4}");
    out.push_str(if trailing { ",\n" } else { "\n" });
}

/// Emit a per-rep sample array. Omitted entirely when empty so reports
/// from `--reps 1`-era tooling keep their exact legacy shape; the flat
/// `parse_rows` extractor skips nested arrays either way, so only the
/// statistical gate sees these.
fn push_samples(out: &mut String, key: &str, samples: &[f64], trailing: bool) {
    if samples.is_empty() {
        return;
    }
    let _ = write!(out, "      \"{key}\": [");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{s:.4}");
    }
    out.push(']');
    out.push_str(if trailing { ",\n" } else { "\n" });
}

impl PerfReport {
    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"generated_by\": \"cargo run --release -p capman-bench --bin bench_mdp\","
        );
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        out.push_str("  \"solver\": [\n");
        for (i, row) in self.solver.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"states\": {},", row.states);
            let _ = writeln!(out, "      \"action_nodes\": {},", row.action_nodes);
            let _ = writeln!(out, "      \"outcomes\": {},", row.outcomes);
            let _ = writeln!(out, "      \"iterations\": {},", row.iterations);
            push_f64(&mut out, "nested_gauss_seidel_ms", row.nested_ms, true);
            push_f64(&mut out, "csr_serial_ms", row.csr_serial_ms, true);
            push_f64(&mut out, "csr_parallel_ms", row.csr_parallel_ms, true);
            push_samples(
                &mut out,
                "csr_serial_ms_samples",
                &row.csr_serial_ms_samples,
                true,
            );
            push_f64(&mut out, "speedup_serial", row.speedup_serial(), true);
            push_f64(&mut out, "speedup_parallel", row.speedup_parallel(), false);
            out.push_str(if i + 1 < self.solver.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"similarity\": [\n");
        for (i, row) in self.similarity.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"states\": {},", row.states);
            push_f64(&mut out, "reference_ms", row.reference_ms, true);
            push_f64(&mut out, "engine_ms", row.engine_ms, true);
            push_samples(&mut out, "engine_ms_samples", &row.engine_ms_samples, true);
            push_f64(&mut out, "speedup", row.speedup(), false);
            out.push_str(if i + 1 < self.similarity.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One quotient level of a recalibration measurement, warm vs cold.
#[derive(Debug, Clone)]
pub struct RecalLevelRow {
    /// Similarity threshold that induced the level.
    pub theta: f64,
    /// Quotient states at this level.
    pub n_clusters: usize,
    /// Jacobi sweeps with the coarse-to-fine warm start.
    pub warm_sweeps: usize,
    /// Jacobi sweeps solving the same level from zeros.
    pub cold_sweeps: usize,
}

/// One recalibration measurement row (one fixture size).
#[derive(Debug, Clone)]
pub struct RecalRow {
    /// State count of the fixture.
    pub states: usize,
    /// `(state, action)` pairs with outcomes.
    pub action_nodes: usize,
    /// Total transition edges.
    pub outcomes: usize,
    /// Per-level sweep ledger, coarse → fine.
    pub levels: Vec<RecalLevelRow>,
    /// Full-space sweeps after the warm-started ladder.
    pub warm_final_sweeps: usize,
    /// Full-space sweeps from a cold start.
    pub cold_final_sweeps: usize,
    /// Total sweeps, warm pipeline (levels + final).
    pub warm_total_sweeps: usize,
    /// Total sweeps, cold baseline (levels + final).
    pub cold_total_sweeps: usize,
    /// Warm pipeline wall time, milliseconds (min over reps).
    pub warm_ms: f64,
    /// Every warm-pipeline rep, milliseconds (Welch's t-test input).
    pub warm_ms_samples: Vec<f64>,
    /// Cold baseline wall time, milliseconds (min over reps).
    pub cold_ms: f64,
    /// Warm pipeline with the f32 kernel, milliseconds.
    pub f32_ms: f64,
    /// Max abs deviation of the f32 values from the f64 oracle.
    pub f32_max_abs_err: f64,
}

impl RecalRow {
    /// Wall-time speedup of the warm pipeline over the cold baseline
    /// (0.0 when the warm measurement is degenerate).
    pub fn speedup(&self) -> f64 {
        guarded_ratio(self.cold_ms, self.warm_ms)
    }

    /// Sweep reduction: cold total over warm total.
    pub fn sweep_ratio(&self) -> f64 {
        self.cold_total_sweeps as f64 / self.warm_total_sweeps.max(1) as f64
    }
}

/// One drift-ladder measurement: incremental recalibration (in-place
/// row patch + closure-restricted Bellman sweeps) against the
/// full-rebuild warm baseline, at a given dirty fraction.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Fraction of populated rows that drifted (the gate's row key).
    pub dirty_frac: f64,
    /// State count of the fixture.
    pub states: usize,
    /// Dirty `(state, action)` rows patched.
    pub dirty_rows: usize,
    /// Distinct owners of the dirty rows.
    pub dirty_states: usize,
    /// Backward closure the restricted sweeps covered (the whole space
    /// on fallback).
    pub affected_states: usize,
    /// Whether the pipeline took its full-solve fallback.
    pub full_fallback: bool,
    /// Incremental path (patch + restricted solve), milliseconds (min
    /// over reps).
    pub wall_ms: f64,
    /// Every incremental rep, milliseconds (Welch's t-test input).
    pub wall_ms_samples: Vec<f64>,
    /// Full rebuild + warm solve, milliseconds (min over reps).
    pub full_ms: f64,
    /// Every full-rebuild rep, milliseconds.
    pub full_ms_samples: Vec<f64>,
}

impl IncrementalRow {
    /// Wall-time win of the incremental path over the full rebuild.
    pub fn speedup(&self) -> f64 {
        guarded_ratio(self.full_ms, self.wall_ms)
    }
}

/// The report `bench_recalibrate` writes to `BENCH_recalibrate.json`.
#[derive(Debug, Clone, Default)]
pub struct RecalReport {
    /// Worker threads available to the parallel paths.
    pub threads: usize,
    /// Discount factor of every solve.
    pub rho: f64,
    /// Precision target of every solve.
    pub eps: f64,
    /// Measurement rows, one per fixture size.
    pub rows: Vec<RecalRow>,
    /// Drift-ladder rows, one per dirty fraction.
    pub incremental: Vec<IncrementalRow>,
}

impl RecalReport {
    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"generated_by\": \"cargo run --release -p capman-bench --bin bench_recalibrate\","
        );
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"rho\": {},", self.rho);
        let _ = writeln!(out, "  \"eps\": {:e},", self.eps);
        out.push_str("  \"recalibration\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"states\": {},", row.states);
            let _ = writeln!(out, "      \"action_nodes\": {},", row.action_nodes);
            let _ = writeln!(out, "      \"outcomes\": {},", row.outcomes);
            out.push_str("      \"levels\": [\n");
            for (j, lvl) in row.levels.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"theta\": {}, \"n_clusters\": {}, \"warm_sweeps\": {}, \"cold_sweeps\": {}}}",
                    lvl.theta, lvl.n_clusters, lvl.warm_sweeps, lvl.cold_sweeps
                );
                out.push_str(if j + 1 < row.levels.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("      ],\n");
            let _ = writeln!(
                out,
                "      \"warm_final_sweeps\": {},",
                row.warm_final_sweeps
            );
            let _ = writeln!(
                out,
                "      \"cold_final_sweeps\": {},",
                row.cold_final_sweeps
            );
            let _ = writeln!(
                out,
                "      \"warm_total_sweeps\": {},",
                row.warm_total_sweeps
            );
            let _ = writeln!(
                out,
                "      \"cold_total_sweeps\": {},",
                row.cold_total_sweeps
            );
            push_f64(&mut out, "warm_ms", row.warm_ms, true);
            push_samples(&mut out, "warm_ms_samples", &row.warm_ms_samples, true);
            push_f64(&mut out, "cold_ms", row.cold_ms, true);
            push_f64(&mut out, "f32_ms", row.f32_ms, true);
            let _ = writeln!(out, "      \"f32_max_abs_err\": {:e},", row.f32_max_abs_err);
            push_f64(&mut out, "sweep_ratio", row.sweep_ratio(), true);
            push_f64(&mut out, "speedup", row.speedup(), false);
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"incremental\": [\n");
        for (i, row) in self.incremental.iter().enumerate() {
            out.push_str("    {\n");
            push_f64(&mut out, "dirty_frac", row.dirty_frac, true);
            let _ = writeln!(out, "      \"states\": {},", row.states);
            let _ = writeln!(out, "      \"dirty_rows\": {},", row.dirty_rows);
            let _ = writeln!(out, "      \"dirty_states\": {},", row.dirty_states);
            let _ = writeln!(out, "      \"affected_states\": {},", row.affected_states);
            let _ = writeln!(out, "      \"full_fallback\": {},", row.full_fallback as u8);
            push_f64(&mut out, "wall_ms", row.wall_ms, true);
            push_samples(&mut out, "wall_ms_samples", &row.wall_ms_samples, true);
            push_f64(&mut out, "full_ms", row.full_ms, true);
            push_samples(&mut out, "full_ms_samples", &row.full_ms_samples, true);
            push_f64(&mut out, "speedup", row.speedup(), false);
            out.push_str(if i + 1 < self.incremental.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One fleet measurement row: the same fleet carried through a full
/// discharge cycle twice, with inline (blocking per-device) and pooled
/// (background, coalesced) calibration.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Devices in the fleet.
    pub devices: usize,
    /// Cohort profiles the devices were instantiated from.
    pub cohorts: usize,
    /// Scheduling ticks per mode (must match between modes — the
    /// calibration path must not change how long devices tick).
    pub ticks: u64,
    /// Wall time with inline calibration, milliseconds.
    pub inline_wall_ms: f64,
    /// Wall time of the pool arm (a threaded calibration service that
    /// never sheds), milliseconds.
    pub pool_wall_ms: f64,
    /// Every pool-arm rep, milliseconds (Welch's t-test input;
    /// one-element when the ladder runs with `--reps 1`).
    pub pool_wall_ms_samples: Vec<f64>,
    /// Calibrations run inline (one per device per due interval).
    pub inline_recalibrations: u64,
    /// Pool-arm solves actually executed (after cohort coalescing).
    pub pool_completed: u64,
    /// Pool-arm requests submitted by devices.
    pub pool_submitted: u64,
    /// Requests absorbed by their cohort's pending or in-flight
    /// calibration.
    pub pool_coalesced: u64,
    /// Requests the service shed or back-pressured (asserted zero).
    pub pool_dropped: u64,
    /// Median per-device max calibration staleness, simulated seconds.
    pub staleness_p50_s: f64,
    /// 95th-percentile staleness, simulated seconds.
    pub staleness_p95_s: f64,
    /// 99th-percentile staleness, simulated seconds.
    pub staleness_p99_s: f64,
    /// Per-rep p99 staleness, simulated seconds (Welch's t-test input).
    pub staleness_p99_s_samples: Vec<f64>,
    /// Largest staleness observed, simulated seconds.
    pub staleness_max_s: f64,
    /// Median battery lifetime across the fleet, seconds (pool mode).
    pub lifetime_p50_s: f64,
    /// 95th-percentile peak hot-spot temperature, degC (pool mode).
    pub hotspot_p95_c: f64,
}

impl FleetRow {
    /// Devices per wall-clock second, inline calibration (0.0 when the
    /// measurement is degenerate).
    pub fn inline_devices_per_s(&self) -> f64 {
        guarded_ratio(self.devices as f64, self.inline_wall_ms / 1e3)
    }

    /// Devices per wall-clock second, pooled calibration (0.0 when the
    /// measurement is degenerate).
    pub fn pool_devices_per_s(&self) -> f64 {
        guarded_ratio(self.devices as f64, self.pool_wall_ms / 1e3)
    }

    /// Throughput gain of the pool over inline calibration (0.0 when
    /// the pool measurement is degenerate).
    pub fn speedup(&self) -> f64 {
        guarded_ratio(self.inline_wall_ms, self.pool_wall_ms)
    }
}

/// One arena-path measurement row: the same two-cohort fleet driven
/// through the structure-of-arrays [`ArenaRunner`] with streaming
/// (memory-bounded) aggregation and pooled calibration. Where
/// [`FleetRow`] measures background calibration against inline solves,
/// an arena row measures the data-oriented fleet path itself —
/// throughput *and* peak memory, because the arena's contract is that
/// RSS stays flat while the device count grows.
///
/// [`ArenaRunner`]: capman_fleet::ArenaRunner
#[derive(Debug, Clone)]
pub struct ArenaRow {
    /// Devices in the fleet.
    pub devices: usize,
    /// Devices resident per shard arena (the memory knob).
    pub shard_devices: usize,
    /// Cohort profiles the devices were instantiated from.
    pub cohorts: usize,
    /// Scheduling ticks executed across the fleet.
    pub ticks: u64,
    /// Wall time of the arena run, milliseconds (min over reps).
    pub wall_ms: f64,
    /// Every rep, milliseconds (Welch's t-test input; one-element when
    /// the ladder runs with a single rep).
    pub wall_ms_samples: Vec<f64>,
    /// Process peak RSS (`VmHWM`) after the row, kibibytes. 0 means
    /// "unavailable on this platform", not "tiny".
    pub peak_rss_kb: u64,
    /// Calibrations adopted by devices.
    pub recalibrations: u64,
    /// Pool-arm solves actually executed (after cohort coalescing).
    pub pool_completed: u64,
    /// Requests the service shed or back-pressured (asserted zero).
    pub pool_dropped: u64,
    /// 99th-percentile per-device max calibration staleness, seconds.
    pub staleness_p99_s: f64,
    /// Median battery lifetime across the fleet, seconds.
    pub lifetime_p50_s: f64,
    /// 95th-percentile peak hot-spot temperature, degC.
    pub hotspot_p95_c: f64,
}

impl ArenaRow {
    /// Devices per wall-clock second (0.0 when the measurement is
    /// degenerate).
    pub fn devices_per_s(&self) -> f64 {
        guarded_ratio(self.devices as f64, self.wall_ms / 1e3)
    }
}

/// The report `bench_fleet` writes to `BENCH_fleet.json`.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Worker threads available to the sharded runner.
    pub threads: usize,
    /// Devices per shard.
    pub batch: usize,
    /// Simulated horizon of every device, seconds.
    pub horizon_s: f64,
    /// Calibration cadence of every cohort, seconds.
    pub every_s: f64,
    /// Measurement rows, one per fleet size.
    pub rows: Vec<FleetRow>,
    /// Arena-path rows, one per arena ladder size (empty when the run
    /// skipped the arena ladder).
    pub arena: Vec<ArenaRow>,
}

impl FleetReport {
    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"generated_by\": \"cargo run --release -p capman-bench --bin bench_fleet\","
        );
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"batch\": {},", self.batch);
        let _ = writeln!(out, "  \"horizon_s\": {},", self.horizon_s);
        let _ = writeln!(out, "  \"every_s\": {},", self.every_s);
        out.push_str("  \"fleet\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"devices\": {},", row.devices);
            let _ = writeln!(out, "      \"cohorts\": {},", row.cohorts);
            let _ = writeln!(out, "      \"ticks\": {},", row.ticks);
            push_f64(&mut out, "inline_wall_ms", row.inline_wall_ms, true);
            push_f64(&mut out, "pool_wall_ms", row.pool_wall_ms, true);
            push_samples(
                &mut out,
                "pool_wall_ms_samples",
                &row.pool_wall_ms_samples,
                true,
            );
            push_f64(
                &mut out,
                "inline_devices_per_s",
                row.inline_devices_per_s(),
                true,
            );
            push_f64(
                &mut out,
                "pool_devices_per_s",
                row.pool_devices_per_s(),
                true,
            );
            push_f64(&mut out, "speedup", row.speedup(), true);
            let _ = writeln!(
                out,
                "      \"inline_recalibrations\": {},",
                row.inline_recalibrations
            );
            let _ = writeln!(out, "      \"pool_completed\": {},", row.pool_completed);
            let _ = writeln!(out, "      \"pool_submitted\": {},", row.pool_submitted);
            let _ = writeln!(out, "      \"pool_coalesced\": {},", row.pool_coalesced);
            let _ = writeln!(out, "      \"pool_dropped\": {},", row.pool_dropped);
            push_f64(&mut out, "staleness_p50_s", row.staleness_p50_s, true);
            push_f64(&mut out, "staleness_p95_s", row.staleness_p95_s, true);
            push_f64(&mut out, "staleness_p99_s", row.staleness_p99_s, true);
            push_samples(
                &mut out,
                "staleness_p99_s_samples",
                &row.staleness_p99_s_samples,
                true,
            );
            push_f64(&mut out, "staleness_max_s", row.staleness_max_s, true);
            push_f64(&mut out, "lifetime_p50_s", row.lifetime_p50_s, true);
            push_f64(&mut out, "hotspot_p95_c", row.hotspot_p95_c, false);
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        if self.arena.is_empty() {
            out.push_str("  \"arena\": []\n}\n");
            return out;
        }
        out.push_str("  \"arena\": [\n");
        for (i, row) in self.arena.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"devices\": {},", row.devices);
            let _ = writeln!(out, "      \"shard_devices\": {},", row.shard_devices);
            let _ = writeln!(out, "      \"cohorts\": {},", row.cohorts);
            let _ = writeln!(out, "      \"ticks\": {},", row.ticks);
            push_f64(&mut out, "wall_ms", row.wall_ms, true);
            push_samples(&mut out, "wall_ms_samples", &row.wall_ms_samples, true);
            push_f64(&mut out, "devices_per_s", row.devices_per_s(), true);
            let _ = writeln!(out, "      \"peak_rss_kb\": {},", row.peak_rss_kb);
            let _ = writeln!(out, "      \"recalibrations\": {},", row.recalibrations);
            let _ = writeln!(out, "      \"pool_completed\": {},", row.pool_completed);
            let _ = writeln!(out, "      \"pool_dropped\": {},", row.pool_dropped);
            push_f64(&mut out, "staleness_p99_s", row.staleness_p99_s, true);
            push_f64(&mut out, "lifetime_p50_s", row.lifetime_p50_s, true);
            push_f64(&mut out, "hotspot_p95_c", row.hotspot_p95_c, false);
            out.push_str(if i + 1 < self.arena.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One serve-soak measurement row: the arena fleet driving the
/// resident calibration service at a fixed overload factor
/// (`devices_per_cohort` against a per-cohort quota of one admission
/// per cadence window). Where [`ArenaRow`] measures the fleet path,
/// a serve row measures the service's overload envelope: how much it
/// shed, whether every tenant kept its once-per-window adoption, and
/// what the served requests waited.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Devices per cohort — the overload factor (the gate's row key).
    pub overload_x: usize,
    /// Tenant cohorts sharing the service.
    pub cohorts: usize,
    /// Total devices generating traffic.
    pub devices: usize,
    /// Cadence windows the soak ran.
    pub windows: u32,
    /// Host wall time of the soak, milliseconds (min over reps).
    pub wall_ms: f64,
    /// Every rep, milliseconds (Welch's t-test input; one-element when
    /// the ladder runs with a single rep).
    pub wall_ms_samples: Vec<f64>,
    /// p99 first-submission-to-solve wait of served requests, simulated
    /// seconds.
    pub staleness_p99_s: f64,
    /// Per-rep p99 wait, simulated seconds (Welch's t-test input).
    pub staleness_p99_s_samples: Vec<f64>,
    /// p99 wait of picks served on the hot lane, simulated seconds.
    pub staleness_hot_p99_s: f64,
    /// p99 wait of picks served on the normal lane, simulated seconds.
    pub staleness_normal_p99_s: f64,
    /// p99 wait of picks served on the cold lane, simulated seconds.
    pub staleness_cold_p99_s: f64,
    /// Fraction of submissions whose payload never reached a solve.
    pub shed_fraction: f64,
    /// Calibration requests submitted by devices.
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests absorbed by an in-flight cohort solve.
    pub coalesced: u64,
    /// Requests that replaced a queued sibling (drop-oldest).
    pub replaced: u64,
    /// Requests refused by the per-cohort quota.
    pub shed: u64,
    /// Requests refused by the queue bound or drain.
    pub backpressure: u64,
    /// Solves executed and published.
    pub completed: u64,
    /// Admitted requests abandoned at shutdown.
    pub abandoned: u64,
    /// Worst gap, in windows, between consecutive publications of any
    /// cohort.
    pub max_gap_windows: u32,
    /// Did every cohort publish at least once per window?
    pub starvation_free: bool,
    /// p99 of the queue phase of served staleness, simulated seconds.
    pub phase_queue_p99_s: f64,
    /// p99 of the lane (passed-over) phase, simulated seconds.
    pub phase_lane_p99_s: f64,
    /// p99 of the solve phase, simulated seconds.
    pub phase_solve_p99_s: f64,
    /// p99 of the publish→adopt phase, simulated seconds.
    pub phase_publish_adopt_p99_s: f64,
}

impl ServeRow {
    /// Submissions per wall-clock second (0.0 when the measurement is
    /// degenerate).
    pub fn submissions_per_s(&self) -> f64 {
        guarded_ratio(self.submitted as f64, self.wall_ms / 1e3)
    }
}

/// The report `bench_serve` writes to `BENCH_serve.json`.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Worker threads available to the host (the soak itself is
    /// single-threaded by construction — recorded for context).
    pub threads: usize,
    /// Interleaved repetitions per overload level.
    pub reps: usize,
    /// Cadence window length, simulated seconds.
    pub window_s: f64,
    /// Cadence windows per soak.
    pub windows: u32,
    /// Measurement rows, one per overload factor.
    pub rows: Vec<ServeRow>,
}

impl ServeReport {
    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"generated_by\": \"cargo run --release -p capman-bench --bin bench_serve\","
        );
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"window_s\": {},", self.window_s);
        let _ = writeln!(out, "  \"windows\": {},", self.windows);
        if self.rows.is_empty() {
            out.push_str("  \"serve\": []\n}\n");
            return out;
        }
        out.push_str("  \"serve\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"overload_x\": {},", row.overload_x);
            let _ = writeln!(out, "      \"cohorts\": {},", row.cohorts);
            let _ = writeln!(out, "      \"devices\": {},", row.devices);
            let _ = writeln!(out, "      \"windows\": {},", row.windows);
            push_f64(&mut out, "wall_ms", row.wall_ms, true);
            push_samples(&mut out, "wall_ms_samples", &row.wall_ms_samples, true);
            push_f64(&mut out, "submissions_per_s", row.submissions_per_s(), true);
            push_f64(&mut out, "staleness_p99_s", row.staleness_p99_s, true);
            push_samples(
                &mut out,
                "staleness_p99_s_samples",
                &row.staleness_p99_s_samples,
                true,
            );
            push_f64(
                &mut out,
                "staleness_hot_p99_s",
                row.staleness_hot_p99_s,
                true,
            );
            push_f64(
                &mut out,
                "staleness_normal_p99_s",
                row.staleness_normal_p99_s,
                true,
            );
            push_f64(
                &mut out,
                "staleness_cold_p99_s",
                row.staleness_cold_p99_s,
                true,
            );
            push_f64(&mut out, "shed_fraction", row.shed_fraction, true);
            let _ = writeln!(out, "      \"submitted\": {},", row.submitted);
            let _ = writeln!(out, "      \"admitted\": {},", row.admitted);
            let _ = writeln!(out, "      \"coalesced\": {},", row.coalesced);
            let _ = writeln!(out, "      \"replaced\": {},", row.replaced);
            let _ = writeln!(out, "      \"shed\": {},", row.shed);
            let _ = writeln!(out, "      \"backpressure\": {},", row.backpressure);
            let _ = writeln!(out, "      \"completed\": {},", row.completed);
            let _ = writeln!(out, "      \"abandoned\": {},", row.abandoned);
            let _ = writeln!(out, "      \"max_gap_windows\": {},", row.max_gap_windows);
            push_f64(&mut out, "phase_queue_p99_s", row.phase_queue_p99_s, true);
            push_f64(&mut out, "phase_lane_p99_s", row.phase_lane_p99_s, true);
            push_f64(&mut out, "phase_solve_p99_s", row.phase_solve_p99_s, true);
            push_f64(
                &mut out,
                "phase_publish_adopt_p99_s",
                row.phase_publish_adopt_p99_s,
                true,
            );
            let _ = writeln!(
                out,
                "      \"starvation_free\": {}",
                row.starvation_free as u8
            );
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The `bench_fleet --obs-overhead` measurement: the same pooled fleet
/// run with the observability runtime switch off vs on, interleaved, so
/// both arms share thermal/cache conditions. With the `obs` feature
/// compiled out the two arms run identical code and the delta bounds
/// harness noise; with it compiled in, the off-arm measures the
/// one-branch disabled path and the on-arm the full recording cost.
#[derive(Debug, Clone)]
pub struct ObsOverheadReport {
    /// Whether the binary was built with `--features obs`.
    pub obs_compiled: bool,
    /// Devices in the measured fleet.
    pub devices: usize,
    /// Interleaved repetitions per arm (min wall is reported).
    pub reps: usize,
    /// Min wall time with the runtime switch off, milliseconds.
    pub wall_off_ms: f64,
    /// Min wall time with the runtime switch on, milliseconds.
    pub wall_on_ms: f64,
}

impl ObsOverheadReport {
    /// Devices per second with observability off (0.0 if degenerate).
    pub fn devices_per_s_off(&self) -> f64 {
        guarded_ratio(self.devices as f64, self.wall_off_ms / 1e3)
    }

    /// Devices per second with observability on (0.0 if degenerate).
    pub fn devices_per_s_on(&self) -> f64 {
        guarded_ratio(self.devices as f64, self.wall_on_ms / 1e3)
    }

    /// Throughput cost of the on-arm relative to the off-arm, percent
    /// (negative values mean the on-arm happened to be faster — noise).
    pub fn overhead_pct(&self) -> f64 {
        if self.wall_off_ms > 0.0 {
            (self.wall_on_ms / self.wall_off_ms - 1.0) * 100.0
        } else {
            0.0
        }
    }

    /// Render the report as JSON (section `obs_overhead`, one row,
    /// parseable by [`parse_rows`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"generated_by\": \"cargo run --release -p capman-bench --bin bench_fleet -- --obs-overhead\","
        );
        let _ = writeln!(out, "  \"obs_compiled\": {},", self.obs_compiled);
        out.push_str("  \"obs_overhead\": [\n    {\n");
        let _ = writeln!(out, "      \"devices\": {},", self.devices);
        let _ = writeln!(out, "      \"reps\": {},", self.reps);
        push_f64(&mut out, "wall_off_ms", self.wall_off_ms, true);
        push_f64(&mut out, "wall_on_ms", self.wall_on_ms, true);
        push_f64(
            &mut out,
            "devices_per_s_off",
            self.devices_per_s_off(),
            true,
        );
        push_f64(&mut out, "devices_per_s_on", self.devices_per_s_on(), true);
        push_f64(&mut out, "overhead_pct", self.overhead_pct(), false);
        out.push_str("    }\n  ]\n}\n");
        out
    }
}

/// Extract every `"key": number` pair from one JSON object body — the
/// minimal parsing the cross-PR perf gate needs (the vendored serde has
/// no format backend). Nested arrays/objects inside the body are not
/// descended into for keys, but their contents are skipped correctly
/// for the flat keys that follow them.
fn object_numbers(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth = depth.saturating_sub(1),
            b'"' if depth == 0 => {
                let start = i + 1;
                let end = body[start..].find('"').map(|e| start + e);
                let Some(end) = end else { break };
                let key = &body[start..end];
                i = end + 1;
                // Expect a colon, then capture a bare number if present.
                let rest = body[i..].trim_start();
                if let Some(after) = rest.strip_prefix(':') {
                    let after = after.trim_start();
                    let num: String = after
                        .chars()
                        .take_while(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
                        .collect();
                    if let Ok(v) = num.parse::<f64>() {
                        out.push((key.to_string(), v));
                    }
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Parse the rows of one named array (`"solver"`, `"similarity"`,
/// `"recalibration"`) out of a report previously written by
/// [`PerfReport::to_json`] / [`RecalReport::to_json`]: each row becomes
/// the list of its numeric `"key": value` pairs. Returns an empty list
/// if the section is missing.
pub fn parse_rows(json: &str, section: &str) -> Vec<Vec<(String, f64)>> {
    let needle = format!("\"{section}\": [");
    let Some(start) = json.find(&needle) else {
        return Vec::new();
    };
    let body = &json[start + needle.len()..];
    // Find the matching closing bracket of the section array.
    let mut depth = 1usize;
    let mut end = body.len();
    for (i, c) in body.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &body[..end];
    // Split into top-level objects.
    let mut rows = Vec::new();
    let mut obj_depth = 0usize;
    let mut obj_start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if obj_depth == 0 {
                    obj_start = Some(i + 1);
                }
                obj_depth += 1;
            }
            '}' => {
                obj_depth -= 1;
                if obj_depth == 0 {
                    if let Some(s) = obj_start.take() {
                        rows.push(object_numbers(&body[s..i]));
                    }
                }
            }
            _ => {}
        }
    }
    rows
}

/// Look up a key in one parsed row.
pub fn row_value(row: &[(String, f64)], key: &str) -> Option<f64> {
    row.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_expected_shape() {
        let report = PerfReport {
            threads: 1,
            solver: vec![SolverRow {
                states: 512,
                action_nodes: 1700,
                outcomes: 5100,
                iterations: 40,
                nested_ms: 9.0,
                csr_serial_ms: 3.0,
                csr_parallel_ms: 3.0,
                csr_serial_ms_samples: vec![3.1, 2.9, 3.0],
            }],
            similarity: vec![SimilarityRow {
                states: 256,
                reference_ms: 100.0,
                engine_ms: 10.0,
                engine_ms_samples: Vec::new(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"states\": 512"));
        assert!(json.contains("\"speedup_serial\": 3.0000"));
        assert!(json.contains("\"speedup\": 10.0000"));
        assert!(json.contains("\"csr_serial_ms_samples\": [3.1000, 2.9000, 3.0000]"));
        assert!(
            !json.contains("engine_ms_samples"),
            "empty sample sets are omitted for legacy-report parity"
        );
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    fn recal_report() -> RecalReport {
        RecalReport {
            threads: 1,
            rho: 0.95,
            eps: 1e-9,
            rows: vec![RecalRow {
                states: 256,
                action_nodes: 700,
                outcomes: 2500,
                levels: vec![
                    RecalLevelRow {
                        theta: 0.3,
                        n_clusters: 8,
                        warm_sweeps: 380,
                        cold_sweeps: 380,
                    },
                    RecalLevelRow {
                        theta: 0.05,
                        n_clusters: 32,
                        warm_sweeps: 40,
                        cold_sweeps: 380,
                    },
                ],
                warm_final_sweeps: 45,
                cold_final_sweeps: 400,
                warm_total_sweeps: 465,
                cold_total_sweeps: 1160,
                warm_ms: 1.0,
                warm_ms_samples: vec![1.0, 1.2],
                cold_ms: 2.5,
                f32_ms: 0.8,
                f32_max_abs_err: 3.0e-4,
            }],
            incremental: vec![IncrementalRow {
                dirty_frac: 0.05,
                states: 256,
                dirty_rows: 13,
                dirty_states: 12,
                affected_states: 20,
                full_fallback: false,
                wall_ms: 0.2,
                wall_ms_samples: vec![0.2, 0.25],
                full_ms: 1.0,
                full_ms_samples: vec![1.0, 1.1],
            }],
        }
    }

    #[test]
    fn recal_json_has_the_expected_shape() {
        let json = recal_report().to_json();
        assert!(json.contains("\"recalibration\": ["));
        assert!(json.contains("\"warm_total_sweeps\": 465"));
        assert!(json.contains("\"cold_sweeps\": 380"));
        assert!(json.contains("\"speedup\": 2.5000"));
        assert!(json.contains("\"incremental\": ["));
        assert!(json.contains("\"dirty_frac\": 0.0500"));
        assert!(json.contains("\"full_fallback\": 0"));
        assert!(json.contains("\"wall_ms_samples\": [0.2000, 0.2500]"));
        assert!(json.contains("\"speedup\": 5.0000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn parse_rows_round_trips_the_solver_section() {
        let report = PerfReport {
            threads: 2,
            solver: vec![
                SolverRow {
                    states: 128,
                    action_nodes: 400,
                    outcomes: 1200,
                    iterations: 30,
                    nested_ms: 4.0,
                    csr_serial_ms: 1.5,
                    csr_parallel_ms: 1.0,
                    csr_serial_ms_samples: Vec::new(),
                },
                SolverRow {
                    states: 512,
                    action_nodes: 1700,
                    outcomes: 5100,
                    iterations: 40,
                    nested_ms: 9.0,
                    csr_serial_ms: 3.0,
                    csr_parallel_ms: 2.0,
                    csr_serial_ms_samples: vec![3.2, 3.0, 3.1],
                },
            ],
            similarity: vec![SimilarityRow {
                states: 256,
                reference_ms: 100.0,
                engine_ms: 10.0,
                engine_ms_samples: vec![10.0, 10.5],
            }],
        };
        let json = report.to_json();
        let solver = parse_rows(&json, "solver");
        assert_eq!(solver.len(), 2);
        assert_eq!(row_value(&solver[0], "states"), Some(128.0));
        assert_eq!(row_value(&solver[1], "states"), Some(512.0));
        assert_eq!(row_value(&solver[1], "csr_serial_ms"), Some(3.0));
        assert_eq!(
            row_value(&solver[1], "csr_serial_ms_samples"),
            None,
            "sample arrays stay out of the flat rows"
        );
        let similarity = parse_rows(&json, "similarity");
        assert_eq!(similarity.len(), 1);
        assert_eq!(row_value(&similarity[0], "engine_ms"), Some(10.0));
        assert!(parse_rows(&json, "missing").is_empty());
    }

    #[test]
    fn fleet_json_round_trips_through_the_gate_parser() {
        let report = FleetReport {
            threads: 4,
            batch: 64,
            horizon_s: 1500.0,
            every_s: 600.0,
            rows: vec![FleetRow {
                devices: 1024,
                cohorts: 2,
                ticks: 1_536_000,
                inline_wall_ms: 8000.0,
                pool_wall_ms: 2000.0,
                pool_wall_ms_samples: vec![2000.0, 2080.0, 2040.0],
                inline_recalibrations: 2048,
                pool_completed: 4,
                pool_submitted: 2048,
                pool_coalesced: 2040,
                pool_dropped: 0,
                staleness_p50_s: 0.0,
                staleness_p95_s: 12.0,
                staleness_p99_s: 40.0,
                staleness_p99_s_samples: vec![40.0, 42.0],
                staleness_max_s: 300.0,
                lifetime_p50_s: 1500.0,
                hotspot_p95_c: 41.5,
            }],
            arena: vec![ArenaRow {
                devices: 1_000_000,
                shard_devices: 4096,
                cohorts: 2,
                ticks: 50_000_000,
                wall_ms: 500_000.0,
                wall_ms_samples: vec![500_000.0],
                peak_rss_kb: 180_000,
                recalibrations: 5_000_000,
                pool_completed: 10,
                pool_dropped: 0,
                staleness_p99_s: 0.1,
                lifetime_p50_s: 1500.0,
                hotspot_p95_c: 41.5,
            }],
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let rows = parse_rows(&json, "fleet");
        assert_eq!(rows.len(), 1);
        assert_eq!(row_value(&rows[0], "devices"), Some(1024.0));
        assert_eq!(row_value(&rows[0], "pool_wall_ms"), Some(2000.0));
        assert_eq!(row_value(&rows[0], "speedup"), Some(4.0));
        assert_eq!(row_value(&rows[0], "pool_dropped"), Some(0.0));
        let arena = parse_rows(&json, "arena");
        assert_eq!(arena.len(), 1);
        assert_eq!(row_value(&arena[0], "devices"), Some(1_000_000.0));
        assert_eq!(row_value(&arena[0], "wall_ms"), Some(500_000.0));
        assert_eq!(row_value(&arena[0], "devices_per_s"), Some(2000.0));
        assert_eq!(row_value(&arena[0], "peak_rss_kb"), Some(180_000.0));
    }

    fn serve_row(overload_x: usize) -> ServeRow {
        ServeRow {
            overload_x,
            cohorts: 4,
            devices: 4 * overload_x,
            windows: 3,
            wall_ms: 120.0,
            wall_ms_samples: vec![120.0, 125.0, 122.0],
            staleness_p99_s: 45.0,
            staleness_p99_s_samples: vec![45.0, 47.0],
            staleness_hot_p99_s: 45.0,
            staleness_normal_p99_s: 20.0,
            staleness_cold_p99_s: 5.0,
            shed_fraction: 0.75,
            submitted: 48,
            admitted: 12,
            coalesced: 0,
            replaced: 36,
            shed: 0,
            backpressure: 0,
            completed: 12,
            abandoned: 0,
            max_gap_windows: 1,
            starvation_free: true,
            phase_queue_p99_s: 30.0,
            phase_lane_p99_s: 10.0,
            phase_solve_p99_s: 0.5,
            phase_publish_adopt_p99_s: 4.5,
        }
    }

    #[test]
    fn serve_json_round_trips_through_the_gate_parser() {
        let report = ServeReport {
            threads: 4,
            reps: 3,
            window_s: 1200.0,
            windows: 3,
            rows: vec![serve_row(1), serve_row(4)],
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let rows = parse_rows(&json, "serve");
        assert_eq!(rows.len(), 2);
        assert_eq!(row_value(&rows[0], "overload_x"), Some(1.0));
        assert_eq!(row_value(&rows[1], "overload_x"), Some(4.0));
        assert_eq!(row_value(&rows[1], "wall_ms"), Some(120.0));
        assert_eq!(row_value(&rows[1], "staleness_p99_s"), Some(45.0));
        assert_eq!(row_value(&rows[1], "shed_fraction"), Some(0.75));
        assert_eq!(row_value(&rows[1], "starvation_free"), Some(1.0));
        assert_eq!(row_value(&rows[1], "submissions_per_s"), Some(400.0));
        assert_eq!(row_value(&rows[1], "phase_queue_p99_s"), Some(30.0));
        assert_eq!(row_value(&rows[1], "phase_publish_adopt_p99_s"), Some(4.5));
        assert_eq!(
            row_value(&rows[1], "wall_ms_samples"),
            None,
            "sample arrays stay out of the flat rows"
        );
    }

    #[test]
    fn a_rowless_serve_report_still_carries_the_section() {
        let report = ServeReport {
            threads: 1,
            reps: 1,
            window_s: 1200.0,
            windows: 2,
            ..ServeReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"serve\": []"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(parse_rows(&json, "serve").is_empty());
        let degenerate = ServeRow {
            wall_ms: 0.0,
            ..serve_row(1)
        };
        assert_eq!(degenerate.submissions_per_s(), 0.0);
    }

    #[test]
    fn an_arenaless_fleet_report_still_carries_the_section() {
        // The gate treats an empty `"arena"` array as a clean section
        // skip; an absent key would be indistinguishable from a corrupt
        // report in older parsers, so the section is always emitted.
        let report = FleetReport {
            threads: 1,
            batch: 64,
            horizon_s: 1500.0,
            every_s: 300.0,
            ..FleetReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"arena\": []"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(parse_rows(&json, "arena").is_empty());
    }

    #[test]
    fn every_ratio_helper_guards_zero_denominators() {
        let solver = SolverRow {
            states: 0,
            action_nodes: 0,
            outcomes: 0,
            iterations: 0,
            nested_ms: 0.0,
            csr_serial_ms: 0.0,
            csr_parallel_ms: 0.0,
            csr_serial_ms_samples: Vec::new(),
        };
        assert_eq!(solver.speedup_serial(), 0.0);
        assert_eq!(solver.speedup_parallel(), 0.0);
        let similarity = SimilarityRow {
            states: 0,
            reference_ms: 5.0,
            engine_ms: 0.0,
            engine_ms_samples: Vec::new(),
        };
        assert_eq!(similarity.speedup(), 0.0);
        let recal = RecalRow {
            states: 0,
            action_nodes: 0,
            outcomes: 0,
            levels: Vec::new(),
            warm_final_sweeps: 0,
            cold_final_sweeps: 0,
            warm_total_sweeps: 0,
            cold_total_sweeps: 0,
            warm_ms: 0.0,
            warm_ms_samples: Vec::new(),
            cold_ms: 7.0,
            f32_ms: 0.0,
            f32_max_abs_err: 0.0,
        };
        assert_eq!(recal.speedup(), 0.0);
        assert!(recal.sweep_ratio().is_finite(), "max(1) guards the sweeps");
        let fleet = FleetRow {
            devices: 16,
            cohorts: 0,
            ticks: 0,
            inline_wall_ms: 0.0,
            pool_wall_ms: 0.0,
            pool_wall_ms_samples: Vec::new(),
            inline_recalibrations: 0,
            pool_completed: 0,
            pool_submitted: 0,
            pool_coalesced: 0,
            pool_dropped: 0,
            staleness_p50_s: 0.0,
            staleness_p95_s: 0.0,
            staleness_p99_s: 0.0,
            staleness_p99_s_samples: Vec::new(),
            staleness_max_s: 0.0,
            lifetime_p50_s: 0.0,
            hotspot_p95_c: 0.0,
        };
        assert_eq!(fleet.inline_devices_per_s(), 0.0);
        assert_eq!(fleet.pool_devices_per_s(), 0.0);
        assert_eq!(fleet.speedup(), 0.0);
        let arena = ArenaRow {
            devices: 16,
            shard_devices: 4,
            cohorts: 0,
            ticks: 0,
            wall_ms: 0.0,
            wall_ms_samples: Vec::new(),
            peak_rss_kb: 0,
            recalibrations: 0,
            pool_completed: 0,
            pool_dropped: 0,
            staleness_p99_s: 0.0,
            lifetime_p50_s: 0.0,
            hotspot_p95_c: 0.0,
        };
        assert_eq!(arena.devices_per_s(), 0.0);
        let obs = ObsOverheadReport {
            obs_compiled: false,
            devices: 256,
            reps: 3,
            wall_off_ms: 0.0,
            wall_on_ms: 0.0,
        };
        assert_eq!(obs.devices_per_s_off(), 0.0);
        assert_eq!(obs.devices_per_s_on(), 0.0);
        assert_eq!(obs.overhead_pct(), 0.0);
        // Negative denominators are as degenerate as zero ones.
        assert_eq!(guarded_ratio(1.0, -3.0), 0.0);
        assert_eq!(guarded_ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn obs_overhead_json_round_trips_through_the_gate_parser() {
        let report = ObsOverheadReport {
            obs_compiled: true,
            devices: 1024,
            reps: 3,
            wall_off_ms: 800.0,
            wall_on_ms: 820.0,
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let rows = parse_rows(&json, "obs_overhead");
        assert_eq!(rows.len(), 1);
        assert_eq!(row_value(&rows[0], "devices"), Some(1024.0));
        assert_eq!(row_value(&rows[0], "wall_on_ms"), Some(820.0));
        assert_eq!(row_value(&rows[0], "overhead_pct"), Some(2.5));
    }

    #[test]
    fn registry_metrics_json_round_trips_through_the_gate_parser() {
        // `export::metrics_json` promises a BENCH-shaped report; this is
        // the consumer-side proof — the flat row the registry emits is
        // readable with the same parser the perf gate uses.
        let registry = capman_obs::Registry::new();
        registry.counter("fleet_devices_total", "Devices").add(4096);
        registry.gauge("pool_queue_depth", "Depth").set(3);
        let h = registry.histogram("adoption_staleness_s", "Staleness", &[0.1, 1.0, 10.0]);
        for _ in 0..99 {
            h.observe(0.05);
        }
        h.observe(5.0);
        let json = capman_obs::export::metrics_json(&registry.snapshot());
        let rows = parse_rows(&json, "metrics");
        assert_eq!(rows.len(), 1, "one flat row per snapshot");
        assert_eq!(row_value(&rows[0], "fleet_devices_total"), Some(4096.0));
        assert_eq!(row_value(&rows[0], "pool_queue_depth"), Some(3.0));
        assert_eq!(
            row_value(&rows[0], "adoption_staleness_s_count"),
            Some(100.0)
        );
        assert_eq!(row_value(&rows[0], "adoption_staleness_s_p99"), Some(0.1));
    }

    #[test]
    fn parse_rows_skips_nested_level_arrays() {
        let json = recal_report().to_json();
        let rows = parse_rows(&json, "recalibration");
        assert_eq!(rows.len(), 1);
        // Flat keys of the row parse...
        assert_eq!(row_value(&rows[0], "states"), Some(256.0));
        assert_eq!(row_value(&rows[0], "cold_total_sweeps"), Some(1160.0));
        assert_eq!(row_value(&rows[0], "f32_max_abs_err"), Some(3.0e-4));
        // ...while the nested per-level keys stay out of the flat row.
        assert_eq!(row_value(&rows[0], "warm_sweeps"), None);
    }
}
