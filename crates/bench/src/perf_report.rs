//! Machine-readable perf reports: the `BENCH_*.json` documents.
//!
//! The `bench_mdp`, `bench_recalibrate` and `bench_fleet` binaries
//! measure their hot paths and serialise the numbers here, so the perf
//! trajectory is diffable across PRs. Every report is built as a
//! [`capman_lab::json::Json`] value and rendered with its pretty
//! printer; `perf_gate` reads the files back with the same codec's
//! strict parser.

use capman_lab::json::{obj, Json};

/// `num / den` with the zero/degenerate denominator guarded to 0.0 —
/// every ratio a report derives goes through here so an empty or
/// zero-wall measurement renders as 0, never NaN/Inf (which the JSON
/// codec would render as `null`).
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

/// A count as a JSON number (exact below 2^53).
fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

/// A per-rep sample array; `[]` when empty, which the gate reads like
/// a missing list (fewer than two samples: point-ratio rule).
fn samples(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// The `generated_by` member naming the command that wrote a report.
fn generated_by(command: &str) -> (&'static str, Json) {
    ("generated_by", Json::Str(command.to_string()))
}

impl PerfReport {
    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let solver = self.solver.iter().map(|row| {
            obj(vec![
                ("states", count(row.states as u64)),
                ("action_nodes", count(row.action_nodes as u64)),
                ("outcomes", count(row.outcomes as u64)),
                ("iterations", count(row.iterations as u64)),
                ("nested_gauss_seidel_ms", Json::Num(row.nested_ms)),
                ("csr_serial_ms", Json::Num(row.csr_serial_ms)),
                ("csr_parallel_ms", Json::Num(row.csr_parallel_ms)),
                ("csr_serial_ms_samples", samples(&row.csr_serial_ms_samples)),
                ("speedup_serial", Json::Num(row.speedup_serial())),
                ("speedup_parallel", Json::Num(row.speedup_parallel())),
            ])
        });
        let similarity = self.similarity.iter().map(|row| {
            obj(vec![
                ("states", count(row.states as u64)),
                ("reference_ms", Json::Num(row.reference_ms)),
                ("engine_ms", Json::Num(row.engine_ms)),
                ("engine_ms_samples", samples(&row.engine_ms_samples)),
                ("speedup", Json::Num(row.speedup())),
            ])
        });
        obj(vec![
            generated_by("cargo run --release -p capman-bench --bin bench_mdp"),
            ("threads", count(self.threads as u64)),
            ("solver", Json::Arr(solver.collect())),
            ("similarity", Json::Arr(similarity.collect())),
        ])
        .to_pretty()
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
        let rows = self.rows.iter().map(|row| {
            let levels = row.levels.iter().map(|lvl| {
                obj(vec![
                    ("theta", Json::Num(lvl.theta)),
                    ("n_clusters", count(lvl.n_clusters as u64)),
                    ("warm_sweeps", count(lvl.warm_sweeps as u64)),
                    ("cold_sweeps", count(lvl.cold_sweeps as u64)),
                ])
            });
            obj(vec![
                ("states", count(row.states as u64)),
                ("action_nodes", count(row.action_nodes as u64)),
                ("outcomes", count(row.outcomes as u64)),
                ("levels", Json::Arr(levels.collect())),
                ("warm_final_sweeps", count(row.warm_final_sweeps as u64)),
                ("cold_final_sweeps", count(row.cold_final_sweeps as u64)),
                ("warm_total_sweeps", count(row.warm_total_sweeps as u64)),
                ("cold_total_sweeps", count(row.cold_total_sweeps as u64)),
                ("warm_ms", Json::Num(row.warm_ms)),
                ("warm_ms_samples", samples(&row.warm_ms_samples)),
                ("cold_ms", Json::Num(row.cold_ms)),
                ("f32_ms", Json::Num(row.f32_ms)),
                ("f32_max_abs_err", Json::Num(row.f32_max_abs_err)),
                ("sweep_ratio", Json::Num(row.sweep_ratio())),
                ("speedup", Json::Num(row.speedup())),
            ])
        });
        let incremental = self.incremental.iter().map(|row| {
            obj(vec![
                ("dirty_frac", Json::Num(row.dirty_frac)),
                ("states", count(row.states as u64)),
                ("dirty_rows", count(row.dirty_rows as u64)),
                ("dirty_states", count(row.dirty_states as u64)),
                ("affected_states", count(row.affected_states as u64)),
                ("full_fallback", count(u64::from(row.full_fallback))),
                ("wall_ms", Json::Num(row.wall_ms)),
                ("wall_ms_samples", samples(&row.wall_ms_samples)),
                ("full_ms", Json::Num(row.full_ms)),
                ("full_ms_samples", samples(&row.full_ms_samples)),
                ("speedup", Json::Num(row.speedup())),
            ])
        });
        obj(vec![
            generated_by("cargo run --release -p capman-bench --bin bench_recalibrate"),
            ("threads", count(self.threads as u64)),
            ("rho", Json::Num(self.rho)),
            ("eps", Json::Num(self.eps)),
            ("recalibration", Json::Arr(rows.collect())),
            ("incremental", Json::Arr(incremental.collect())),
        ])
        .to_pretty()
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
    /// Render the report as JSON. The `"arena"` section is always
    /// present, as `[]` when the run skipped the arena ladder.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            obj(vec![
                ("devices", count(row.devices as u64)),
                ("cohorts", count(row.cohorts as u64)),
                ("ticks", count(row.ticks)),
                ("inline_wall_ms", Json::Num(row.inline_wall_ms)),
                ("pool_wall_ms", Json::Num(row.pool_wall_ms)),
                ("pool_wall_ms_samples", samples(&row.pool_wall_ms_samples)),
                (
                    "inline_devices_per_s",
                    Json::Num(row.inline_devices_per_s()),
                ),
                ("pool_devices_per_s", Json::Num(row.pool_devices_per_s())),
                ("speedup", Json::Num(row.speedup())),
                ("inline_recalibrations", count(row.inline_recalibrations)),
                ("pool_completed", count(row.pool_completed)),
                ("pool_submitted", count(row.pool_submitted)),
                ("pool_coalesced", count(row.pool_coalesced)),
                ("pool_dropped", count(row.pool_dropped)),
                ("staleness_p50_s", Json::Num(row.staleness_p50_s)),
                ("staleness_p95_s", Json::Num(row.staleness_p95_s)),
                ("staleness_p99_s", Json::Num(row.staleness_p99_s)),
                (
                    "staleness_p99_s_samples",
                    samples(&row.staleness_p99_s_samples),
                ),
                ("staleness_max_s", Json::Num(row.staleness_max_s)),
                ("lifetime_p50_s", Json::Num(row.lifetime_p50_s)),
                ("hotspot_p95_c", Json::Num(row.hotspot_p95_c)),
            ])
        });
        let arena = self.arena.iter().map(|row| {
            obj(vec![
                ("devices", count(row.devices as u64)),
                ("shard_devices", count(row.shard_devices as u64)),
                ("cohorts", count(row.cohorts as u64)),
                ("ticks", count(row.ticks)),
                ("wall_ms", Json::Num(row.wall_ms)),
                ("wall_ms_samples", samples(&row.wall_ms_samples)),
                ("devices_per_s", Json::Num(row.devices_per_s())),
                ("peak_rss_kb", count(row.peak_rss_kb)),
                ("recalibrations", count(row.recalibrations)),
                ("pool_completed", count(row.pool_completed)),
                ("pool_dropped", count(row.pool_dropped)),
                ("staleness_p99_s", Json::Num(row.staleness_p99_s)),
                ("lifetime_p50_s", Json::Num(row.lifetime_p50_s)),
                ("hotspot_p95_c", Json::Num(row.hotspot_p95_c)),
            ])
        });
        obj(vec![
            generated_by("cargo run --release -p capman-bench --bin bench_fleet"),
            ("threads", count(self.threads as u64)),
            ("batch", count(self.batch as u64)),
            ("horizon_s", Json::Num(self.horizon_s)),
            ("every_s", Json::Num(self.every_s)),
            ("fleet", Json::Arr(rows.collect())),
            ("arena", Json::Arr(arena.collect())),
        ])
        .to_pretty()
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

    /// Render the report as JSON (section `obs_overhead`, one row).
    pub fn to_json(&self) -> String {
        let row = obj(vec![
            ("devices", count(self.devices as u64)),
            ("reps", count(self.reps as u64)),
            ("wall_off_ms", Json::Num(self.wall_off_ms)),
            ("wall_on_ms", Json::Num(self.wall_on_ms)),
            ("devices_per_s_off", Json::Num(self.devices_per_s_off())),
            ("devices_per_s_on", Json::Num(self.devices_per_s_on())),
            ("overhead_pct", Json::Num(self.overhead_pct())),
        ]);
        obj(vec![
            generated_by("cargo run --release -p capman-bench --bin bench_fleet -- --obs-overhead"),
            ("obs_compiled", Json::Bool(self.obs_compiled)),
            ("obs_overhead", Json::Arr(vec![row])),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capman_lab::json;

    /// Parse a rendered report with the gate's strict parser and return
    /// the rows of one section.
    fn rows(rendered: &str, section: &str) -> Vec<Json> {
        let doc = json::parse(rendered).unwrap_or_else(|e| panic!("{e}\n{rendered}"));
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no {section:?} section in\n{rendered}"))
            .to_vec()
    }

    #[test]
    fn json_has_the_expected_shape() {
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
                    csr_parallel_ms: 3.0,
                    csr_serial_ms_samples: vec![3.1, 2.9, 3.0],
                },
            ],
            similarity: vec![SimilarityRow {
                states: 256,
                reference_ms: 100.0,
                engine_ms: 10.0,
                engine_ms_samples: Vec::new(),
            }],
        };
        let rendered = report.to_json();
        let doc = json::parse(&rendered).expect("report parses");
        assert_eq!(doc.num("threads"), Some(2.0));
        assert!(doc.get("missing").is_none());
        let solver = rows(&rendered, "solver");
        assert_eq!(solver.len(), 2);
        assert_eq!(solver[0].num("states"), Some(128.0));
        assert_eq!(solver[1].num("states"), Some(512.0));
        assert_eq!(solver[1].num("csr_serial_ms"), Some(3.0));
        assert_eq!(solver[1].num("speedup_serial"), Some(3.0));
        assert_eq!(
            solver[1].num_array("csr_serial_ms_samples"),
            Some(vec![3.1, 2.9, 3.0]),
            "samples keep full precision"
        );
        assert_eq!(solver[0].num_array("csr_serial_ms_samples"), Some(vec![]));
        let similarity = rows(&rendered, "similarity");
        assert_eq!(similarity.len(), 1);
        assert_eq!(similarity[0].num("engine_ms"), Some(10.0));
        assert_eq!(similarity[0].num("speedup"), Some(10.0));
        assert!(
            rendered.contains("\"engine_ms_samples\": []"),
            "an empty sample list prints as []: {rendered}"
        );
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
        let rendered = recal_report().to_json();
        let doc = json::parse(&rendered).expect("report parses");
        assert_eq!(doc.num("rho"), Some(0.95));
        assert_eq!(doc.num("eps"), Some(1e-9));
        let recal = rows(&rendered, "recalibration");
        assert_eq!(recal.len(), 1);
        assert_eq!(recal[0].num("states"), Some(256.0));
        assert_eq!(recal[0].num("warm_total_sweeps"), Some(465.0));
        assert_eq!(recal[0].num("cold_total_sweeps"), Some(1160.0));
        assert_eq!(recal[0].num("f32_max_abs_err"), Some(3.0e-4));
        assert_eq!(recal[0].num("speedup"), Some(2.5));
        // The per-level ledger nests inside its row, not beside it.
        assert_eq!(recal[0].num("warm_sweeps"), None);
        let levels = recal[0].get("levels").and_then(Json::as_arr).unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[1].num("theta"), Some(0.05));
        assert_eq!(levels[1].num("cold_sweeps"), Some(380.0));
        let incremental = rows(&rendered, "incremental");
        assert_eq!(incremental[0].num("dirty_frac"), Some(0.05));
        assert_eq!(incremental[0].num("full_fallback"), Some(0.0));
        assert_eq!(
            incremental[0].num_array("wall_ms_samples"),
            Some(vec![0.2, 0.25])
        );
        assert_eq!(incremental[0].num("speedup"), Some(5.0));
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
        let rendered = report.to_json();
        let fleet = rows(&rendered, "fleet");
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet[0].num("devices"), Some(1024.0));
        assert_eq!(fleet[0].num("pool_wall_ms"), Some(2000.0));
        assert_eq!(fleet[0].num("speedup"), Some(4.0));
        assert_eq!(fleet[0].num("pool_dropped"), Some(0.0));
        assert_eq!(
            fleet[0].num_array("staleness_p99_s_samples"),
            Some(vec![40.0, 42.0])
        );
        let arena = rows(&rendered, "arena");
        assert_eq!(arena.len(), 1);
        assert_eq!(arena[0].num("devices"), Some(1_000_000.0));
        assert_eq!(arena[0].num("ticks"), Some(50_000_000.0));
        assert_eq!(arena[0].num("wall_ms"), Some(500_000.0));
        assert_eq!(arena[0].num("devices_per_s"), Some(2000.0));
        assert_eq!(arena[0].num("peak_rss_kb"), Some(180_000.0));
    }

    #[test]
    fn an_arenaless_fleet_report_still_carries_the_section() {
        // The gate treats an empty `"arena"` array as a clean section
        // skip, so the section is always emitted.
        let report = FleetReport {
            threads: 1,
            batch: 64,
            horizon_s: 1500.0,
            every_s: 300.0,
            ..FleetReport::default()
        };
        let rendered = report.to_json();
        assert!(rendered.contains("\"arena\": []"), "{rendered}");
        assert!(rows(&rendered, "arena").is_empty());
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
        let rendered = report.to_json();
        let doc = json::parse(&rendered).expect("report parses");
        assert_eq!(doc.get("obs_compiled"), Some(&Json::Bool(true)));
        let rows = rows(&rendered, "obs_overhead");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].num("devices"), Some(1024.0));
        assert_eq!(rows[0].num("wall_on_ms"), Some(820.0));
        let overhead = rows[0].num("overhead_pct").expect("overhead_pct");
        assert!((overhead - 2.5).abs() < 1e-9, "{overhead}");
    }

    #[test]
    fn registry_metrics_json_round_trips_through_the_gate_parser() {
        // `export::metrics_json` promises a BENCH-shaped report; this is
        // the consumer-side proof — the flat row the registry emits,
        // exemplar keys included, parses with the perf gate's parser.
        let registry = capman_obs::Registry::new();
        registry.counter("fleet_devices_total", "Devices").add(4096);
        registry.gauge("pool_queue_depth", "Depth").set(3);
        let h = registry.histogram("adoption_staleness_s", "Staleness", &[0.1, 1.0, 10.0]);
        for _ in 0..99 {
            h.observe(0.05);
        }
        h.observe_with_exemplar(5.0, 77);
        let rendered = capman_obs::export::metrics_json(&registry.snapshot());
        let rows = rows(&rendered, "metrics");
        assert_eq!(rows.len(), 1, "one flat row per snapshot");
        assert_eq!(rows[0].num("fleet_devices_total"), Some(4096.0));
        assert_eq!(rows[0].num("pool_queue_depth"), Some(3.0));
        assert_eq!(rows[0].num("adoption_staleness_s_count"), Some(100.0));
        assert_eq!(rows[0].num("adoption_staleness_s_p99"), Some(0.1));
        assert_eq!(rows[0].num("adoption_staleness_s_slowest_value"), Some(5.0));
        assert_eq!(
            rows[0].num("adoption_staleness_s_slowest_trace"),
            Some(77.0)
        );
    }
}
