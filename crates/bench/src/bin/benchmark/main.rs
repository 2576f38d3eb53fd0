//! The repository benchmark: three workloads, end-to-end metrics with
//! tracing off, and a per-layer ledger from separate traced runs.
//!
//! ```text
//! cargo run --release -p capman-bench --bin benchmark -- \
//!     --workload fleet-steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--workload` the process runs that one workload and prints one
//! `workload metric value unit n=<samples>` line per number, then a JSON
//! result as its last line. Without it, the process runs every workload
//! in its own child process, `--reps N` times in alternating order, and
//! prints each metric's median and quartiles. See `README.md` beside
//! this file for the workloads, metrics and how to read the trace.

mod fleet;
mod ledger;
mod probe;
mod replay;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use probe::Clock;
use stats::{median, quantile};

/// A metric the benchmark publishes, as listed in `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.20),
    e2e("ops_per_s", "1/s", "higher", 0.15),
    e2e("batch_ms_p50", "ms", "lower", 0.15),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Measured by the traced runs, on every workload (rows a workload does
/// not exercise read 0).
pub const PER_LAYER: [MetricDef; 36] = [
    layer("tick.step_ns", "ns", "lower"),
    layer("workload.trace_ns", "ns", "lower"),
    layer("core.decide_ns", "ns", "lower"),
    layer("core.observe_ns", "ns", "lower"),
    layer("core.telemetry_ns", "ns", "lower"),
    layer("core.sim_self_ns", "ns", "lower"),
    layer("device.power_ns", "ns", "lower"),
    layer("battery.pack_ns", "ns", "lower"),
    layer("thermal.network_ns", "ns", "lower"),
    layer("device.replay_agrees", "bool", "higher"),
    layer("core.calibrate_us_p50", "us", "lower"),
    layer("core.calibrations", "count", "higher"),
    layer("core.calibrate_incremental_frac", "ratio", "higher"),
    layer("core.calibrate_fallback_frac", "ratio", "lower"),
    layer("core.profiler_model_us", "us", "lower"),
    layer("mdp.graph_filter_us", "us", "lower"),
    layer("mdp.similarity_us", "us", "lower"),
    layer("mdp.abstraction_us", "us", "lower"),
    layer("mdp.bellman_us", "us", "lower"),
    layer("calib.unattributed_us", "us", "lower"),
    layer("calib.replica_agrees", "bool", "higher"),
    layer("mdp.similarity_sweeps", "count", "lower"),
    layer("mdp.emd_solves", "count", "lower"),
    layer("mdp.emd_memo_hit_rate", "ratio", "higher"),
    layer("mdp.bellman_sweeps", "count", "lower"),
    layer("serve.admitted", "count", "higher"),
    layer("serve.replaced", "count", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.backpressure", "count", "lower"),
    layer("serve.coalesced", "count", "lower"),
    layer("serve.completed", "count", "higher"),
    layer("serve.queue_depth_max", "count", "lower"),
    layer("serve.adopted_frac", "ratio", "higher"),
    layer("serve.shed_fraction", "ratio", "lower"),
    layer("trace.clock_overhead_ns", "ns", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

pub const WORKLOADS: [&str; 3] = ["fleet-inline", "fleet-steady", "serve-overload"];

/// Digests of `--seed 1` outputs, one line per workload and size.
const GOLDENS: &str = include_str!("goldens.txt");

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub reps: usize,
    pub out: Option<String>,
    pub trace_out: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: None,
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
            reps: 1,
            out: None,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
            let number = |v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                    }
                    opts.workload = Some(w);
                }
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => opts.seconds = number(value()?)?.max(0.0),
                "--trace" => opts.trace = value()? == "1",
                "--reps" => opts.reps = number(value()?)?.max(1.0) as usize,
                "--smoke" => opts.smoke = true,
                "--out" => opts.out = Some(value()?),
                "--trace-out" => opts.trace_out = Some(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(opts)
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
    /// Set when the replica disagreed and the row describes the replica
    /// rather than the in-situ run.
    pub stale: bool,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub rows: Vec<Row>,
    /// Operations of the timed phase (device-seconds or solves).
    pub attempted: u64,
    /// Failed output checks, as messages.
    pub failures: Vec<String>,
    /// Digest of the simulated outputs the checks compared.
    pub digest: u64,
}

impl Report {
    pub fn row(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.rows.push(Row {
            name: name.to_string(),
            value,
            unit,
            n,
            stale: false,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Compare a `--seed 1` digest with the committed one.
    pub fn check_golden(&mut self, workload: &str, opts: &Opts, digest: u64) {
        let size = if opts.smoke { "smoke" } else { "full" };
        let seed = opts.seed.to_string();
        let golden = GOLDENS.lines().find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && f[1] == size && f[2] == seed).then(|| f[3])
        });
        let got = format!("{digest:#018x}");
        if let Some(want) = golden {
            self.check(want == got, || {
                format!("{workload} {size} seed {seed}: digest {got}, golden {want}")
            });
        }
    }
}

/// What one round of timed work produced.
pub struct RoundOut {
    pub ops: u64,
    pub wall_s: f64,
    pub digest: u64,
}

/// Set-up and timed results of every round of an end-to-end run.
#[derive(Default)]
pub struct Rounds {
    pub setup_s: Vec<f64>,
    pub rates: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub ops: u64,
    pub digests: Vec<u64>,
    /// Peak RSS after the first round, kB. Later rounds repeat the same
    /// work; their allocator churn would only add noise.
    pub peak_rss_kb: u64,
}

/// Set up and run rounds of identical work until `seconds` of timed
/// work accumulated (at least one round). Each round sets up afresh, so
/// set-up is measured as often as the work.
pub fn run_rounds<S>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut round: impl FnMut(S, &mut Vec<f64>) -> RoundOut,
) -> Rounds {
    let mut r = Rounds::default();
    let mut timed = 0.0;
    loop {
        let t0 = Instant::now();
        let state = setup();
        r.setup_s.push(t0.elapsed().as_secs_f64());
        let out = round(state, &mut r.batch_ms);
        r.rates.push(out.ops as f64 / out.wall_s);
        r.ops += out.ops;
        r.digests.push(out.digest);
        if r.peak_rss_kb == 0 {
            r.peak_rss_kb = capman_bench::rss::peak_rss_kb();
        }
        timed += out.wall_s;
        if timed >= seconds {
            return r;
        }
    }
}

/// The end-to-end rows every workload reports, plus the determinism and
/// golden checks on its round digests.
pub fn e2e_rows(report: &mut Report, workload: &str, opts: &Opts, rounds: &Rounds) {
    let n = rounds.rates.len();
    report.row("setup_s", median(&rounds.setup_s), "s", n);
    report.row("ops_per_s", median(&rounds.rates), "1/s", n);
    report.row(
        "batch_ms_p50",
        median(&rounds.batch_ms),
        "ms",
        rounds.batch_ms.len(),
    );
    report.row("peak_rss_mb", rounds.peak_rss_kb as f64 / 1024.0, "MB", 1);
    report.attempted = rounds.ops;
    let first = rounds.digests[0];
    report.check(rounds.digests.iter().all(|&d| d == first), || {
        format!(
            "{workload}: rounds of identical input disagree: {:x?}",
            rounds.digests
        )
    });
    report.digest = first;
    report.check_golden(workload, opts, first);
}

/// Median and tail of a latency sample, with the tail only where at
/// least ten samples lie beyond it.
pub fn latency_rows(report: &mut Report, name: &str, unit: &'static str, samples: &[f64]) {
    report.row(&format!("{name}_p50"), median(samples), unit, samples.len());
    if samples.len() >= 1000 {
        report.row(
            &format!("{name}_p99"),
            quantile(samples, 0.99),
            unit,
            samples.len(),
        );
    }
}

fn run_workload(opts: &Opts, clock: Clock) -> Report {
    let mut report = Report::default();
    let workload = opts.workload.as_deref().expect("child mode has a workload");
    match (workload, opts.trace) {
        ("fleet-inline", false) => fleet::inline_e2e(opts, &mut report),
        ("fleet-inline", true) => fleet::inline_traced(opts, clock, &mut report),
        ("fleet-steady", false) => fleet::steady_e2e(opts, clock, &mut report),
        ("fleet-steady", true) => fleet::steady_traced(opts, clock, &mut report),
        ("serve-overload", false) => serve::overload_e2e(opts, clock, &mut report),
        ("serve-overload", true) => serve::overload_traced(opts, clock, &mut report),
        _ => unreachable!("workload names are validated on parse"),
    }
    report
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object: the published metrics of this mode only.
fn result_json(report: &Report, trace: bool) -> String {
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|def| {
            let row = report
                .rows
                .iter()
                .find(|r| r.name == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(row.value),
                def.unit
            )
        })
        .collect();
    let correct = report.failures.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        if correct { 0 } else { report.attempted.max(1) },
        metrics.join(", ")
    )
}

/// Workloads that run pinned to one CPU, so their parallel paths (the
/// arena's shard scheduler, the parallel similarity engine) run inline.
///
/// Unpinned, each parallel similarity sweep starts threads, and on a
/// two-vCPU virtual machine the cost of starting and waking them swung
/// `serve-overload` by a quarter and `fleet-inline` by 9% between runs
/// of one seed; pinned, the same runs agree within about 1%.
/// `fleet-steady` steps its devices on one thread and solves rarely, so
/// it runs unpinned.
const PINNED: [&str; 2] = ["fleet-inline", "serve-overload"];

/// Pin this process (and the threads it will start) to the first CPU it
/// may run on; returns that CPU. The parallel paths then run inline.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 CPU bits.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, only
    // read, and pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn child(opts: &Opts) -> ExitCode {
    let workload = opts.workload.clone().expect("child mode has a workload");
    // Before anything starts a thread or reads the CPU count.
    if PINNED.contains(&workload.as_str()) {
        match pin_to_one_cpu() {
            Some(cpu) => println!("{workload} pinned to cpu {cpu}"),
            None => println!("{workload} not pinned: timings will be noisier"),
        }
    }
    let report = run_workload(opts, Clock::calibrate());
    for row in &report.rows {
        let stale = if row.stale { " stale" } else { "" };
        println!(
            "{workload} {} {} {} n={}{stale}",
            row.name,
            json_number(row.value),
            row.unit,
            row.n
        );
    }
    println!("{workload} digest {:#018x}", report.digest);
    for failure in &report.failures {
        println!("{workload} FAILED {failure}");
    }
    let json = result_json(&report, opts.trace);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload `opts.reps` times in fresh child processes,
/// alternating the order, and summarise each metric.
fn parent(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for rep in 0..opts.reps {
        let mut order = WORKLOADS.to_vec();
        if rep % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("{workload}: cannot start the child: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            ok &= output.status.success();
            let parsed = stdout
                .lines()
                .last()
                .and_then(|line| capman_lab::json::parse(line).ok());
            let Some(metrics) = parsed.as_ref().and_then(|j| j.get("metrics")) else {
                eprintln!("{workload}: no result line");
                ok = false;
                continue;
            };
            for (name, m) in metrics.as_obj().unwrap_or(&[]) {
                if let Some(v) = m.num("value") {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    println!(
        "{:<15} {:<32} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "iqr/med"
    );
    for ((workload, name), v) in &values {
        let (q1, med, q3) = (quantile(v, 0.25), median(v), quantile(v, 0.75));
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let bound = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.bound);
        let flag = match bound {
            Some(b) if spread > b => "  IQR exceeds bound",
            _ => "",
        };
        println!("{workload:<15} {name:<32} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}{flag}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.workload.is_some() {
        child(&opts)
    } else {
        parent(&opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_the_metric_table() {
        let doc = capman_lab::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.str("name").expect("name").to_string(),
                        m.str("unit").expect("unit").to_string(),
                        m.str("better").expect("better").to_string(),
                        m.num("bound"),
                    )
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.str("name").expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        let clock = Clock::calibrate();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: Some(workload.to_string()),
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    reps: 1,
                    out: None,
                    trace_out: None,
                };
                let report = run_workload(&opts, clock);
                assert!(
                    report.failures.is_empty(),
                    "{workload} trace={trace}: {:?}",
                    report.failures
                );
                // Panics if a published metric is missing.
                let json = result_json(&report, trace);
                assert!(json.starts_with("{\"correct\": true"), "{json}");
            }
        }
    }

    #[test]
    fn reconciliation_fails_on_overshooting_rows_or_a_far_step() {
        let failures = |step, sim_self, untraced| {
            let mut report = Report::default();
            ledger::check_reconciliation(&mut report, step, sim_self, untraced);
            report.failures.len()
        };
        assert_eq!(failures(300.0, 80.0, None), 0);
        assert_eq!(failures(300.0, 80.0, Some(280.0)), 0);
        // Layer rows summing past the step leave a negative self time.
        assert_eq!(failures(300.0, -5.0, None), 1);
        // A traced step 20% off the untraced one.
        assert_eq!(failures(300.0, 80.0, Some(250.0)), 1);
        assert_eq!(failures(300.0, -5.0, Some(250.0)), 2);
    }
}
