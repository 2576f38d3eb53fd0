//! Cross-PR perf regression gate over the committed `BENCH_*.json`
//! reports — statistically rigorous edition.
//!
//! ```text
//! # File mode: committed baseline vs freshly regenerated report.
//! perf_gate <committed.json> <fresh.json> [--alpha 0.05] [--min-effect 0.05]
//!           [--max-slowdown 1.30] [--min-ms 0.25]
//!
//! # Live mode (no positionals): interleaved A/B arms in-process.
//! perf_gate [--alpha 0.05] [--reps 10] [--ab-slowdown 1.0] [--ab-seed N]
//! ```
//!
//! In file mode, CI regenerates a benchmark report and compares it
//! against the committed one at matching fixture sizes. Rows that carry
//! per-rep sample arrays (`"<metric>_samples"`) get a one-sided Welch's
//! t-test: FAIL only when the slowdown is statistically credible
//! (`p < alpha`) *and* practically large (mean ratio above the
//! `--min-effect` floor). Legacy rows without samples fall back to the
//! old point-ratio rule against `--max-slowdown`. The gated metrics and
//! floor semantics live in [`capman_bench::gate`].
//!
//! In live mode the binary measures its own baseline/candidate arms
//! back-to-back (the serial CSR solver on the 512-state fixture),
//! interleaved so machine load hits both arms alike, and judges them
//! with the same machinery. `--ab-slowdown 1.0` is the A/A sanity
//! check; `--ab-seed` swaps wall-clock timing for a seeded synthetic
//! distribution so the check is deterministic.
//!
//! A committed row whose gated metric has no number in the matching
//! fresh row fails: a renamed key or a `null` must not pass as "within
//! limits".
//!
//! Exit codes: `0` pass or clean skip (missing report, no matched
//! rows), `1` regression, `2` usage error (wrong arity, an unknown flag,
//! or a flag value that does not parse or is out of range — `--alpha`
//! in (0, 1), `--reps` an integer >= 2, `--min-ms` and the slowdowns
//! finite and > 0, `--min-effect` finite and >= 0, `--ab-seed` a `u64`),
//! `3` a report **exists but is not valid JSON** — a corrupt baseline
//! must not silently disable the gate.

use capman_bench::gate::{self, GateConfig, GateOutcome};
use capman_bench::mdp_fixtures::{build_csr, device_like_transitions};
use capman_mdp::value_iteration::solve_with_mode;
use capman_mdp::ExecutionMode;

const USAGE: &str = "usage: perf_gate <committed.json> <fresh.json> \
     [--alpha 0.05] [--min-effect 0.05] [--max-slowdown 1.30] [--min-ms 0.25]\n\
     \x20      perf_gate [--alpha 0.05] [--reps 10] [--ab-slowdown 1.0] [--ab-seed N]";

struct Args {
    positional: Vec<String>,
    cfg: GateConfig,
    reps: usize,
    ab_slowdown: f64,
    ab_seed: Option<u64>,
}

/// Parse the command line. Every flag takes a value; an unknown flag,
/// a missing or unparsable value, or one out of range is an error.
fn parse_args() -> Result<Args, String> {
    fn positive(v: f64) -> bool {
        v.is_finite() && v > 0.0
    }
    const POSITIVE: &str = "a finite number > 0";
    let mut args = Args {
        positional: Vec::new(),
        cfg: GateConfig::default(),
        reps: 10,
        ab_slowdown: 1.0,
        ab_seed: None,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        if !arg.starts_with('-') {
            args.positional.push(arg);
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = |rule: &str| format!("{arg} {value}: expected {rule}");
        let number = |ok: fn(f64) -> bool, rule: &str| {
            value
                .parse::<f64>()
                .ok()
                .filter(|&v| ok(v))
                .ok_or_else(|| bad(rule))
        };
        match arg.as_str() {
            "--alpha" => args.cfg.alpha = number(|v| v > 0.0 && v < 1.0, "a number in (0, 1)")?,
            "--min-effect" => {
                args.cfg.min_effect = number(|v| v.is_finite() && v >= 0.0, "a finite number >= 0")?
            }
            "--max-slowdown" => args.cfg.max_slowdown = number(positive, POSITIVE)?,
            "--min-ms" => args.cfg.floor = number(positive, POSITIVE)?,
            "--ab-slowdown" => args.ab_slowdown = number(positive, POSITIVE)?,
            "--reps" => {
                args.reps = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 2)
                    .ok_or_else(|| bad("an integer >= 2"))?
            }
            "--ab-seed" => args.ab_seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    Ok(args)
}

fn usage_error(reason: &str) -> ! {
    eprintln!("perf_gate: {reason}\n{USAGE}");
    std::process::exit(2);
}

/// Read a report, or skip the whole gate cleanly when it is absent — a
/// missing file means "no baseline yet", not "regression".
fn read_or_skip(path: &str, role: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            println!("perf_gate: SKIP — {role} report {path} unreadable ({e}); nothing to gate");
            std::process::exit(0);
        }
    }
}

fn print_outcome(outcome: &GateOutcome) {
    for note in &outcome.notes {
        println!("{note}");
    }
    for row in &outcome.rows {
        println!("{}: {} {}", row.context, row.detail, row.verdict.label());
    }
}

fn finish(outcome: &GateOutcome, skip_note: Option<String>) -> ! {
    print_outcome(outcome);
    if outcome.compared == 0 {
        if let Some(note) = skip_note {
            println!("{note}");
        }
        std::process::exit(0);
    }
    if outcome.failures > 0 {
        eprintln!("perf_gate: {} gated metric(s) regressed", outcome.failures);
        std::process::exit(1);
    }
    println!(
        "perf_gate: all {} gated metrics within limits",
        outcome.compared
    );
    std::process::exit(0);
}

/// Live-mode sampler: one serial CSR solve of the 512-state device
/// fixture, milliseconds.
fn solver_sampler() -> impl FnMut() -> f64 {
    const STATES: usize = 512;
    let csr = build_csr(STATES, &device_like_transitions(STATES, 42));
    move || {
        let t0 = std::time::Instant::now();
        let out = solve_with_mode(&csr, 0.95, 1e-9, ExecutionMode::Serial);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(out);
        ms
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(&e));
    match args.positional.len() {
        0 => {
            let outcome = match args.ab_seed {
                Some(seed) => gate::live_ab(
                    args.reps,
                    args.ab_slowdown,
                    &args.cfg,
                    gate::synthetic_sampler(seed),
                ),
                None => gate::live_ab(args.reps, args.ab_slowdown, &args.cfg, solver_sampler()),
            };
            finish(&outcome, None);
        }
        2 => {
            let committed = read_or_skip(&args.positional[0], "committed");
            let fresh = read_or_skip(&args.positional[1], "fresh");
            let outcome = match gate::evaluate_reports(&committed, &fresh, &args.cfg) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("perf_gate: CORRUPT — {e}");
                    std::process::exit(3);
                }
            };
            let skip = format!(
                "perf_gate: SKIP — no gated rows matched between {} and {} \
                 (new report shape, or disjoint fixture sizes); nothing to gate",
                args.positional[0], args.positional[1]
            );
            finish(&outcome, Some(skip));
        }
        n => usage_error(&format!("expected 0 or 2 report paths, got {n}")),
    }
}
