//! The statistical perf gate: Welch's t-test over benchmark rep
//! samples, with a legacy ratio fallback for sample-less reports.
//!
//! The old gate compared two point estimates (min-over-reps) against a
//! fixed 30% threshold — tight enough to flake on shared runners, loose
//! enough to wave through real 25% regressions. This module replaces
//! the verdict with a test over the *rep distributions* the reports now
//! carry (`"<metric>_samples"` arrays): a one-sided Welch's t-test
//! fails a row only when the slowdown is both statistically credible
//! (`p < alpha`) and practically large (`mean ratio − 1 > min_effect`).
//! Reports predating the samples schema — or single-rep rows — fall
//! back to the old point-ratio rule, so the gate never loses coverage
//! while baselines catch up.
//!
//! The gate keeps its two standing contracts:
//!
//! * **Clean SKIP** — a *missing* report or zero matched rows exits 0
//!   with a loud message: "no baseline yet" is not a regression. A
//!   report that exists but fails to parse is a different animal — the
//!   baseline is corrupt and silence would disable the gate forever —
//!   so [`evaluate_reports`] returns an error the CLI maps to exit 3.
//! * **[`GateMode::FloorAsBaseline`]** — metrics whose healthy value
//!   sits under the noise floor (p99 staleness at bucket resolution)
//!   divide by `max(baseline, floor)` instead of being skipped.
//!
//! The same verdict machinery powers a *live* mode: interleaved
//! baseline/candidate arms measured back-to-back in one process
//! ([`live_ab`]), which is how the A/A sanity check runs in CI.

use capman_lab::json::{self, Json};
use capman_lab::stats::{mean, welch_t_test};
use capman_serve::slo::floor_ratio;

/// How a gated metric treats committed values below the noise floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Skip sub-floor rows entirely (wall-time metrics: below the floor
    /// the timer noise exceeds any real regression).
    SkipBelowFloor,
    /// Gate sub-floor rows against the floor itself: the effect ratio
    /// divides by `max(baseline, floor)`. For metrics whose healthy
    /// value sits *under* the floor, skipping would disable the gate
    /// forever, while a raw ratio against a near-zero baseline would
    /// flake on bucket jitter.
    FloorAsBaseline,
}

/// Gate thresholds. `Default` is the CI configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// One-sided significance level for the Welch verdict: the row
    /// fails only if the slowdown would appear by chance less than
    /// `alpha` of the time.
    pub alpha: f64,
    /// Practical-significance floor: mean slowdowns at or below this
    /// fraction pass even when statistically certain (a 1% regression
    /// with tiny variance is significant but not actionable).
    pub min_effect: f64,
    /// Legacy point-ratio limit, used when either side of a row lacks
    /// a sample distribution.
    pub max_slowdown: f64,
    /// Noise floor in the metric's own unit (the old `--min-ms`).
    pub floor: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            alpha: 0.05,
            min_effect: 0.05,
            max_slowdown: 1.30,
            floor: 0.25,
        }
    }
}

/// The gated metrics: `(section, key_field, metric, mode)`. Rows are
/// matched across reports by the value of `key_field`; samples ride in
/// `"<metric>_samples"`. Units need not be milliseconds —
/// `staleness_p99_s` is simulated seconds; the floor is interpreted in
/// the metric's own unit.
pub const GATES: [(&str, &str, &str, GateMode); 7] = [
    (
        "solver",
        "states",
        "csr_serial_ms",
        GateMode::SkipBelowFloor,
    ),
    (
        "similarity",
        "states",
        "engine_ms",
        GateMode::SkipBelowFloor,
    ),
    (
        "recalibration",
        "states",
        "warm_ms",
        GateMode::SkipBelowFloor,
    ),
    (
        "incremental",
        "dirty_frac",
        "wall_ms",
        GateMode::SkipBelowFloor,
    ),
    ("fleet", "devices", "pool_wall_ms", GateMode::SkipBelowFloor),
    (
        "fleet",
        "devices",
        "staleness_p99_s",
        GateMode::FloorAsBaseline,
    ),
    ("arena", "devices", "wall_ms", GateMode::SkipBelowFloor),
];

/// Verdict on one gated row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowVerdict {
    /// Within limits.
    Pass,
    /// Credible, practically large regression.
    Fail,
    /// Not judged (sub-floor baseline).
    Skip,
}

impl RowVerdict {
    /// The label the CLI prints after the row.
    pub fn label(self) -> &'static str {
        match self {
            RowVerdict::Pass => "ok",
            RowVerdict::Fail => "REGRESSION",
            RowVerdict::Skip => "skipped",
        }
    }
}

/// One judged (or skipped) row.
#[derive(Debug, Clone)]
pub struct RowReport {
    /// `"section/key_field=key metric"`, ready for printing.
    pub context: String,
    /// The verdict.
    pub verdict: RowVerdict,
    /// Human-readable evidence (test statistics or the point ratio).
    pub detail: String,
}

/// The whole gate run.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Judged and skipped rows, in gate order.
    pub rows: Vec<RowReport>,
    /// Section-level skips (absent sections, unmatched fixture sizes).
    pub notes: Vec<String>,
    /// Rows that received a pass/fail verdict.
    pub compared: usize,
    /// Rows that failed.
    pub failures: usize,
}

/// Judge one row. Prefers Welch's t-test over the rep distributions;
/// rows without at least two samples per side fall back to the legacy
/// point ratio against `max_slowdown`. Both divide by
/// `max(baseline, floor)` through the same [`floor_ratio`] the serve
/// SLO monitor uses.
pub fn judge(
    baseline: f64,
    candidate: f64,
    baseline_samples: &[f64],
    candidate_samples: &[f64],
    cfg: &GateConfig,
) -> (RowVerdict, String) {
    if let Some(w) = welch_t_test(baseline_samples, candidate_samples) {
        let effect = floor_ratio(w.mean_candidate, w.mean_baseline, cfg.floor) - 1.0;
        let fail = w.p_greater < cfg.alpha && effect > cfg.min_effect;
        let verdict = if fail {
            RowVerdict::Fail
        } else {
            RowVerdict::Pass
        };
        let detail = format!(
            "Welch t={:.2} df={:.1} p={:.4} effect={:+.1}% \
             (n={}/{}, alpha={}, min-effect={:.0}%)",
            w.t,
            w.df,
            w.p_greater,
            effect * 100.0,
            baseline_samples.len(),
            candidate_samples.len(),
            cfg.alpha,
            cfg.min_effect * 100.0,
        );
        (verdict, detail)
    } else {
        let ratio = floor_ratio(candidate, baseline, cfg.floor);
        let verdict = if ratio > cfg.max_slowdown {
            RowVerdict::Fail
        } else {
            RowVerdict::Pass
        };
        let detail = format!(
            "{baseline:.3} -> {candidate:.3} ({ratio:.2}x, limit {:.2}x, point ratio)",
            cfg.max_slowdown
        );
        (verdict, detail)
    }
}

/// Evaluate two parsed reports against [`GATES`].
pub fn evaluate(committed: &Json, fresh: &Json, cfg: &GateConfig) -> GateOutcome {
    let mut out = GateOutcome::default();
    for (section, key_field, metric, mode) in GATES {
        let old_rows = committed.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        let new_rows = fresh.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        if old_rows.is_empty() || new_rows.is_empty() {
            out.notes.push(format!(
                "{section}: absent from {} report, skipped",
                if old_rows.is_empty() {
                    "committed"
                } else {
                    "fresh"
                }
            ));
            continue;
        }
        // Fresh rows that all lack the key a committed row has mean the
        // key was renamed: skipping each unmatched row would pass it.
        let keyed = |rows: &[Json]| rows.iter().any(|r| r.num(key_field).is_some());
        if keyed(old_rows) && !keyed(new_rows) {
            out.compared += 1;
            out.failures += 1;
            out.rows.push(RowReport {
                context: format!("{section}/{key_field} {metric}"),
                verdict: RowVerdict::Fail,
                detail: format!("no fresh {section} row has the key field {key_field}"),
            });
            continue;
        }
        for old in old_rows {
            let Some(key) = old.num(key_field) else {
                continue;
            };
            let Some(new) = new_rows.iter().find(|r| r.num(key_field) == Some(key)) else {
                out.notes.push(format!(
                    "{section}/{key_field}={key}: only in committed report, skipped"
                ));
                continue;
            };
            let context = format!("{section}/{key_field}={key} {metric}");
            let Some(baseline) = old.num(metric) else {
                out.notes.push(format!(
                    "{context}: not in committed report (no baseline yet), skipped"
                ));
                continue;
            };
            // A gated metric that vanished (renamed key, or a NaN the
            // codec rendered as `null`) must not pass silently.
            let Some(candidate) = new.num(metric) else {
                out.compared += 1;
                out.failures += 1;
                out.rows.push(RowReport {
                    context,
                    verdict: RowVerdict::Fail,
                    detail: format!("fresh row has no number for {metric}"),
                });
                continue;
            };
            if baseline < cfg.floor && mode == GateMode::SkipBelowFloor {
                out.rows.push(RowReport {
                    context,
                    verdict: RowVerdict::Skip,
                    detail: format!(
                        "committed {baseline:.3} below the {:.2} noise floor",
                        cfg.floor
                    ),
                });
                continue;
            }
            let samples_key = format!("{metric}_samples");
            let baseline_samples = old.num_array(&samples_key).unwrap_or_default();
            let candidate_samples = new.num_array(&samples_key).unwrap_or_default();
            let (verdict, detail) = judge(
                baseline,
                candidate,
                &baseline_samples,
                &candidate_samples,
                cfg,
            );
            out.compared += 1;
            if verdict == RowVerdict::Fail {
                out.failures += 1;
            }
            out.rows.push(RowReport {
                context,
                verdict,
                detail,
            });
        }
    }
    out
}

/// Parse two report documents and evaluate them. A document that fails
/// to parse is a *corrupt baseline*, not a missing one: the error names
/// the offending role and position so the CLI can exit 3 instead of
/// silently skipping the gate.
pub fn evaluate_reports(
    committed: &str,
    fresh: &str,
    cfg: &GateConfig,
) -> Result<GateOutcome, String> {
    let committed = json::parse(committed).map_err(|e| format!("committed report: {e}"))?;
    let fresh = json::parse(fresh).map_err(|e| format!("fresh report: {e}"))?;
    Ok(evaluate(&committed, &fresh, cfg))
}

/// Live interleaved A/B: draw `reps` baseline/candidate measurement
/// pairs from `sample_ms` back-to-back (so machine load hits both arms
/// alike), scale the candidate arm by `ab_slowdown`, and judge with the
/// same Welch machinery as the file gate. `ab_slowdown = 1.0` is the
/// A/A sanity check: both arms sample the same distribution and the
/// verdict should pass all but `alpha` of the time.
///
/// # Panics
///
/// Panics if `reps < 2` — the t-test needs a distribution per arm.
pub fn live_ab(
    reps: usize,
    ab_slowdown: f64,
    cfg: &GateConfig,
    mut sample_ms: impl FnMut() -> f64,
) -> GateOutcome {
    assert!(reps >= 2, "live mode needs at least 2 reps per arm");
    let mut baseline = Vec::with_capacity(reps);
    let mut candidate = Vec::with_capacity(reps);
    for _ in 0..reps {
        baseline.push(sample_ms());
        candidate.push(sample_ms() * ab_slowdown);
    }
    let (verdict, detail) = judge(
        mean(&baseline),
        mean(&candidate),
        &baseline,
        &candidate,
        cfg,
    );
    GateOutcome {
        rows: vec![RowReport {
            context: format!("live/interleaved x{reps} csr_serial_ms"),
            verdict,
            detail,
        }],
        notes: Vec::new(),
        compared: 1,
        failures: (verdict == RowVerdict::Fail) as usize,
    }
}

/// A deterministic stand-in for wall-clock measurement: Box–Muller
/// normals around 100 ms with σ = 2 ms, seeded. Lets the live mode run
/// reproducibly in tests and CI smoke (`perf_gate --ab-seed N`).
pub fn synthetic_sampler(seed: u64) -> impl FnMut() -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    move || {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (100.0 + 2.0 * z).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shifted(base: f64, n: usize, step: f64) -> Vec<f64> {
        (0..n).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_clear_regression_fails_the_welch_verdict() {
        let cfg = GateConfig::default();
        let baseline = shifted(100.0, 10, 0.5);
        let candidate = shifted(200.0, 10, 0.5);
        let (verdict, detail) = judge(100.0, 200.0, &baseline, &candidate, &cfg);
        assert_eq!(verdict, RowVerdict::Fail, "{detail}");
        assert!(detail.contains("Welch"));
    }

    #[test]
    fn within_noise_differences_pass() {
        let cfg = GateConfig::default();
        // Overlapping arms: mean shift ~1% against σ ≈ 3.
        let baseline = vec![100.0, 104.0, 98.0, 101.0, 97.0, 103.0];
        let candidate = vec![101.0, 105.0, 99.0, 102.0, 98.0, 104.0];
        let (verdict, detail) = judge(100.0, 101.0, &baseline, &candidate, &cfg);
        assert_eq!(verdict, RowVerdict::Pass, "{detail}");
    }

    #[test]
    fn statistically_significant_but_tiny_effects_pass() {
        let cfg = GateConfig::default();
        // A 2% slowdown with near-zero variance: p ≈ 0 but the effect
        // is under the 5% practicality floor.
        let baseline = shifted(100.0, 10, 1e-4);
        let candidate = shifted(102.0, 10, 1e-4);
        let (verdict, detail) = judge(100.0, 102.0, &baseline, &candidate, &cfg);
        assert_eq!(verdict, RowVerdict::Pass, "{detail}");
    }

    #[test]
    fn sampleless_rows_fall_back_to_the_point_ratio() {
        let cfg = GateConfig::default();
        let (verdict, detail) = judge(100.0, 140.0, &[], &[], &cfg);
        assert_eq!(verdict, RowVerdict::Fail);
        assert!(detail.contains("point ratio"), "{detail}");
        let (verdict, _) = judge(100.0, 120.0, &[], &[], &cfg);
        assert_eq!(verdict, RowVerdict::Pass);
        // One sample is not a distribution either.
        let (_, detail) = judge(100.0, 120.0, &[100.0], &[120.0], &cfg);
        assert!(detail.contains("point ratio"));
    }

    #[test]
    fn corrupt_reports_are_an_error_not_a_skip() {
        let cfg = GateConfig::default();
        let good = r#"{"solver": []}"#;
        let err = evaluate_reports("{\"solver\": [truncated", good, &cfg)
            .expect_err("corrupt committed report must error");
        assert!(err.starts_with("committed report:"), "{err}");
        let err = evaluate_reports(good, "", &cfg).expect_err("empty fresh report must error");
        assert!(err.starts_with("fresh report:"), "{err}");
        // Both parseable → a clean outcome even with nothing to gate.
        let out = evaluate_reports(good, good, &cfg).expect("valid reports");
        assert_eq!(out.compared, 0);
    }

    #[test]
    fn live_aa_passes_and_a_doubled_arm_fails() {
        let cfg = GateConfig::default();
        let aa = live_ab(10, 1.0, &cfg, synthetic_sampler(7));
        assert_eq!(aa.failures, 0, "{}", aa.rows[0].detail);
        let ab = live_ab(10, 2.0, &cfg, synthetic_sampler(7));
        assert_eq!(ab.failures, 1, "{}", ab.rows[0].detail);
        assert!(ab.rows[0].detail.contains("Welch"));
    }

    #[test]
    fn floor_as_baseline_judges_subfloor_rows_and_skip_mode_does_not() {
        let cfg = GateConfig::default();
        // staleness_p99_s is gated FloorAsBaseline: a sub-floor
        // committed value still trips on a jump past floor × limit.
        let committed = r#"{
            "fleet": [{"devices": 64, "pool_wall_ms": 0.1, "staleness_p99_s": 0.1}]
        }"#;
        let fresh = r#"{
            "fleet": [{"devices": 64, "pool_wall_ms": 0.2, "staleness_p99_s": 9.0}]
        }"#;
        let out = evaluate_reports(committed, fresh, &cfg).expect("valid reports");
        let skipped: Vec<_> = out
            .rows
            .iter()
            .filter(|r| r.verdict == RowVerdict::Skip)
            .collect();
        assert_eq!(skipped.len(), 1, "pool_wall_ms skipped below floor");
        assert!(skipped[0].context.contains("pool_wall_ms"));
        assert_eq!(out.compared, 1, "staleness judged despite the floor");
        assert_eq!(out.failures, 1, "9.0 vs max(0.1, 0.25) is a 36x jump");
    }

    #[test]
    fn a_fresh_row_with_a_null_or_missing_metric_fails() {
        let cfg = GateConfig::default();
        let committed = r#"{
            "fleet": [{"devices": 64, "pool_wall_ms": 900.0, "staleness_p99_s": 0.1}]
        }"#;
        for fresh in [
            r#"{"fleet": [{"devices": 64, "pool_wall_ms": null, "staleness_p99_s": 0.1}]}"#,
            r#"{"fleet": [{"devices": 64, "staleness_p99_s": 0.1}]}"#,
        ] {
            let out = evaluate_reports(committed, fresh, &cfg).expect("valid reports");
            assert_eq!(out.compared, 2, "{fresh}");
            assert_eq!(out.failures, 1, "{fresh}");
            let failed = out
                .rows
                .iter()
                .find(|r| r.verdict == RowVerdict::Fail)
                .expect("a failed row");
            assert!(failed.context.contains("pool_wall_ms"), "{failed:?}");
            assert!(failed.detail.contains("pool_wall_ms"), "{failed:?}");
        }
        // A metric the committed row lacks has no baseline yet: a note,
        // not a verdict.
        let committed = r#"{"fleet": [{"devices": 64, "staleness_p99_s": 0.1}]}"#;
        let fresh = r#"{"fleet": [{"devices": 64, "pool_wall_ms": 5.0, "staleness_p99_s": 0.1}]}"#;
        let out = evaluate_reports(committed, fresh, &cfg).expect("valid reports");
        assert_eq!((out.compared, out.failures), (1, 0));
        assert!(
            out.notes.iter().any(|n| n.contains("no baseline yet")),
            "{:?}",
            out.notes
        );
    }

    #[test]
    fn a_renamed_row_key_fails_the_section_instead_of_skipping() {
        let cfg = GateConfig::default();
        let committed = r#"{
            "solver": [{"states": 512, "csr_serial_ms": 3.0}],
            "similarity": [{"states": 256, "engine_ms": 10.0}]
        }"#;
        let fresh = r#"{
            "solver": [{"n_states": 512, "csr_serial_ms": 3.0}],
            "similarity": [{"n_states": 256, "engine_ms": 10.0}]
        }"#;
        let out = evaluate_reports(committed, fresh, &cfg).expect("valid reports");
        assert_eq!((out.compared, out.failures), (2, 2), "{:?}", out.rows);
        for row in &out.rows {
            assert_eq!(row.verdict, RowVerdict::Fail);
            assert!(row.detail.contains("key field states"), "{row:?}");
        }
        // Key values that are present but disjoint stay a note.
        let fresh = r#"{
            "solver": [{"states": 1024, "csr_serial_ms": 3.0}],
            "similarity": [{"states": 512, "engine_ms": 10.0}]
        }"#;
        let out = evaluate_reports(committed, fresh, &cfg).expect("valid reports");
        assert_eq!((out.compared, out.failures), (0, 0), "{:?}", out.rows);
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("only in committed report")),
            "{:?}",
            out.notes
        );
    }

    #[test]
    fn renaming_every_gated_metric_fails_instead_of_skipping() {
        let cfg = GateConfig::default();
        let committed = r#"{
            "solver": [{"states": 512, "csr_serial_ms": 3.0}],
            "fleet": [{"devices": 64, "pool_wall_ms": 900.0, "staleness_p99_s": 0.1}]
        }"#;
        let fresh = r#"{
            "solver": [{"states": 512, "serial_ms": 3.0}],
            "fleet": [{"devices": 64, "pool_ms": 900.0, "p99_s": 0.1}]
        }"#;
        let out = evaluate_reports(committed, fresh, &cfg).expect("valid reports");
        assert_eq!(out.compared, 3, "every committed metric is judged");
        assert_eq!(out.failures, 3, "{:?}", out.rows);
    }
}
