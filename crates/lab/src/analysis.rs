//! Aggregation: trials → an analysis table.
//!
//! One row per (variant × task) group: outcome counts, objective
//! moments, and sketch quantiles. The table serialises to a JSON
//! document whose `analysis` section is a flat array of
//! numbers-and-strings rows — the same row shape as a `BENCH_*.json`
//! section, so a lab analysis file can be gated and diffed with the
//! same machinery as a bench report.

use capman_fleet::QuantileSketch;

use crate::json::{obj, Json};
use crate::stats;
use crate::trial::{TrialOutcome, TrialResult};

/// Sketch resolution for objective quantiles: with the group's own
/// [min, max] as range, quantiles land within (max−min)/64 of the
/// exact order statistic.
const SKETCH_BINS: usize = 64;

/// Aggregate of one (variant × task) cell across its repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRow {
    /// Variant name.
    pub variant: String,
    /// Task id.
    pub task_id: String,
    /// Objective name shared by the group's trials.
    pub objective_name: String,
    /// Trials in the group.
    pub n: usize,
    /// Trials that met the service contract.
    pub successes: usize,
    /// Trials that ran but failed it.
    pub failures: usize,
    /// Trials that could not execute.
    pub errors: usize,
    /// Objective mean over executed (non-error) trials.
    pub mean: f64,
    /// Unbiased objective standard deviation.
    pub std: f64,
    /// Smallest objective.
    pub min: f64,
    /// Largest objective.
    pub max: f64,
    /// Median via [`QuantileSketch`].
    pub p50: f64,
    /// 95th percentile via [`QuantileSketch`].
    pub p95: f64,
}

/// The full analysis table of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisTable {
    /// Experiment name.
    pub experiment: String,
    /// One row per (variant × task), in first-seen order.
    pub rows: Vec<AnalysisRow>,
}

impl AnalysisTable {
    /// Group `trials` by (variant, task) and reduce each group.
    pub fn from_trials(experiment: &str, trials: &[TrialResult]) -> AnalysisTable {
        let mut groups: Vec<(String, String, Vec<&TrialResult>)> = Vec::new();
        for t in trials {
            match groups
                .iter_mut()
                .find(|(v, id, _)| *v == t.variant && *id == t.task_id)
            {
                Some((_, _, members)) => members.push(t),
                None => groups.push((t.variant.clone(), t.task_id.clone(), vec![t])),
            }
        }
        let rows = groups
            .into_iter()
            .map(|(variant, task_id, members)| reduce(variant, task_id, &members))
            .collect();
        AnalysisTable {
            experiment: experiment.to_string(),
            rows,
        }
    }

    /// The row for a (variant, task) pair.
    pub fn row(&self, variant: &str, task_id: &str) -> Option<&AnalysisRow> {
        self.rows
            .iter()
            .find(|r| r.variant == variant && r.task_id == task_id)
    }

    /// Serialise: `{"experiment": ..., "analysis": [rows...]}`.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("experiment", Json::Str(self.experiment.clone())),
            (
                "analysis",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("variant", Json::Str(r.variant.clone())),
                                ("task_id", Json::Str(r.task_id.clone())),
                                ("objective", Json::Str(r.objective_name.clone())),
                                ("n", Json::Num(r.n as f64)),
                                ("successes", Json::Num(r.successes as f64)),
                                ("failures", Json::Num(r.failures as f64)),
                                ("errors", Json::Num(r.errors as f64)),
                                ("mean", Json::Num(r.mean)),
                                ("std", Json::Num(r.std)),
                                ("min", Json::Num(r.min)),
                                ("max", Json::Num(r.max)),
                                ("p50", Json::Num(r.p50)),
                                ("p95", Json::Num(r.p95)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn reduce(variant: String, task_id: String, members: &[&TrialResult]) -> AnalysisRow {
    let mut successes = 0;
    let mut failures = 0;
    let mut errors = 0;
    let mut objectives = Vec::new();
    let mut objective_name = String::new();
    for t in members {
        match &t.outcome {
            TrialOutcome::Success => successes += 1,
            TrialOutcome::Failure => failures += 1,
            TrialOutcome::Error(_) => {
                errors += 1;
                continue;
            }
        }
        objective_name = t.objective_name.clone();
        objectives.push(t.objective);
    }
    let (mean, std, min, max, p50, p95) = if objectives.is_empty() {
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    } else {
        let min = objectives.iter().copied().fold(f64::INFINITY, f64::min);
        let max = objectives.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // A sketch needs a non-empty range; widen degenerate groups by
        // an epsilon so constant objectives still aggregate.
        let hi = if max > min {
            max
        } else {
            min + min.abs().max(1.0) * 1e-9
        };
        let mut sketch = QuantileSketch::new(min, hi, SKETCH_BINS);
        for &o in &objectives {
            sketch.insert(o);
        }
        (
            stats::mean(&objectives),
            stats::variance(&objectives).sqrt(),
            min,
            max,
            sketch.p50(),
            sketch.p95(),
        )
    };
    AnalysisRow {
        variant,
        task_id,
        objective_name,
        n: members.len(),
        successes,
        failures,
        errors,
        mean,
        std,
        min,
        max,
        p50,
        p95,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(variant: &str, task: &str, rep: usize, objective: f64) -> TrialResult {
        TrialResult {
            trial_id: format!("t-{task}-{variant}-{rep}"),
            task_id: task.into(),
            variant: variant.into(),
            rep,
            seed: rep as u64,
            outcome: TrialOutcome::Success,
            objective_name: "service_time_s".into(),
            objective,
            metrics: vec![],
        }
    }

    #[test]
    fn groups_by_variant_and_task() {
        let trials = vec![
            trial("a", "t0", 0, 10.0),
            trial("a", "t0", 1, 14.0),
            trial("b", "t0", 0, 20.0),
            trial("a", "t1", 0, 1.0),
        ];
        let table = AnalysisTable::from_trials("x", &trials);
        assert_eq!(table.rows.len(), 3);
        let a0 = table.row("a", "t0").expect("row exists");
        assert_eq!(a0.n, 2);
        assert_eq!(a0.mean, 12.0);
        assert_eq!(a0.min, 10.0);
        assert_eq!(a0.max, 14.0);
        assert!((a0.std - 8.0_f64.sqrt()).abs() < 1e-12);
        assert!(table.row("a", "t2").is_none());
    }

    #[test]
    fn errors_do_not_pollute_the_moments() {
        let mut bad = trial("a", "t0", 2, 9999.0);
        bad.outcome = TrialOutcome::Error("boom".into());
        let trials = vec![trial("a", "t0", 0, 10.0), trial("a", "t0", 1, 10.0), bad];
        let row = AnalysisTable::from_trials("x", &trials).rows[0].clone();
        assert_eq!(row.n, 3);
        assert_eq!(row.errors, 1);
        assert_eq!(row.mean, 10.0);
        assert_eq!(row.max, 10.0, "error objective excluded");
        assert_eq!(row.p50, 10.0, "degenerate range still sketches");
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let objectives = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let trials: Vec<TrialResult> = objectives
            .iter()
            .enumerate()
            .map(|(i, &o)| trial("a", "t0", i, o))
            .collect();
        let row = AnalysisTable::from_trials("x", &trials).rows[0].clone();
        assert!(row.p50 >= row.min && row.p50 <= row.max);
        assert!(row.p95 >= row.p50 && row.p95 <= row.max);
    }

    #[test]
    fn serialises_rows_the_perf_tooling_can_read() {
        let trials = vec![trial("a", "t0", 0, 10.0), trial("a", "t0", 1, 14.0)];
        let doc = AnalysisTable::from_trials("exp", &trials).to_json();
        let rendered = doc.to_pretty();
        let parsed = crate::json::parse(&rendered).expect("valid JSON");
        assert_eq!(parsed.str("experiment"), Some("exp"));
        let rows = parsed.get("analysis").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].num("mean"), Some(12.0));
        assert_eq!(rows[0].str("variant"), Some("a"));
    }
}
