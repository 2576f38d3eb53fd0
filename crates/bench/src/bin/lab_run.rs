//! Run a declarative experiment: `experiment.yaml` + `tasks.jsonl` →
//! per-trial `result.json` files + an aggregated analysis table.
//!
//! ```text
//! lab_run <experiment.yaml> [--tasks tasks.jsonl] [--out DIR] [--analysis PATH]
//! ```
//!
//! `--tasks` defaults to `tasks.jsonl` next to the experiment file.
//! `--out` defaults to `lab-out/<experiment name>`; the directory gains
//! `experiment.json` (the run manifest), `trials/<id>/result.json` per
//! trial, and `analysis.json` (one row per variant × task — the same
//! flat row shape as a `BENCH_*.json` section). `--analysis`
//! writes an extra copy of the table, e.g. for a CI artifact upload.
//! See `EXPERIMENTS.md` for the file contract.
//!
//! Exit codes: `0` on success (including trials whose *outcome* is
//! `failure` — a policy missing its service contract is a result, not a
//! harness error), `1` when the experiment cannot run, `2` on usage
//! errors.

use std::path::{Path, PathBuf};
use std::process::exit;

use capman_lab::{run_to_dir, AnalysisTable, ExperimentSpec, Task, TrialOutcome};

const USAGE: &str =
    "usage: lab_run <experiment.yaml> [--tasks tasks.jsonl] [--out DIR] [--analysis PATH]";

fn fail(msg: &str) -> ! {
    eprintln!("lab_run: {msg}");
    exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |name: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let positional: Vec<&String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if a.starts_with("--") {
                    skip_next = true;
                    return false;
                }
                true
            })
            .collect()
    };
    if positional.len() != 1 {
        eprintln!("{USAGE}");
        exit(2);
    }
    let spec_path = PathBuf::from(positional[0]);
    let tasks_path = value_of("--tasks").map(PathBuf::from).unwrap_or_else(|| {
        spec_path
            .parent()
            .unwrap_or(Path::new("."))
            .join("tasks.jsonl")
    });

    let spec_src = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", spec_path.display())));
    let spec = ExperimentSpec::from_yaml(&spec_src)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", spec_path.display())));
    let tasks_src = std::fs::read_to_string(&tasks_path)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", tasks_path.display())));
    let tasks = Task::from_jsonl(&tasks_src)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", tasks_path.display())));

    let out_dir = value_of("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("lab-out").join(&spec.name));

    println!(
        "experiment {}: {} task(s) x {} variant(s) x {} repeat(s) = {} trial(s) -> {}",
        spec.name,
        tasks.len(),
        spec.variants.len(),
        spec.repeats,
        tasks.len() * spec.variants.len() * spec.repeats,
        out_dir.display()
    );
    let trials =
        run_to_dir(&spec, &tasks, &out_dir).unwrap_or_else(|e| fail(&format!("run failed: {e}")));
    for t in &trials {
        let note = match &t.outcome {
            TrialOutcome::Success => String::new(),
            TrialOutcome::Failure => " [failure]".to_string(),
            TrialOutcome::Error(reason) => format!(" [error: {reason}]"),
        };
        println!(
            "  {} {}={:.4}{note}",
            t.trial_id, t.objective_name, t.objective
        );
    }

    let table = AnalysisTable::from_trials(&spec.name, &trials);
    let rendered = table.to_json().to_pretty();
    let analysis_path = out_dir.join("analysis.json");
    std::fs::write(&analysis_path, &rendered)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", analysis_path.display())));
    println!(
        "wrote {} ({} rows)",
        analysis_path.display(),
        table.rows.len()
    );
    if let Some(extra) = value_of("--analysis") {
        std::fs::write(extra, &rendered).unwrap_or_else(|e| fail(&format!("{extra}: {e}")));
        println!("wrote {extra}");
    }
}
