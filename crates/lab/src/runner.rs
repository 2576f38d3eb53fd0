//! Sweep execution: expand the (task × variant × rep) grid into trial
//! cells, run them, and write one `result.json` per trial.
//!
//! Scenario cells are batched through [`ScenarioRunner`], so a whole
//! experiment fans out across cores in one schedule while outcomes stay
//! index-ordered (the runner's determinism contract). Fleet cells run
//! one after another — each [`ArenaRunner`] is internally parallel
//! already, and interleaving two fleets would have them fight over the
//! same cores and corrupt each other's wall-clock objective.
//!
//! Scenario construction mirrors the evaluation defaults exactly
//! (`config = paper_with_tec()` iff the effective TEC flag is on): an
//! experiment whose variants are just the five policies reproduces the
//! fig12 grid number-for-number, which `examples/lab/fig12` pins in a
//! test.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use capman_core::config::SimConfig;
use capman_core::experiments::PolicyKind;
use capman_core::metrics::{EndReason, Outcome};
use capman_core::online::CalibratorSpec;
use capman_core::scenario::{Scenario, ScenarioRunner};
use capman_fleet::{ArenaRunner, FleetPlan, FleetProfile};
use capman_serve::{CalibrationService, ServiceConfig};

use crate::spec::{Calibration, ExperimentSpec, Task, TaskKind, Variant};
use crate::trial::{TrialOutcome, TrialResult};

/// Compressed-fixture horizon for fleet tasks that do not pin their
/// own: a 25-minute discharge packs several calibration intervals while
/// keeping thousands of devices sweepable (same rationale as
/// `bench_fleet`).
pub const FLEET_DEFAULT_HORIZON_S: f64 = 1500.0;

/// One cell of the sweep grid, fully resolved and ready to execute.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `t{task:03}-v{variant:02}-r{rep:02}`.
    pub trial_id: String,
    /// Index into the task list.
    pub task: usize,
    /// Index into the variant list.
    pub variant: usize,
    /// Repetition index.
    pub rep: usize,
    /// The seed this cell runs with.
    pub seed: u64,
}

/// Expand the full (task × variant × rep) grid in a fixed order: tasks
/// outermost, then variants, then reps. Each rep shifts the cell seed
/// by one so repeats see distinct traces while staying reproducible.
pub fn plan(spec: &ExperimentSpec, tasks: &[Task]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(tasks.len() * spec.variants.len() * spec.repeats);
    for (t, task) in tasks.iter().enumerate() {
        for v in 0..spec.variants.len() {
            for rep in 0..spec.repeats {
                cells.push(Cell {
                    trial_id: format!("t{t:03}-v{v:02}-r{rep:02}"),
                    task: t,
                    variant: v,
                    rep,
                    seed: task.seed.unwrap_or(spec.base_seed) + rep as u64,
                });
            }
        }
    }
    cells
}

/// The scenario a cell resolves to — identical construction to the
/// evaluation's own default scenarios, so sweep numbers match figure
/// numbers exactly.
fn build_scenario(
    spec: &ExperimentSpec,
    task: &Task,
    variant: &Variant,
    seed: u64,
) -> Option<Scenario> {
    let TaskKind::Scenario { workload, phone } = &task.kind else {
        return None;
    };
    let tec = variant.tec.unwrap_or(variant.policy.has_tec());
    let mut config = if tec {
        SimConfig::paper_with_tec()
    } else {
        SimConfig::paper()
    };
    if let Some(h) = task.horizon_s.or(variant.horizon_s).or(spec.horizon_s) {
        config.max_horizon_s = h;
    }
    let mut scenario = Scenario::new(variant.policy, *workload, phone.clone(), seed, config);
    if let Some(cal) = variant.calibrator {
        scenario = scenario.with_calibrator(cal);
    }
    Some(scenario)
}

/// Reduce a scenario outcome to its trial result. The objective is the
/// paper's headline metric (service time); sustained shortfall reads as
/// `failure` — the run completed but the device failed its service
/// contract.
fn scenario_result(cell: &Cell, task: &Task, variant: &Variant, o: &Outcome) -> TrialResult {
    let outcome = match o.end_reason {
        EndReason::SustainedShortfall => TrialOutcome::Failure,
        EndReason::PackDepleted | EndReason::HorizonReached => TrialOutcome::Success,
    };
    TrialResult {
        trial_id: cell.trial_id.clone(),
        task_id: task.id.clone(),
        variant: variant.name.clone(),
        rep: cell.rep,
        seed: cell.seed,
        outcome,
        objective_name: "service_time_s".into(),
        objective: o.service_time_s,
        metrics: vec![
            ("work_served".into(), o.work_served),
            ("energy_delivered_j".into(), o.energy_delivered_j),
            ("energy_heat_j".into(), o.energy_heat_j),
            ("switches".into(), o.switches as f64),
            ("big_active_s".into(), o.big_active_s),
            ("little_active_s".into(), o.little_active_s),
            ("tec_on_s".into(), o.tec_on_s),
            ("tec_energy_j".into(), o.tec_energy_j),
            ("max_hotspot_c".into(), o.max_hotspot_c),
            ("mean_hotspot_c".into(), o.mean_hotspot_c),
            ("scheduler_overhead_us".into(), o.scheduler_overhead_us),
            ("recalibrations".into(), o.recalibrations as f64),
        ],
    }
}

/// Run one fleet cell. The objective is fleet throughput
/// (devices per second of wall clock).
fn run_fleet_cell(
    cell: &Cell,
    task: &Task,
    variant: &Variant,
    spec: &ExperimentSpec,
) -> TrialResult {
    let TaskKind::Fleet {
        devices,
        workloads,
        every_s,
    } = &task.kind
    else {
        unreachable!("fleet cells carry fleet tasks");
    };
    let base = TrialResult {
        trial_id: cell.trial_id.clone(),
        task_id: task.id.clone(),
        variant: variant.name.clone(),
        rep: cell.rep,
        seed: cell.seed,
        outcome: TrialOutcome::Success,
        objective_name: "devices_per_s".into(),
        objective: 0.0,
        metrics: Vec::new(),
    };
    // Fleet profiles are CAPMAN cohorts; a sweep that crosses a
    // non-CAPMAN variant with a fleet task yields a per-trial error,
    // not a dead experiment.
    if variant.policy != PolicyKind::Capman {
        return TrialResult {
            outcome: TrialOutcome::Error(format!(
                "fleet tasks require the CAPMAN policy, variant {:?} runs {}",
                variant.name,
                variant.policy.label()
            )),
            ..base
        };
    }
    let horizon = task
        .horizon_s
        .or(variant.horizon_s)
        .or(spec.horizon_s)
        .unwrap_or(FLEET_DEFAULT_HORIZON_S);
    let mut calibrator = variant.calibrator.unwrap_or_else(CalibratorSpec::paper);
    if let Some(e) = every_s {
        calibrator.every_s = *e;
    }
    let profiles: Vec<FleetProfile> = workloads
        .iter()
        .enumerate()
        .map(|(cohort, &w)| {
            // Distinct, reproducible per-cohort seed streams.
            let mut p = FleetProfile::capman(
                w.label().to_lowercase(),
                w,
                cell.seed.wrapping_add(2 * cohort as u64),
            );
            p.config.max_horizon_s = horizon;
            p.calibrator = calibrator;
            p
        })
        .collect();
    let plan = FleetPlan::new(profiles, devices / workloads.len());
    let specs: Vec<CalibratorSpec> = plan.profiles().iter().map(|p| p.calibrator).collect();
    // Background arms run the arena fleet against two solver threads.
    // `pool` solves every cohort request; `service` adds admission
    // quotas, priority lanes and SLO modes, so a sweep can A/B "every
    // request solved" against "admission-controlled service" on any
    // fleet task.
    let service_config = match variant.calibration {
        Calibration::Inline => None,
        Calibration::Pool => Some(ServiceConfig::unmetered(2, specs.len())),
        Calibration::Service => {
            let mut config = ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            };
            // Quota windows follow the cohorts' calibration cadence, so
            // "one admission per window" means one per due interval.
            config.admission.window_s = calibrator.every_s;
            Some(config)
        }
    };
    let runner = ArenaRunner::default();
    let (result, coalesced, dropped) = match service_config {
        None => (runner.run(&plan), 0, 0),
        Some(config) => {
            let service = Arc::new(CalibrationService::new(&specs, config));
            let result = runner.run_with_backend(&plan, Arc::clone(&service) as _);
            // Project the service ledger onto the backend's
            // three-outcome surface so analysis tables read uniformly.
            let c = service.counters();
            (result, c.coalesced + c.replaced, c.shed + c.backpressure)
        }
    };
    let a = &result.aggregate;
    TrialResult {
        objective: a.devices_per_s(),
        metrics: vec![
            ("devices".into(), a.devices as f64),
            ("ticks".into(), a.ticks as f64),
            ("recalibrations".into(), a.recalibrations as f64),
            ("wall_ms".into(), a.wall_ms),
            ("lifetime_p50_s".into(), a.lifetime_s.p50()),
            ("lifetime_p95_s".into(), a.lifetime_s.p95()),
            ("hotspot_p95_c".into(), a.hotspot_c.p95()),
            ("staleness_p99_s".into(), a.staleness_s.p99()),
            ("pool_coalesced".into(), coalesced as f64),
            ("pool_dropped".into(), dropped as f64),
        ],
        ..base
    }
}

/// Execute every cell of the sweep in memory (no filesystem traffic).
/// Results come back in [`plan`] order.
pub fn run_experiment(spec: &ExperimentSpec, tasks: &[Task]) -> Vec<TrialResult> {
    let cells = plan(spec, tasks);
    // Batch every scenario cell through one ScenarioRunner schedule.
    let mut scenario_cells = Vec::new();
    let mut scenarios = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let task = &tasks[cell.task];
        let variant = &spec.variants[cell.variant];
        if let Some(s) = build_scenario(spec, task, variant, cell.seed) {
            scenario_cells.push(i);
            scenarios.push(s);
        }
    }
    let outcomes = ScenarioRunner::new().run(&scenarios);

    let mut results: Vec<Option<TrialResult>> = vec![None; cells.len()];
    for (slot, outcome) in scenario_cells.iter().zip(&outcomes) {
        let cell = &cells[*slot];
        results[*slot] = Some(scenario_result(
            cell,
            &tasks[cell.task],
            &spec.variants[cell.variant],
            outcome,
        ));
    }
    for (i, cell) in cells.iter().enumerate() {
        if results[i].is_none() {
            results[i] = Some(run_fleet_cell(
                cell,
                &tasks[cell.task],
                &spec.variants[cell.variant],
                spec,
            ));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every cell produced a result"))
        .collect()
}

/// Write one `result.json` per trial under `<out_dir>/trials/<trial_id>/`.
pub fn write_results(results: &[TrialResult], out_dir: &Path) -> Result<(), String> {
    for r in results {
        let dir = out_dir.join("trials").join(&r.trial_id);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("result.json");
        fs::write(&path, r.to_json().to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Read every `trials/*/result.json` under `out_dir` back, sorted by
/// trial id — the pure-filesystem path analysis tooling uses.
pub fn read_results(out_dir: &Path) -> Result<Vec<TrialResult>, String> {
    let trials = out_dir.join("trials");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&trials)
        .map_err(|e| format!("{}: {e}", trials.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut results = Vec::new();
    for dir in dirs {
        let path = dir.join("result.json");
        let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        results.push(TrialResult::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(results)
}

/// Run the sweep and persist it: trials under `<out_dir>/trials/`, the
/// spec echo under `<out_dir>/experiment.json`.
pub fn run_to_dir(
    spec: &ExperimentSpec,
    tasks: &[Task],
    out_dir: &Path,
) -> Result<Vec<TrialResult>, String> {
    let results = run_experiment(spec, tasks);
    fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    write_results(&results, out_dir)?;
    let manifest = crate::json::obj(vec![
        ("name", crate::json::Json::Str(spec.name.clone())),
        (
            "description",
            crate::json::Json::Str(spec.description.clone()),
        ),
        ("repeats", crate::json::Json::Num(spec.repeats as f64)),
        ("base_seed", crate::json::Json::Num(spec.base_seed as f64)),
        ("tasks", crate::json::Json::Num(tasks.len() as f64)),
        (
            "variants",
            crate::json::Json::Arr(
                spec.variants
                    .iter()
                    .map(|v| crate::json::Json::Str(v.name.clone()))
                    .collect(),
            ),
        ),
        ("trials", crate::json::Json::Num(results.len() as f64)),
    ]);
    let manifest_path = out_dir.join("experiment.json");
    fs::write(&manifest_path, manifest.to_pretty())
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentSpec, Task};

    fn spec(yaml: &str) -> ExperimentSpec {
        ExperimentSpec::from_yaml(yaml).expect("valid spec")
    }

    fn short_spec() -> ExperimentSpec {
        spec(
            "name: smoke\n\
             design:\n  repeats: 2\n  base_seed: 11\n\
             runtime:\n  horizon_s: 900\n\
             variants:\n\
             \x20 - name: dual\n    policy: Dual\n\
             \x20 - name: practice\n    policy: Practice\n",
        )
    }

    fn tasks(jsonl: &str) -> Vec<Task> {
        Task::from_jsonl(jsonl).expect("valid tasks")
    }

    #[test]
    fn plan_enumerates_the_full_grid_in_order() {
        let spec = short_spec();
        let ts = tasks("{\"task_id\": \"a\"}\n{\"task_id\": \"b\", \"seed\": 99}\n");
        let cells = plan(&spec, &ts);
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].trial_id, "t000-v00-r00");
        assert_eq!(cells[0].seed, 11);
        assert_eq!(cells[1].trial_id, "t000-v00-r01");
        assert_eq!(cells[1].seed, 12, "reps shift the seed");
        assert_eq!(cells[4].trial_id, "t001-v00-r00");
        assert_eq!(cells[4].seed, 99, "task seed wins over base seed");
    }

    #[test]
    fn scenario_trials_match_direct_scenario_runs() {
        let spec = short_spec();
        let ts = tasks("{\"task_id\": \"video\", \"workload\": \"video\"}\n");
        let results = run_experiment(&spec, &ts);
        assert_eq!(results.len(), 4);
        // Reproduce trial t000-v00-r01 (Dual, rep 1 → seed 12) directly.
        let config = SimConfig {
            max_horizon_s: 900.0,
            ..SimConfig::paper()
        };
        let direct = Scenario::new(
            PolicyKind::Dual,
            capman_workload::WorkloadKind::Video,
            capman_device::phone::PhoneProfile::nexus(),
            12,
            config,
        )
        .run();
        let trial = &results[1];
        assert_eq!(trial.variant, "dual");
        assert_eq!(trial.seed, 12);
        assert_eq!(trial.objective, direct.service_time_s, "exact reproduction");
        assert_eq!(trial.metric("work_served"), Some(direct.work_served));
    }

    #[test]
    fn results_round_trip_through_the_filesystem() {
        let spec = short_spec();
        let ts = tasks("{\"task_id\": \"v\", \"workload\": \"video\"}\n");
        let dir = std::env::temp_dir().join(format!("capman-lab-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let written = run_to_dir(&spec, &ts, &dir).expect("run to dir");
        let read = read_results(&dir).expect("read back");
        assert_eq!(written, read, "result.json round-trips exactly");
        assert!(dir.join("experiment.json").exists());
        assert!(dir.join("trials/t000-v00-r00/result.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_cells_report_throughput_and_non_capman_errors() {
        let spec = spec(
            "name: fleet-smoke\n\
             variants:\n\
             \x20 - name: pool\n    policy: CAPMAN\n\
             \x20 - name: dual\n    policy: Dual\n",
        );
        let ts = tasks(
            "{\"task_id\": \"f\", \"fleet\": {\"devices\": 4, \"workloads\": [\"video\"]}, \"horizon_s\": 600}\n",
        );
        let results = run_experiment(&spec, &ts);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].objective_name, "devices_per_s");
        assert!(results[0].objective > 0.0);
        assert_eq!(results[0].metric("devices"), Some(4.0));
        assert!(matches!(results[1].outcome, TrialOutcome::Error(_)));
    }

    #[test]
    fn serve_arms_run_fleet_tasks_through_the_service() {
        let spec = spec(
            "name: fleet-serve\n\
             variants:\n\
             \x20 - name: pool\n    policy: CAPMAN\n\
             \x20 - name: serve\n    policy: CAPMAN\n    calibration: service\n",
        );
        let ts = tasks(
            "{\"task_id\": \"f\", \"fleet\": {\"devices\": 6, \"workloads\": [\"video\", \"pcmark\"], \"every_s\": 300}, \"horizon_s\": 1500}\n",
        );
        let results = run_experiment(&spec, &ts);
        assert_eq!(results.len(), 2);
        let serve = &results[1];
        assert_eq!(serve.variant, "serve");
        assert!(serve.objective > 0.0, "serve arm must run");
        // Both arms tick the same devices for the same horizon — the
        // calibration backend must not change how long devices run.
        assert_eq!(results[0].metric("devices"), serve.metric("devices"));
        assert_eq!(results[0].metric("ticks"), serve.metric("ticks"));
        // The service ledger is projected onto the pool_* metrics: with
        // 3 devices per cohort asking on one cadence, admission control
        // sheds (replaces) the surplus instead of solving it.
        let dropped = serve.metric("pool_dropped").unwrap_or(0.0);
        let coalesced = serve.metric("pool_coalesced").unwrap_or(0.0);
        assert!(
            dropped + coalesced > 0.0,
            "overlapping cohort traffic must coalesce or shed through admission"
        );
    }

    #[test]
    fn serve_arms_reject_non_capman_policies_at_parse_time() {
        let err = ExperimentSpec::from_yaml(
            "name: bad\nvariants:\n  - name: d\n    policy: Dual\n    calibration: service\n",
        )
        .expect_err("service requires CAPMAN");
        assert!(
            err.contains("calibration: service requires the CAPMAN policy"),
            "{err}"
        );
    }
}
