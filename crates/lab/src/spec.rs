//! The declarative experiment contract: `experiment.yaml` + `tasks.jsonl`.
//!
//! An *experiment* is a sweep grid: every task (a row of `tasks.jsonl`,
//! the dataset axis) is run under every *variant* (a configuration the
//! experiment compares), `repeats` times with distinct seeds. The spec
//! layer only parses and validates; execution lives in
//! [`crate::runner`]. See `EXPERIMENTS.md` for the file contract with a
//! worked fig12 example.
//!
//! ```yaml
//! name: fig12
//! description: every policy on every fig12 workload
//! design:
//!   repeats: 3
//!   base_seed: 42
//! runtime:
//!   horizon_s: 400000
//! variants:
//!   - name: capman
//!     policy: CAPMAN
//!     calibrator: {rho: 0.05, theta: 0.1, every_s: 1200}
//!   - name: practice
//!     policy: Practice
//! ```
//!
//! Tasks are one JSON object per line; only `task_id` is required —
//! everything else falls back to the evaluation defaults (Video on the
//! Nexus at the design seed):
//!
//! ```json
//! {"task_id": "video", "workload": "video", "phone": "Nexus", "seed": 7}
//! {"task_id": "fleet", "fleet": {"devices": 64, "workloads": ["video", "pcmark"]}}
//! ```

use capman_core::experiments::PolicyKind;
use capman_core::online::CalibratorSpec;
use capman_device::phone::PhoneProfile;
use capman_workload::WorkloadKind;

use crate::json::{self, Json};
use crate::yaml;

/// A parsed `experiment.yaml`.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Experiment name (directory-friendly).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Repetitions per (task × variant) cell; each rep shifts the seed.
    pub repeats: usize,
    /// Seed for tasks that do not pin their own.
    pub base_seed: u64,
    /// Default simulated horizon, seconds (`None`: the evaluation
    /// default of [`capman_core::config::SimConfig::paper`]).
    pub horizon_s: Option<f64>,
    /// The configurations under comparison.
    pub variants: Vec<Variant>,
}

/// One arm of the sweep.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name (unique within the experiment).
    pub name: String,
    /// The scheduling policy this arm runs.
    pub policy: PolicyKind,
    /// Calibrator override for CAPMAN arms (partial: unnamed fields
    /// keep the paper defaults).
    pub calibrator: Option<CalibratorSpec>,
    /// TEC override (`None`: the policy's evaluation default).
    pub tec: Option<bool>,
    /// Horizon override, seconds.
    pub horizon_s: Option<f64>,
    /// How fleet tasks calibrate. `calibration:` in the experiment
    /// YAML.
    pub calibration: Calibration,
}

/// How a variant's fleet tasks calibrate their CAPMAN devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// Each device calibrates inline on the tick that triggers it.
    Inline,
    /// Background solves on a threaded calibration service that never
    /// sheds (`ServiceConfig::unmetered`). The default.
    Pool,
    /// Background solves on an admission-controlled threaded service
    /// whose quota windows follow the calibration cadence. CAPMAN only.
    Service,
}

/// One dataset row.
#[derive(Debug, Clone)]
pub struct Task {
    /// Stable identifier (unique within the dataset).
    pub id: String,
    /// Explicit seed (`None`: the design's `base_seed`).
    pub seed: Option<u64>,
    /// Horizon override, seconds.
    pub horizon_s: Option<f64>,
    /// What this task runs.
    pub kind: TaskKind,
}

/// The two trial shapes the harness executes.
#[derive(Debug, Clone)]
pub enum TaskKind {
    /// One discharge-cycle simulation (objective: `service_time_s`).
    Scenario {
        /// Workload generator.
        workload: WorkloadKind,
        /// Phone model.
        phone: PhoneProfile,
    },
    /// A sharded fleet run (objective: `devices_per_s`).
    Fleet {
        /// Total devices, split evenly across the workload cohorts.
        devices: usize,
        /// One cohort per workload.
        workloads: Vec<WorkloadKind>,
        /// Calibration cadence override, seconds.
        every_s: Option<f64>,
    },
}

impl ExperimentSpec {
    /// Parse an `experiment.yaml` document.
    pub fn from_yaml(src: &str) -> Result<ExperimentSpec, String> {
        let doc = yaml::parse(src).map_err(|e| format!("experiment.yaml: {e}"))?;
        ExperimentSpec::from_value(&doc)
    }

    fn from_value(doc: &Json) -> Result<ExperimentSpec, String> {
        if doc.as_obj().is_none() {
            return Err("experiment.yaml: document root must be a mapping".into());
        }
        let name = doc
            .str("name")
            .ok_or("experiment.yaml: missing `name`")?
            .to_string();
        let description = doc.str("description").unwrap_or_default().to_string();
        let design = doc.get("design");
        let repeats = match design.and_then(|d| d.num("repeats")) {
            Some(r) if r >= 1.0 && r.fract() == 0.0 => r as usize,
            Some(r) => {
                return Err(format!(
                    "design.repeats: expected a positive integer, got {r}"
                ))
            }
            None => 1,
        };
        let base_seed = match design.and_then(|d| d.num("base_seed")) {
            Some(s) if s >= 0.0 && s.fract() == 0.0 => s as u64,
            Some(s) => {
                return Err(format!(
                    "design.base_seed: expected a non-negative integer, got {s}"
                ))
            }
            None => 42,
        };
        let horizon_s = doc
            .get("runtime")
            .map(|r| positive(r, "runtime.horizon_s", "horizon_s"))
            .transpose()?
            .flatten();
        let variants_value = doc
            .get("variants")
            .and_then(Json::as_arr)
            .ok_or("experiment.yaml: missing `variants` list")?;
        if variants_value.is_empty() {
            return Err("experiment.yaml: `variants` must not be empty".into());
        }
        let mut variants = Vec::new();
        for (i, v) in variants_value.iter().enumerate() {
            variants.push(Variant::from_value(v, i)?);
        }
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                if variants[i].name == variants[j].name {
                    return Err(format!("duplicate variant name {:?}", variants[i].name));
                }
            }
        }
        Ok(ExperimentSpec {
            name,
            description,
            repeats,
            base_seed,
            horizon_s,
            variants,
        })
    }
}

impl Variant {
    fn from_value(v: &Json, index: usize) -> Result<Variant, String> {
        let at = |what: &str| format!("variants[{index}]: {what}");
        if v.as_obj().is_none() {
            return Err(at("expected a mapping"));
        }
        let policy = match v.str("policy") {
            Some(p) => PolicyKind::parse(p).map_err(|e| at(&e))?,
            None => PolicyKind::Capman,
        };
        let name = v
            .str("name")
            .map(str::to_string)
            .unwrap_or_else(|| policy.label().to_lowercase());
        let calibrator = match v.get("calibrator") {
            None | Some(Json::Null) => None,
            Some(c) => {
                if c.as_obj().is_none() {
                    return Err(at("calibrator: expected a mapping"));
                }
                let mut spec = CalibratorSpec::paper();
                if let Some(rho) = c.num("rho") {
                    spec.rho = rho;
                }
                if let Some(theta) = c.num("theta") {
                    spec.theta = theta;
                }
                if let Some(every_s) = c.num("every_s") {
                    spec.every_s = every_s;
                }
                if let Some((key, _)) = c
                    .as_obj()
                    .unwrap()
                    .iter()
                    .find(|(k, _)| !matches!(k.as_str(), "rho" | "theta" | "every_s"))
                {
                    return Err(at(&format!("calibrator: unknown field {key:?}")));
                }
                Some(spec)
            }
        };
        if calibrator.is_some() && policy != PolicyKind::Capman {
            return Err(at("calibrator overrides only apply to the CAPMAN policy"));
        }
        let tec = match v.get("tec") {
            None | Some(Json::Null) => None,
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => return Err(at("tec: expected a boolean")),
        };
        let horizon_s = positive(v, &at("horizon_s"), "horizon_s")?;
        if let Some(key) = ["arena", "serve"].into_iter().find(|k| v.get(k).is_some()) {
            return Err(at(&format!(
                "{key}: no longer supported, use calibration: inline|pool|service"
            )));
        }
        let calibration = match v.str("calibration") {
            None => Calibration::Pool,
            Some(m) if m.eq_ignore_ascii_case("inline") => Calibration::Inline,
            Some(m) if m.eq_ignore_ascii_case("pool") => Calibration::Pool,
            Some(m) if m.eq_ignore_ascii_case("service") => Calibration::Service,
            Some(m) => {
                return Err(at(&format!(
                    "calibration: expected inline|pool|service, got {m:?}"
                )))
            }
        };
        if calibration == Calibration::Service && policy != PolicyKind::Capman {
            return Err(at("calibration: service requires the CAPMAN policy"));
        }
        Ok(Variant {
            name,
            policy,
            calibrator,
            tec,
            horizon_s,
            calibration,
        })
    }
}

impl Task {
    /// Parse a whole `tasks.jsonl` file (one JSON object per
    /// non-empty line).
    pub fn from_jsonl(src: &str) -> Result<Vec<Task>, String> {
        let mut tasks = Vec::new();
        for (i, line) in src.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = json::parse(line).map_err(|e| format!("tasks.jsonl line {}: {e}", i + 1))?;
            tasks.push(
                Task::from_value(&doc).map_err(|e| format!("tasks.jsonl line {}: {e}", i + 1))?,
            );
        }
        if tasks.is_empty() {
            return Err("tasks.jsonl: no tasks".into());
        }
        for i in 0..tasks.len() {
            for j in i + 1..tasks.len() {
                if tasks[i].id == tasks[j].id {
                    return Err(format!("tasks.jsonl: duplicate task_id {:?}", tasks[i].id));
                }
            }
        }
        Ok(tasks)
    }

    fn from_value(doc: &Json) -> Result<Task, String> {
        if doc.as_obj().is_none() {
            return Err("expected a JSON object".into());
        }
        let id = doc.str("task_id").ok_or("missing `task_id`")?.to_string();
        let seed = match doc.num("seed") {
            Some(s) if s >= 0.0 && s.fract() == 0.0 => Some(s as u64),
            Some(s) => return Err(format!("seed: expected a non-negative integer, got {s}")),
            None => None,
        };
        let horizon_s = positive(doc, "horizon_s", "horizon_s")?;
        let kind = match doc.get("fleet") {
            Some(fleet) => {
                if fleet.as_obj().is_none() {
                    return Err("fleet: expected a mapping".into());
                }
                if doc.get("workload").is_some() || doc.get("phone").is_some() {
                    return Err("a fleet task cannot also set workload/phone".into());
                }
                let devices = match fleet.num("devices") {
                    Some(d) if d >= 2.0 && d.fract() == 0.0 => d as usize,
                    _ => return Err("fleet.devices: expected an integer >= 2".into()),
                };
                let names = fleet
                    .get("workloads")
                    .and_then(Json::as_arr)
                    .ok_or("fleet.workloads: expected a list of workload names")?;
                let mut workloads = Vec::new();
                for n in names {
                    let n = n
                        .as_str()
                        .ok_or("fleet.workloads: entries must be strings")?;
                    workloads.push(WorkloadKind::parse(n)?);
                }
                if workloads.is_empty() {
                    return Err("fleet.workloads: must not be empty".into());
                }
                if !devices.is_multiple_of(workloads.len()) {
                    return Err(format!(
                        "fleet.devices ({devices}) must divide evenly across {} cohorts",
                        workloads.len()
                    ));
                }
                let every_s = positive(fleet, "fleet.every_s", "every_s")?;
                TaskKind::Fleet {
                    devices,
                    workloads,
                    every_s,
                }
            }
            None => {
                let workload = match doc.str("workload") {
                    Some(w) => WorkloadKind::parse(w)?,
                    None => WorkloadKind::Video,
                };
                let phone = match doc.str("phone") {
                    Some(p) => PhoneProfile::by_name(p).ok_or_else(|| {
                        format!("unknown phone {p:?} (expected Nexus, Honor or Lenovo)")
                    })?,
                    None => PhoneProfile::nexus(),
                };
                TaskKind::Scenario { workload, phone }
            }
        };
        Ok(Task {
            id,
            seed,
            horizon_s,
            kind,
        })
    }
}

/// Read an optional positive-number field.
fn positive(doc: &Json, context: &str, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(v)) if *v > 0.0 => Ok(Some(*v)),
        Some(_) => Err(format!("{context}: expected a positive number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const YAML: &str = "\
name: fig12
description: the figure 12 sweep
design:
  repeats: 2
  base_seed: 7
runtime:
  horizon_s: 1500
variants:
  - name: capman-eager
    policy: CAPMAN
    calibrator: {every_s: 300}
  - name: practice
    policy: Practice
    tec: false
";

    #[test]
    fn parses_a_full_experiment() {
        let spec = ExperimentSpec::from_yaml(YAML).expect("valid spec");
        assert_eq!(spec.name, "fig12");
        assert_eq!(spec.repeats, 2);
        assert_eq!(spec.base_seed, 7);
        assert_eq!(spec.horizon_s, Some(1500.0));
        assert_eq!(spec.variants.len(), 2);
        let eager = &spec.variants[0];
        assert_eq!(eager.policy, PolicyKind::Capman);
        let cal = eager.calibrator.expect("calibrator override");
        assert_eq!(cal.every_s, 300.0);
        assert_eq!(
            cal.rho,
            CalibratorSpec::paper().rho,
            "partial override keeps defaults"
        );
        assert_eq!(spec.variants[1].tec, Some(false));
    }

    #[test]
    fn defaults_fill_in() {
        let spec = ExperimentSpec::from_yaml("name: tiny\nvariants:\n  - policy: Dual\n")
            .expect("minimal spec");
        assert_eq!(spec.repeats, 1);
        assert_eq!(spec.base_seed, 42);
        assert_eq!(spec.horizon_s, None);
        assert_eq!(spec.variants[0].name, "dual");
        assert!(spec.variants[0].calibrator.is_none());
    }

    #[test]
    fn rejects_bad_specs() {
        for (src, what) in [
            ("variants:\n  - policy: Dual\n", "missing name"),
            ("name: x\n", "missing variants"),
            ("name: x\nvariants: []\n", "empty variants"),
            ("name: x\nvariants:\n  - policy: fifo\n", "unknown policy"),
            (
                "name: x\nvariants:\n  - policy: Dual\n    calibrator: {rho: 0.5}\n",
                "calibrator on non-CAPMAN",
            ),
            (
                "name: x\nvariants:\n  - name: a\n  - name: a\n",
                "duplicate variant",
            ),
            (
                "name: x\nvariants:\n  - calibrator: {rh0: 0.5}\n",
                "unknown calibrator field",
            ),
            (
                "name: x\ndesign:\n  repeats: 0\nvariants:\n  - name: a\n",
                "zero repeats",
            ),
        ] {
            assert!(ExperimentSpec::from_yaml(src).is_err(), "accepted: {what}");
        }
    }

    #[test]
    fn calibration_key_parses_and_replaces_arena_and_serve() {
        let spec = ExperimentSpec::from_yaml(
            "name: x\nvariants:\n  - name: a\n  - name: i\n    calibration: inline\n  - name: s\n    calibration: Service\n",
        )
        .expect("valid spec");
        let modes: Vec<_> = spec.variants.iter().map(|v| v.calibration).collect();
        assert_eq!(
            modes,
            [Calibration::Pool, Calibration::Inline, Calibration::Service]
        );
        for key in ["arena: true", "serve: true", "serve: false"] {
            let err = ExperimentSpec::from_yaml(&format!("name: x\nvariants:\n  - {key}\n"))
                .expect_err("retired key must be rejected");
            assert!(err.contains("calibration:"), "{err}");
        }
        assert!(
            ExperimentSpec::from_yaml("name: x\nvariants:\n  - calibration: roster\n").is_err()
        );
    }

    #[test]
    fn parses_scenario_and_fleet_tasks() {
        let src = r#"{"task_id": "video", "workload": "video", "phone": "Nexus", "seed": 5}
{"task_id": "eta", "workload": "eta-50", "horizon_s": 900}

{"task_id": "fleet", "fleet": {"devices": 64, "workloads": ["video", "pcmark"], "every_s": 300}}
"#;
        let tasks = Task::from_jsonl(src).expect("valid tasks");
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0].seed, Some(5));
        match &tasks[1].kind {
            TaskKind::Scenario { workload, phone } => {
                assert_eq!(*workload, WorkloadKind::EtaStatic { eta: 50 });
                assert_eq!(phone.name, "Nexus", "phone defaults to the Nexus");
            }
            _ => panic!("expected a scenario task"),
        }
        match &tasks[2].kind {
            TaskKind::Fleet {
                devices,
                workloads,
                every_s,
            } => {
                assert_eq!(*devices, 64);
                assert_eq!(workloads.len(), 2);
                assert_eq!(*every_s, Some(300.0));
            }
            _ => panic!("expected a fleet task"),
        }
    }

    #[test]
    fn only_task_id_is_required() {
        let tasks = Task::from_jsonl("{\"task_id\": \"t0\"}\n").expect("minimal task");
        assert!(matches!(
            &tasks[0].kind,
            TaskKind::Scenario {
                workload: WorkloadKind::Video,
                ..
            }
        ));
        assert_eq!(tasks[0].seed, None);
    }

    #[test]
    fn rejects_bad_tasks() {
        for (src, what) in [
            ("{\"workload\": \"video\"}", "missing task_id"),
            ("{\"task_id\": \"a\"}\n{\"task_id\": \"a\"}", "duplicate id"),
            ("{\"task_id\": \"a\", \"workload\": \"fortnite\"}", "unknown workload"),
            ("{\"task_id\": \"a\", \"phone\": \"Pixel\"}", "unknown phone"),
            ("{\"task_id\": \"a\", \"fleet\": {\"devices\": 3, \"workloads\": [\"video\", \"pcmark\"]}}", "odd split"),
            ("{\"task_id\": \"a\", \"fleet\": {\"devices\": 4, \"workloads\": []}}", "no cohorts"),
            ("{\"task_id\": \"a\", \"workload\": \"video\", \"fleet\": {\"devices\": 4, \"workloads\": [\"video\"]}}", "both shapes"),
            ("not json", "not json"),
            ("", "empty dataset"),
        ] {
            assert!(Task::from_jsonl(src).is_err(), "accepted: {what}");
        }
    }
}
