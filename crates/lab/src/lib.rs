//! Declarative experiment harness for the CAPMAN reproduction.
//!
//! A sweep is declared, not coded: an `experiment.yaml` names the
//! *variants* under comparison (policy, calibrator knobs, TEC, horizon)
//! and the design (repeats, seeds); a `tasks.jsonl` dataset lists the
//! rows to sweep them over (workload × phone scenarios, or whole fleet
//! cells). The runner expands the (task × variant × rep) grid, executes
//! scenario cells through [`capman_core::scenario::ScenarioRunner`] and
//! fleet cells through [`capman_fleet::ArenaRunner`], and writes one
//! `result.json` per trial with the `outcome`/`objective`/`metrics`
//! schema, plus an aggregated analysis table. See `EXPERIMENTS.md` for
//! the file contract and a worked fig12 example.
//!
//! The crate also owns the statistics the perf gate needs (Welch's
//! t-test over benchmark rep samples, [`stats`]) and the format layer
//! that makes all of this possible offline: a strict JSON
//! parser/emitter ([`json`]) and a YAML-subset parser ([`yaml`]) — the
//! workspace depends on no format crate, so the harness reads and
//! writes its own documents.
//!
//! Module map:
//!
//! * [`json`], [`yaml`] — the value model and parsers.
//! * [`spec`] — `experiment.yaml` + `tasks.jsonl` → validated specs.
//! * [`runner`] — grid expansion and execution, `result.json` I/O.
//! * [`trial`] — the per-trial result schema.
//! * [`analysis`] — trials → analysis table (sketch quantiles).
//! * [`stats`] — Welch's t-test, Student-t CDF, incomplete beta.
//! * [`halving`] — successive-halving calibrator selection, the first
//!   consumer of the harness (two chained experiments replacing the
//!   oracle's flat grid).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod halving;
pub mod json;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trial;
pub mod yaml;

pub use analysis::{AnalysisRow, AnalysisTable};
pub use halving::{select_calibrator_halving, HalvingOutcome};
pub use json::Json;
pub use runner::{plan, read_results, run_experiment, run_to_dir, write_results, Cell};
pub use spec::{Calibration, ExperimentSpec, Task, TaskKind, Variant};
pub use stats::{welch_t_test, Welch};
pub use trial::{TrialOutcome, TrialResult};
