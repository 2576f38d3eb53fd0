//! # CAPMAN — Cooling and Active Power Management for big.LITTLE batteries
//!
//! This is the facade crate of the CAPMAN reproduction. It re-exports the
//! workspace crates so examples and downstream users can depend on a
//! single `capman` crate:
//!
//! * [`battery`] — heterogeneous cell models, the big.LITTLE pack, the
//!   switch facility and the supercapacitor filter.
//! * [`thermal`] — the lumped thermal network and the thermoelectric
//!   cooler (TEC).
//! * [`device`] — smartphone power-state machines and power models.
//! * [`workload`] — the paper's workload generators.
//! * [`mdp`] — MDPs, value iteration, EMD, and the structural-similarity
//!   recursion.
//! * [`core`] — the CAPMAN scheduler, baselines, simulator, and
//!   experiment harness.
//! * [`obs`] — the observability substrate: span tracer, metrics
//!   registry, Chrome-trace/Prometheus exporters (instrumentation
//!   compiles in with `--features obs`).
//! * [`fleet`] — fleet-scale simulation: cohort plans, device arenas,
//!   and the calibration backend seam.
//! * [`serve`] — the calibration service, the one background backend:
//!   admission control, priority lanes, and SLO enforcement.
//!
//! # Quickstart
//!
//! ```
//! use capman::core::experiments::{run_policy, PolicyKind};
//! use capman::workload::WorkloadKind;
//!
//! let outcome = run_policy(
//!     PolicyKind::Capman,
//!     WorkloadKind::Video,
//!     capman::device::PhoneProfile::nexus(),
//!     42,
//! );
//! assert!(outcome.service_time_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use capman_battery as battery;
pub use capman_core as core;
pub use capman_device as device;
pub use capman_fleet as fleet;
pub use capman_mdp as mdp;
pub use capman_obs as obs;
pub use capman_serve as serve;
pub use capman_thermal as thermal;
pub use capman_workload as workload;
