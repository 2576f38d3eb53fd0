//! Fleet simulation service: thousands of phone instances, sharded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod backend;
pub mod dispatch;
pub mod policy;
pub mod profile;
pub mod runner;
pub mod sketch;

pub use arena::{ArenaConfig, ArenaRunner, DeviceArena, DeviceHandle};
pub use backend::{CalibrationBackend, CalibrationSnapshot, SnapshotTrace, SubmitOutcome};
pub use dispatch::FleetPolicy;
pub use policy::PooledCapmanPolicy;
pub use profile::{DeviceSpec, Fleet, FleetPlan, FleetProfile};
pub use runner::{DeviceSummary, FleetAggregate, FleetConfig, FleetResult, FleetRunner};
pub use sketch::QuantileSketch;
