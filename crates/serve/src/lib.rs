//! capman-serve — the resident multi-tenant calibration service.
//!
//! The workspace's one background calibration backend: CAPMAN devices
//! keep deciding from the last published calibration while the next
//! one is solved (paper §III-D), and this crate decides which solves
//! run. It serves one fleet run as readily as many tenants at once:
//! [`ServiceConfig::unmetered`] solves every request (one outstanding
//! solve per cohort), while the default configuration rations solve
//! budget across tenants. Four pieces:
//!
//! * [`admission`] — a bounded ingestion layer with per-cohort quotas
//!   per cadence window, explicit backpressure, and drop-oldest-per-
//!   cohort load shedding (a cohort's newest request replaces its
//!   queued one, so overload costs *freshness of the payload*, never a
//!   tenant's place in line).
//! * [`lanes`] — priority lanes computed from published-calibration
//!   staleness, with a skip-counting aging rule that provably bounds
//!   how long any admitted request can wait (no tenant is pinned out).
//! * [`slo`] — declarative SLO specs (p99 adoption staleness, queue
//!   depth, solve latency) evaluated over `capman-obs` registry
//!   snapshots by a [`SloMonitor`] that flips the service between
//!   normal / degraded / shedding modes. The enforcement predicate is
//!   the floor-guarded ratio of `bench::gate`'s `FloorAsBaseline`
//!   mode ([`slo::floor_ratio`], which the gate calls too).
//! * [`service`] + [`harness`] — the [`CalibrationService`] itself
//!   (implementing `capman_fleet::CalibrationBackend`, so the arena
//!   fleet drives it unmodified; threaded workers for background
//!   solves, or manually stepped for deterministic runs) and the soak
//!   harness that turns a `DeviceArena` into the service's load
//!   generator.
//!
//! The service's registry is always on (local values, not the
//! feature-gated global hooks), so a `/metrics`-shaped Prometheus
//! scrape and a Chrome trace come out of every run regardless of the
//! `obs` feature.
//!
//! Every submission additionally mints a **causal trace context**
//! (`capman_obs::TraceCtx`) that rides the request through admission,
//! the lanes, the solve, publication, and a device's adoption; the
//! cross-thread hops are recorded as flow links, so the Chrome trace
//! renders one connected arc per request. At adoption the service
//! closes the trace into a `capman_obs::CompletedTrace` whose four
//! critical-path phases ([`PHASE_NAMES`]) sum *identically* to the
//! served staleness, and feeds per-phase histograms carrying
//! slowest-trace exemplars. An attached `capman_obs::FlightRecorder`
//! retains recent traces, metric snapshots and SLO verdicts, and dumps
//! a postmortem bundle on panic or when the SLO flips the service into
//! Degraded/Shedding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod harness;
pub mod lanes;
pub mod policy;
pub mod service;
pub mod slo;

pub use admission::{AdmissionConfig, AdmissionOutcome};
pub use harness::{run_soak, SoakConfig, SoakReport};
pub use lanes::{Lane, LaneConfig};
pub use policy::ServePolicy;
pub use service::{CalibrationService, ServiceConfig, ServiceCounters, PHASE_NAMES};
pub use slo::{ServiceMode, SloConfig, SloMonitor, SloObjective, SloSpec, SloVerdict};
