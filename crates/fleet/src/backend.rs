//! The calibration backend seam.
//!
//! CAPMAN's calibration is a background activity (Section III-D): the
//! scheduler keeps taking per-second decisions from the *last completed*
//! calibration while the next one runs. A fleet device expresses that
//! through [`CalibrationBackend`]: it *submits* a request built from its
//! learned profiler and *reads* whatever [`CalibrationSnapshot`] the
//! backend last published for its cohort. Ticks never block on a solve;
//! the price is staleness, which the
//! [`PooledCapmanPolicy`](crate::policy::PooledCapmanPolicy) measures.
//!
//! This crate only defines the seam. The one implementation is the
//! resident `capman-serve` calibration service, which a caller hands to
//! [`ArenaRunner::run_with_backend`](crate::arena::ArenaRunner::run_with_backend)
//! (threaded workers for background solves, or manually stepped for
//! deterministic runs). Without a backend, CAPMAN devices calibrate
//! inline on the tick that triggers the solve.

use std::sync::Arc;

use capman_core::online::Calibration;
use capman_core::profiler::Profiler;

/// The causal-trace breadcrumb a publication carries so the *adopting*
/// device can close the request's trace: the trace id, the publish
/// record to flow-link the adoption event to, and the simulated
/// timestamps of the lifecycle hops the backend observed (what the
/// critical-path phase decomposition is computed from at adoption).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotTrace {
    /// Trace id minted at submission (never 0 — an untraced publication
    /// carries no `SnapshotTrace` at all).
    pub trace: u64,
    /// Record id of the backend's publish event, the flow-link source
    /// for the adoption hop (0 when that event was sampled out).
    pub publish_span: u64,
    /// Simulated time the winning request was first submitted.
    pub submitted_s: f64,
    /// When the backend's scheduler first considered the request (equal
    /// to `submitted_s` for backends without a scheduling step).
    pub queue_end_s: f64,
    /// When the request was picked for solving.
    pub picked_s: f64,
    /// When the solved calibration was published.
    pub published_s: f64,
}

/// A published calibration: what device ticks read.
///
/// Snapshots are immutable once published; a backend only ever swaps
/// in a freshly allocated one. `seq` increases by one per publication
/// per cohort, so a reader can detect "new calibration arrived" with
/// one integer compare.
#[derive(Debug, Clone)]
pub struct CalibrationSnapshot {
    /// Publication sequence number, per cohort, starting at 1 (the
    /// pre-calibration placeholder is seq 0 with no calibration).
    pub seq: u64,
    /// Simulated time at which the request producing this snapshot was
    /// submitted — staleness is measured against this.
    pub requested_at_s: f64,
    /// Wall-clock of the background solve, microseconds (raw, before
    /// compute-speed normalisation).
    pub wall_us: f64,
    /// The calibration itself; `None` only in the seq-0 placeholder.
    pub calibration: Option<Calibration>,
    /// Causal-trace breadcrumb of the winning request, `None` when the
    /// request was untraced (observability off or sampled out).
    pub trace: Option<SnapshotTrace>,
}

impl CalibrationSnapshot {
    /// The seq-0 placeholder a cohort reads before its first
    /// publication.
    pub fn placeholder() -> Self {
        CalibrationSnapshot {
            seq: 0,
            requested_at_s: 0.0,
            wall_us: 0.0,
            calibration: None,
            trace: None,
        }
    }
}

/// Outcome of a [`CalibrationBackend::submit`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The request was queued for a solve.
    Enqueued,
    /// The cohort already has a calibration pending or in flight; this
    /// request was absorbed by it.
    Coalesced,
    /// The backend refused the request (the device keeps using its
    /// current snapshot).
    Dropped,
}

/// The submit/read/size surface a pooled policy needs from whatever is
/// doing its calibrations (the resident `capman-serve` service).
///
/// Implementations must never block the caller: `submit` either hands
/// the request off or reports why not, and `snapshot` always returns a
/// complete published snapshot (seq 0 placeholder before the first).
pub trait CalibrationBackend: Send + Sync {
    /// Submit a calibration request for `cohort`, built from the
    /// requesting device's learned `profiler`.
    fn submit(
        &self,
        cohort: usize,
        now_s: f64,
        profiler: &Profiler,
        compute_speed: f64,
    ) -> SubmitOutcome;

    /// The latest published snapshot of a cohort.
    fn snapshot(&self, cohort: usize) -> Arc<CalibrationSnapshot>;

    /// Number of cohort slots this backend serves.
    fn cohorts(&self) -> usize;

    /// A device adopted `snapshot` at simulated time `now_s` — the end
    /// of the request's lifecycle. Backends that close causal traces
    /// (the serve service's critical-path decomposition) override this;
    /// the default is a no-op.
    fn adopt(&self, _cohort: usize, _snapshot: &CalibrationSnapshot, _now_s: f64) {}
}
