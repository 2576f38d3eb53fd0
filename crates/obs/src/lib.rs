//! Lock-free observability substrate for the CAPMAN reproduction.
//!
//! Three parts (see DESIGN.md §12 for the architecture):
//!
//! * [`trace`] — a span tracer built on per-thread ring buffers,
//!   drained to Chrome `trace_event` JSON ([`export::chrome_trace`]).
//! * [`metrics`] — a registry of sharded atomic counters, gauges, and
//!   fixed-bucket histograms, exported as Prometheus text
//!   ([`export::prometheus_text`]) or flat JSON
//!   ([`export::metrics_json`]) in the `BENCH_*.json` row shape.
//! * the **kill switch** — a compile-time `obs` cargo feature layered
//!   under a runtime toggle ([`set_enabled`]) and a span sampling ratio
//!   ([`set_span_sampling`]).
//!
//! # Cost model
//!
//! Instrumentation sites in `core`/`mdp`/`fleet` all follow one shape:
//!
//! ```ignore
//! if capman_obs::enabled() {
//!     capman_obs::counter!("fleet_ticks_total", "Scheduler ticks").add(n);
//! }
//! let _span = capman_obs::span("calibrate", cohort as u64);
//! ```
//!
//! With the `obs` feature **off** (the default), [`enabled`] is
//! `const false` — the branch and everything behind it fold away and
//! the tick path is exactly the uninstrumented code. With the feature
//! **on** but the runtime switch off, each site costs one relaxed
//! atomic load and a predictable branch. With both on, counters are one
//! wait-free RMW on a thread-sticky shard and spans are two `Instant`
//! reads plus a push to an uncontended per-thread ring.
//! `bench_fleet --obs-overhead` measures this contract.
//!
//! The data structures themselves ([`Registry`](metrics::Registry),
//! [`Tracer`](trace::Tracer)) are always compiled and can be
//! instantiated locally regardless of the feature; the feature only
//! gates the *global* hooks below.

pub mod export;
pub mod flight;
pub mod metrics;
pub mod trace;

pub use flight::{CompletedTrace, FlightConfig, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use trace::{RecordKind, SpanGuard, SpanRecord, TraceCtx, TraceDrain, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether instrumentation was compiled in (`--features obs`). A
/// `const fn`, so `enabled()` folds to `false` at compile time in the
/// default configuration.
#[inline]
pub const fn compiled() -> bool {
    cfg!(feature = "obs")
}

/// Runtime kill switch. Starts enabled so `--features obs` observes by
/// default; flipped by [`set_enabled`].
static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation sites should record right now: compiled in
/// *and* runtime-enabled. This is the one check every site performs.
#[inline]
pub fn enabled() -> bool {
    compiled() && RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Flip the runtime kill switch. A no-op signal when the feature is
/// compiled out ([`enabled`] stays `false` regardless).
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry every `counter!` / `gauge!` /
/// `histogram!` site registers into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// The process-wide tracer behind [`span`] / [`event`].
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::default)
}

/// Open a span on the global tracer, or `None` when observability is
/// disabled or the span was sampled out. Bind it:
/// `let _span = capman_obs::span("calibrate", cohort);`.
#[inline]
pub fn span(label: &'static str, arg: u64) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    tracer().span(label, arg)
}

/// Record an instant event on the global tracer (no-op when disabled).
#[inline]
pub fn event(label: &'static str, arg: u64) {
    if enabled() {
        tracer().event(label, arg);
    }
}

/// Mint a trace context on the global tracer, recording its origin
/// event (see [`Tracer::begin_trace`]). Returns [`TraceCtx::NONE`]
/// when observability is disabled, so carrying the context is free in
/// the uninstrumented build.
#[inline]
pub fn begin_trace(label: &'static str, arg: u64) -> TraceCtx {
    if !enabled() {
        return TraceCtx::NONE;
    }
    tracer().begin_trace(label, arg)
}

/// Open a span belonging to `trace` on the global tracer (see
/// [`Tracer::span_in`]; `None` when disabled or sampled out).
#[inline]
pub fn span_in(label: &'static str, arg: u64, trace: u64) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    tracer().span_in(label, arg, trace)
}

/// Record an instant event belonging to `trace` on the global tracer.
/// Returns the record id (0 when disabled or sampled out) for use as a
/// flow-link endpoint.
#[inline]
pub fn event_in(label: &'static str, arg: u64, trace: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    tracer().event_in(label, arg, trace)
}

/// Record a cross-thread flow link on the global tracer (see
/// [`Tracer::link`]; no-op returning 0 when disabled or either
/// endpoint is 0).
#[inline]
pub fn link(label: &'static str, from: u64, to: u64, trace: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    tracer().link(label, from, to, trace)
}

/// Record every `every`-th span per thread on the global tracer
/// (1 = all, 0 = none).
pub fn set_span_sampling(every: u32) {
    tracer().set_sample_every(every);
}

/// Drain the global tracer (see [`Tracer::drain`]).
pub fn drain() -> TraceDrain {
    tracer().drain()
}

/// Snapshot the global registry (see [`Registry::snapshot`]).
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// A counter on the global registry, resolved once per call site: the
/// `Arc` handle is cached in a per-site `OnceLock`, so the registry
/// mutex is touched only on the first hit.
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name, $help))
    }};
}

/// A gauge on the global registry, cached per call site like
/// [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().gauge($name, $help))
    }};
}

/// A histogram on the global registry, cached per call site like
/// [`counter!`]. `$bounds` (first registration wins) must be strictly
/// increasing and finite.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name, $help, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn compiled_tracks_the_cargo_feature() {
        assert_eq!(super::compiled(), cfg!(feature = "obs"));
    }

    #[test]
    fn kill_switch_gates_the_global_hooks() {
        // Whatever the feature config, the runtime switch must make the
        // hooks inert...
        super::set_enabled(false);
        assert!(!super::enabled());
        assert!(super::span("gated", 0).is_none());
        super::event("gated", 0);
        // ...and restoring it restores `enabled()` to the compile-time
        // capability.
        super::set_enabled(true);
        assert_eq!(super::enabled(), super::compiled());
    }

    #[test]
    fn macros_cache_one_handle_per_site() {
        let a = counter!("macro_cached_total", "Cache check");
        let b = counter!("macro_cached_total", "Cache check");
        // Two *sites*, one metric: increments land in the same cells.
        a.add(2);
        b.inc();
        assert_eq!(a.value(), 3);
        assert_eq!(b.value(), 3);
        let g = gauge!("macro_gauge", "Gauge site");
        g.set(5);
        assert_eq!(g.value(), 5);
        let h = histogram!("macro_hist", "Histogram site", &[1.0, 2.0]);
        h.observe(1.5);
        assert_eq!(h.count(), 1);
    }
}
