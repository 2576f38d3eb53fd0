//! The SLO layer: declarative objectives evaluated over `capman-obs`
//! registry snapshots, driving the service's operating mode.
//!
//! Each objective is enforced with the **floor-guarded ratio** that
//! `bench::gate` uses in its `FloorAsBaseline` mode: an observation
//! breaches when
//!
//! ```text
//! observed / max(objective, floor) - 1.0 > tolerance
//! ```
//!
//! The floor keeps near-zero objectives from turning measurement
//! noise into breaches (the same reason the perf gate guards tiny
//! baselines), and the tolerance mirrors the gate's practical-effect
//! floor. `gate::judge` calls [`floor_ratio`] itself, so the two
//! enforcement points share one formula.
//!
//! [`SloMonitor`] adds hysteresis on top: `escalate_after` consecutive
//! breached evaluations step the mode up (Normal → Degraded →
//! Shedding), `recover_after` consecutive clean ones step it back
//! down. The mode feeds back into admission quotas
//! ([`crate::admission::effective_quota`]).

use capman_obs::metrics::MetricsSnapshot;

/// The service's operating mode, set by the [`SloMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceMode {
    /// All SLOs holding; full quotas.
    Normal,
    /// Sustained breach; quotas halved.
    Degraded,
    /// Deep breach; quotas forced to the 1-per-window floor.
    Shedding,
}

impl ServiceMode {
    /// Stable lowercase label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            ServiceMode::Normal => "normal",
            ServiceMode::Degraded => "degraded",
            ServiceMode::Shedding => "shedding",
        }
    }

    /// Encode for an atomic cell.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ServiceMode::Normal => 0,
            ServiceMode::Degraded => 1,
            ServiceMode::Shedding => 2,
        }
    }

    /// Decode from an atomic cell (unknown values read as Normal).
    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            1 => ServiceMode::Degraded,
            2 => ServiceMode::Shedding,
            _ => ServiceMode::Normal,
        }
    }

    fn escalate(self) -> Self {
        match self {
            ServiceMode::Normal => ServiceMode::Degraded,
            ServiceMode::Degraded | ServiceMode::Shedding => ServiceMode::Shedding,
        }
    }

    fn recover(self) -> Self {
        match self {
            ServiceMode::Shedding => ServiceMode::Degraded,
            ServiceMode::Degraded | ServiceMode::Normal => ServiceMode::Normal,
        }
    }
}

/// One declarative objective: the target value and the noise floor it
/// is guarded by, both in the metric's own unit.
#[derive(Debug, Clone, Copy)]
pub struct SloObjective {
    /// The target the observation is compared against.
    pub objective: f64,
    /// Baseline floor: observations are judged against
    /// `max(objective, floor)`, exactly like `FloorAsBaseline`.
    pub floor: f64,
}

/// The service's SLO spec over the three metrics the issue names.
#[derive(Debug, Clone, Copy)]
pub struct SloSpec {
    /// p99 of `serve_staleness_s` — simulated seconds an admitted
    /// request waited from first submission to the start of its solve.
    pub staleness_p99_s: SloObjective,
    /// `serve_queue_depth` — pending requests at evaluation time.
    pub queue_depth: SloObjective,
    /// p99 of `serve_solve_us` — background solve wall time.
    pub solve_p99_us: SloObjective,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            staleness_p99_s: SloObjective {
                objective: 300.0,
                floor: 0.25,
            },
            queue_depth: SloObjective {
                objective: 32.0,
                floor: 1.0,
            },
            solve_p99_us: SloObjective {
                objective: 1e5,
                floor: 250.0,
            },
        }
    }
}

/// Monitor configuration: the spec plus the enforcement knobs.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// The objectives.
    pub spec: SloSpec,
    /// Breach tolerance on the floor-guarded ratio (mirrors the perf
    /// gate's 5% practical-effect floor).
    pub tolerance: f64,
    /// Consecutive breached evaluations before escalating one mode.
    pub escalate_after: u32,
    /// Consecutive clean evaluations before recovering one mode.
    pub recover_after: u32,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            spec: SloSpec::default(),
            tolerance: 0.05,
            escalate_after: 2,
            recover_after: 2,
        }
    }
}

/// One metric's judgement within a verdict.
#[derive(Debug, Clone)]
pub struct SloObservation {
    /// Which metric (stable name, e.g. `staleness_p99_s`).
    pub metric: &'static str,
    /// The value read from the registry snapshot.
    pub observed: f64,
    /// The objective it was judged against.
    pub objective: f64,
    /// `observed / max(objective, floor)`.
    pub ratio: f64,
    /// Did it breach (`ratio - 1 > tolerance`)?
    pub breached: bool,
}

/// The outcome of one [`SloMonitor::evaluate`] call.
#[derive(Debug, Clone)]
pub struct SloVerdict {
    /// The mode after this evaluation.
    pub mode: ServiceMode,
    /// Every metric's judgement.
    pub observations: Vec<SloObservation>,
    /// Did any metric breach this evaluation?
    pub breached: bool,
}

impl SloVerdict {
    /// Render `metric=observed/objective` pairs plus the mode — the
    /// one-line verdict the soak example prints.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for o in &self.observations {
            let state = if o.breached { "BREACH" } else { "ok" };
            out.push_str(&format!(
                "{}={:.3} (objective {:.3}, ratio {:.2}, {state})  ",
                o.metric, o.observed, o.objective, o.ratio
            ));
        }
        out.push_str(&format!("mode={}", self.mode.label()));
        out
    }
}

/// The `FloorAsBaseline` ratio: `observed / max(objective, floor)`,
/// with a zero/negative-denominator guard (ratio 0 — nothing to
/// enforce against). A free function so the perf gate
/// (`capman_bench::gate::judge`) computes its ratios with it too.
pub fn floor_ratio(observed: f64, objective: f64, floor: f64) -> f64 {
    let denom = objective.max(floor);
    if denom <= 0.0 {
        return 0.0;
    }
    observed / denom
}

/// Evaluates the spec over registry snapshots and carries the
/// escalation/recovery streaks.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    config: SloConfig,
    mode: ServiceMode,
    breach_streak: u32,
    ok_streak: u32,
}

impl SloMonitor {
    /// A monitor starting in [`ServiceMode::Normal`].
    pub fn new(config: SloConfig) -> Self {
        SloMonitor {
            config,
            mode: ServiceMode::Normal,
            breach_streak: 0,
            ok_streak: 0,
        }
    }

    /// The current mode.
    pub fn mode(&self) -> ServiceMode {
        self.mode
    }

    /// The configuration under enforcement.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Judge one registry snapshot and update the mode. Metrics the
    /// snapshot does not carry read as 0 (trivially within SLO) — a
    /// fresh service must not start life breached.
    pub fn evaluate(&mut self, snap: &MetricsSnapshot) -> SloVerdict {
        let staleness = hist_quantile(snap, "serve_staleness_s", 0.99);
        let depth = gauge_value(snap, "serve_queue_depth").max(0) as f64;
        let solve = hist_quantile(snap, "serve_solve_us", 0.99);
        let spec = self.config.spec;
        let observations = vec![
            self.check("staleness_p99_s", staleness, spec.staleness_p99_s),
            self.check("queue_depth", depth, spec.queue_depth),
            self.check("solve_p99_us", solve, spec.solve_p99_us),
        ];
        let breached = observations.iter().any(|o| o.breached);
        if breached {
            self.breach_streak += 1;
            self.ok_streak = 0;
            if self.breach_streak >= self.config.escalate_after {
                self.mode = self.mode.escalate();
                self.breach_streak = 0;
            }
        } else {
            self.ok_streak += 1;
            self.breach_streak = 0;
            if self.ok_streak >= self.config.recover_after {
                self.mode = self.mode.recover();
                self.ok_streak = 0;
            }
        }
        SloVerdict {
            mode: self.mode,
            observations,
            breached,
        }
    }

    fn check(&self, metric: &'static str, observed: f64, obj: SloObjective) -> SloObservation {
        let ratio = floor_ratio(observed, obj.objective, obj.floor);
        SloObservation {
            metric,
            observed,
            objective: obj.objective,
            ratio,
            breached: ratio - 1.0 > self.config.tolerance,
        }
    }
}

fn hist_quantile(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0.0, |h| h.quantile(q))
}

fn gauge_value(snap: &MetricsSnapshot, name: &str) -> i64 {
    snap.gauges
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0, |(_, _, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capman_obs::Registry;

    fn snap_with(staleness: &[f64], depth: i64) -> MetricsSnapshot {
        let r = Registry::new();
        let h = r.histogram(
            "serve_staleness_s",
            "Queue wait",
            &[1.0, 10.0, 60.0, 300.0, 600.0],
        );
        for &v in staleness {
            h.observe(v);
        }
        r.gauge("serve_queue_depth", "Depth").set(depth);
        r.snapshot()
    }

    fn tight() -> SloConfig {
        SloConfig {
            spec: SloSpec {
                staleness_p99_s: SloObjective {
                    objective: 60.0,
                    floor: 0.25,
                },
                queue_depth: SloObjective {
                    objective: 8.0,
                    floor: 1.0,
                },
                solve_p99_us: SloObjective {
                    objective: 1e6,
                    floor: 250.0,
                },
            },
            tolerance: 0.05,
            escalate_after: 1,
            recover_after: 2,
        }
    }

    #[test]
    fn empty_snapshot_is_within_slo() {
        let mut monitor = SloMonitor::new(SloConfig::default());
        let verdict = monitor.evaluate(&Registry::new().snapshot());
        assert!(!verdict.breached, "a fresh service starts clean");
        assert_eq!(verdict.mode, ServiceMode::Normal);
        assert_eq!(verdict.observations.len(), 3);
    }

    #[test]
    fn breach_escalates_and_recovery_steps_back_down() {
        let mut monitor = SloMonitor::new(tight());
        // p99 lands in the 600 s bucket: 600/60 - 1 >> 5%.
        let bad = snap_with(&[500.0], 0);
        let good = snap_with(&[0.5], 0);
        assert!(monitor.evaluate(&bad).breached);
        assert_eq!(monitor.mode(), ServiceMode::Degraded, "escalate_after 1");
        monitor.evaluate(&bad);
        assert_eq!(monitor.mode(), ServiceMode::Shedding);
        monitor.evaluate(&bad);
        assert_eq!(monitor.mode(), ServiceMode::Shedding, "saturates");
        monitor.evaluate(&good);
        assert_eq!(
            monitor.mode(),
            ServiceMode::Shedding,
            "one clean eval is not enough"
        );
        monitor.evaluate(&good);
        assert_eq!(monitor.mode(), ServiceMode::Degraded, "recover_after 2");
        monitor.evaluate(&good);
        monitor.evaluate(&good);
        assert_eq!(monitor.mode(), ServiceMode::Normal);
    }

    #[test]
    fn queue_depth_gauge_is_enforced() {
        let mut monitor = SloMonitor::new(tight());
        let verdict = monitor.evaluate(&snap_with(&[], 9));
        let depth = verdict
            .observations
            .iter()
            .find(|o| o.metric == "queue_depth")
            .expect("judged");
        assert!(depth.breached, "9 / 8 - 1 = 12.5% > 5%");
        assert!(verdict.summary().contains("queue_depth"));
    }

    #[test]
    fn floor_guards_tiny_objectives() {
        // objective 0.01 would make observed 0.2 a 20x breach; the
        // 0.25 floor judges it as 0.8 — within SLO. Exactly the
        // FloorAsBaseline semantics.
        assert!(floor_ratio(0.2, 0.01, 0.25) < 1.0);
        assert_eq!(floor_ratio(0.5, 0.25, 0.25), 2.0);
        assert_eq!(floor_ratio(1.0, 0.0, 0.0), 0.0, "degenerate spec guards");
    }

    #[test]
    fn mode_codec_round_trips() {
        for mode in [
            ServiceMode::Normal,
            ServiceMode::Degraded,
            ServiceMode::Shedding,
        ] {
            assert_eq!(ServiceMode::from_u8(mode.as_u8()), mode);
        }
        assert_eq!(ServiceMode::from_u8(99), ServiceMode::Normal);
    }
}
