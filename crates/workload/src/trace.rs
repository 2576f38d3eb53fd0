//! The workload trace format.
//!
//! A trace is a sorted sequence of segments covering `[0, horizon)`. Each
//! segment fixes the component demand for its duration and fires a list
//! of device actions at its start (screen events, app launches, network
//! transitions) — exactly the signals CAPMAN's profiler observes.

use capman_device::fsm::Action;
use capman_device::power::Demand;

/// One homogeneous stretch of software behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Segment start time, seconds.
    pub start_s: f64,
    /// Segment duration, seconds.
    pub duration_s: f64,
    /// Component demand throughout the segment.
    pub demand: Demand,
    /// Actions fired at the segment boundary.
    pub actions: Vec<Action>,
}

impl Segment {
    /// The segment end time, seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }
}

/// A complete workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    segments: Vec<Segment>,
}

impl Trace {
    /// Build a trace from contiguous segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, does not start at zero, or has gaps
    /// or overlaps.
    pub fn new(name: impl Into<String>, segments: Vec<Segment>) -> Self {
        assert!(!segments.is_empty(), "trace needs at least one segment");
        assert!(
            segments[0].start_s.abs() < 1e-9,
            "trace must start at time zero"
        );
        for w in segments.windows(2) {
            assert!(
                (w[0].end_s() - w[1].start_s).abs() < 1e-6,
                "segments must be contiguous: {} ends at {}, next starts at {}",
                w[0].start_s,
                w[0].end_s(),
                w[1].start_s
            );
            assert!(w[0].duration_s > 0.0, "segments need positive duration");
        }
        assert!(
            segments.last().expect("non-empty").duration_s > 0.0,
            "segments need positive duration"
        );
        Trace {
            name: name.into(),
            segments,
        }
    }

    /// The workload name (used in figure labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total covered time, seconds.
    pub fn horizon_s(&self) -> f64 {
        self.segments.last().expect("non-empty").end_s()
    }

    /// The segment active at time `t` (clamped to the final segment past
    /// the horizon).
    pub fn at(&self, t: f64) -> &Segment {
        let idx = self
            .segments
            .partition_point(|s| s.end_s() <= t)
            .min(self.segments.len() - 1);
        &self.segments[idx]
    }

    /// All segments whose start lies in `[t0, t1)` — used to fire their
    /// boundary actions during a simulation step.
    pub fn segments_starting_in(&self, t0: f64, t1: f64) -> &[Segment] {
        let lo = self.segments.partition_point(|s| s.start_s < t0);
        let hi = self.segments.partition_point(|s| s.start_s < t1);
        &self.segments[lo..hi]
    }

    /// All segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Mean CPU utilisation over the horizon, duration-weighted.
    pub fn mean_cpu_util(&self) -> f64 {
        let total: f64 = self
            .segments
            .iter()
            .map(|s| s.demand.cpu_util * s.duration_s)
            .sum();
        total / self.horizon_s()
    }

    /// Number of demand surges: boundaries where CPU utilisation jumps by
    /// at least `jump` percentage points. A proxy for the paper's "power
    /// demand surge frequency".
    pub fn surge_count(&self, jump: f64) -> usize {
        self.segments
            .windows(2)
            .filter(|w| w[1].demand.cpu_util - w[0].demand.cpu_util >= jump)
            .count()
    }
}

/// A convenience builder that appends contiguous segments.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    segments: Vec<Segment>,
    cursor_s: f64,
}

impl TraceBuilder {
    /// Start an empty builder at time zero.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Append a segment of `duration_s` with the given demand and actions.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive.
    pub fn push(&mut self, duration_s: f64, demand: Demand, actions: Vec<Action>) -> &mut Self {
        assert!(duration_s > 0.0, "duration must be positive");
        self.segments.push(Segment {
            start_s: self.cursor_s,
            duration_s,
            demand,
            actions,
        });
        self.cursor_s += duration_s;
        self
    }

    /// Current end time, seconds.
    pub fn cursor_s(&self) -> f64 {
        self.cursor_s
    }

    /// Finish the trace.
    ///
    /// # Panics
    ///
    /// Panics if no segments were pushed.
    pub fn build(self, name: impl Into<String>) -> Trace {
        Trace::new(name, self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(util: f64) -> Demand {
        Demand {
            cpu_util: util,
            ..Demand::default()
        }
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        b.push(10.0, demand(20.0), vec![Action::ScreenOn]);
        b.push(5.0, demand(90.0), vec![Action::AppLaunch]);
        b.push(15.0, demand(10.0), vec![Action::AppExit]);
        b.build("sample")
    }

    #[test]
    fn lookup_finds_correct_segment() {
        let t = sample();
        assert_eq!(t.at(0.0).demand.cpu_util, 20.0);
        assert_eq!(t.at(9.999).demand.cpu_util, 20.0);
        assert_eq!(t.at(10.0).demand.cpu_util, 90.0);
        assert_eq!(t.at(14.9).demand.cpu_util, 90.0);
        assert_eq!(t.at(15.0).demand.cpu_util, 10.0);
        // Past the horizon clamps to the last segment.
        assert_eq!(t.at(1e9).demand.cpu_util, 10.0);
    }

    #[test]
    fn horizon_is_total_duration() {
        assert!((sample().horizon_s() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn segments_starting_in_window() {
        let t = sample();
        let within = t.segments_starting_in(0.0, 30.0);
        assert_eq!(within.len(), 3);
        let step = t.segments_starting_in(9.5, 10.5);
        assert_eq!(step.len(), 1);
        assert_eq!(step[0].actions, vec![Action::AppLaunch]);
        assert!(t.segments_starting_in(20.0, 25.0).is_empty());
    }

    #[test]
    fn mean_util_is_duration_weighted() {
        let t = sample();
        let expected = (20.0 * 10.0 + 90.0 * 5.0 + 10.0 * 15.0) / 30.0;
        assert!((t.mean_cpu_util() - expected).abs() < 1e-9);
    }

    #[test]
    fn surge_count_detects_jumps() {
        let t = sample();
        assert_eq!(t.surge_count(50.0), 1);
        assert_eq!(t.surge_count(5.0), 1);
        assert_eq!(t.surge_count(200.0), 0);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn rejects_gaps() {
        let _ = Trace::new(
            "bad",
            vec![
                Segment {
                    start_s: 0.0,
                    duration_s: 5.0,
                    demand: demand(1.0),
                    actions: vec![],
                },
                Segment {
                    start_s: 6.0,
                    duration_s: 5.0,
                    demand: demand(1.0),
                    actions: vec![],
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "time zero")]
    fn rejects_late_start() {
        let _ = Trace::new(
            "bad",
            vec![Segment {
                start_s: 1.0,
                duration_s: 5.0,
                demand: demand(1.0),
                actions: vec![],
            }],
        );
    }
}
