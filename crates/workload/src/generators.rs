//! The paper's workload generators.
//!
//! Each generator reproduces the demand *pattern class* of one evaluation
//! workload (Section V). Generation is deterministic given the seed, so
//! every policy in a comparison sees the identical trace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use capman_device::fsm::Action;
use capman_device::power::Demand;

use crate::trace::{Trace, TraceBuilder};
use crate::zipf::Zipf;

/// The workload families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Resource-intensive benchmark; the system is always fully utilised.
    Geekbench,
    /// CPU-intensive benchmark with occasional user interactions.
    Pcmark,
    /// Stable short-video streaming.
    Video,
    /// Mixed batch: `eta` percent PCMark behaviour, the rest Video.
    EtaStatic {
        /// Percentage of PCMark behaviour, `0..=100`.
        eta: u8,
    },
    /// Screen kept on, otherwise idle (Fig. 2a).
    IdleOn,
    /// Phone toggled on/off with the given period (Fig. 2b).
    Toggle {
        /// Full on+off cycle period, seconds.
        period_s: u32,
    },
}

impl WorkloadKind {
    /// The six workloads of Fig. 12, in figure order.
    pub fn fig12() -> [WorkloadKind; 6] {
        [
            WorkloadKind::Geekbench,
            WorkloadKind::Pcmark,
            WorkloadKind::Video,
            WorkloadKind::EtaStatic { eta: 20 },
            WorkloadKind::EtaStatic { eta: 50 },
            WorkloadKind::EtaStatic { eta: 80 },
        ]
    }

    /// Display label used in figures.
    pub fn label(&self) -> String {
        match self {
            WorkloadKind::Geekbench => "Geekbench".into(),
            WorkloadKind::Pcmark => "PCMark".into(),
            WorkloadKind::Video => "Video".into(),
            WorkloadKind::EtaStatic { eta } => format!("eta-{eta}%"),
            WorkloadKind::IdleOn => "Screen-on idle".into(),
            WorkloadKind::Toggle { period_s } => format!("Toggle {period_s}s"),
        }
    }

    /// Parse a workload name as experiment datasets spell them
    /// (`tasks.jsonl` rows, `experiment.yaml` variants). Accepts the
    /// figure labels case-insensitively plus the dashed short forms:
    /// `geekbench`, `pcmark`, `video`, `eta-50` / `eta-50%`, `idle-on`,
    /// `toggle-60` / `Toggle 60s`.
    pub fn parse(name: &str) -> Result<WorkloadKind, String> {
        let lower = name.trim().to_ascii_lowercase();
        let norm = lower.replace(' ', "-");
        match norm.as_str() {
            "geekbench" => return Ok(WorkloadKind::Geekbench),
            "pcmark" => return Ok(WorkloadKind::Pcmark),
            "video" => return Ok(WorkloadKind::Video),
            "idle-on" | "screen-on-idle" => return Ok(WorkloadKind::IdleOn),
            _ => {}
        }
        if let Some(rest) = norm.strip_prefix("eta-") {
            let digits = rest.trim_end_matches('%');
            let eta: u8 = digits
                .parse()
                .map_err(|_| format!("bad eta percentage in workload {name:?}"))?;
            if eta > 100 {
                return Err(format!("eta {eta} out of range in workload {name:?}"));
            }
            return Ok(WorkloadKind::EtaStatic { eta });
        }
        if let Some(rest) = norm.strip_prefix("toggle-") {
            let digits = rest.trim_end_matches('s');
            let period_s: u32 = digits
                .parse()
                .map_err(|_| format!("bad toggle period in workload {name:?}"))?;
            if period_s == 0 {
                return Err(format!("toggle period must be positive in {name:?}"));
            }
            return Ok(WorkloadKind::Toggle { period_s });
        }
        Err(format!(
            "unknown workload {name:?} (expected geekbench, pcmark, video, \
             eta-<pct>, idle-on, or toggle-<seconds>)"
        ))
    }
}

/// Where generated segments land: the batch [`TraceBuilder`] or the
/// streaming cursor's window buffer ([`crate::stream::TraceCursor`]).
///
/// Both sinks receive the *identical* call sequence from
/// [`WorkloadGen`], which is what makes streamed traces bit-identical to
/// batch-materialized ones.
pub(crate) trait SegmentSink {
    /// Append a segment of `duration_s` starting at the current cursor.
    fn push_segment(&mut self, duration_s: f64, demand: Demand, actions: Vec<Action>);
}

impl SegmentSink for TraceBuilder {
    fn push_segment(&mut self, duration_s: f64, demand: Demand, actions: Vec<Action>) {
        self.push(duration_s, demand, actions);
    }
}

/// Per-kind generator parameters hoisted out of the emission loop (the
/// Zipf tables and toggle timings are shared constants, not per-burst
/// state).
#[derive(Debug, Clone)]
enum GenParams {
    Geekbench,
    Pcmark { gap_zipf: Zipf },
    Video,
    EtaStatic { p_pcmark: f64, burst_zipf: Zipf },
    IdleOn,
    Toggle { on_s: f64, off_s: f64 },
}

/// A resumable workload generator: the seeded RNG plus the per-kind
/// parameters, emitting the prelude on the first call and one
/// generator-loop iteration per call afterwards.
///
/// Driving it to the horizon through a [`TraceBuilder`] reproduces
/// [`generate`] exactly; driving it lazily through a window buffer gives
/// the fleet's streaming traces the identical RNG call order, hence
/// bit-identical segments.
#[derive(Debug, Clone)]
pub(crate) struct WorkloadGen {
    params: GenParams,
    rng: StdRng,
    started: bool,
}

impl WorkloadGen {
    /// Build the generator for `kind` from the trace seed.
    ///
    /// # Panics
    ///
    /// Panics if `eta > 100` or a toggle period is under 2 s.
    pub(crate) fn new(kind: WorkloadKind, seed: u64) -> Self {
        let params = match kind {
            WorkloadKind::Geekbench => GenParams::Geekbench,
            WorkloadKind::Pcmark => GenParams::Pcmark {
                gap_zipf: Zipf::new(6, 1.1),
            },
            WorkloadKind::Video => GenParams::Video,
            WorkloadKind::EtaStatic { eta } => {
                assert!(eta <= 100, "eta is a percentage");
                GenParams::EtaStatic {
                    p_pcmark: f64::from(eta) / 100.0,
                    burst_zipf: Zipf::new(5, 1.2),
                }
            }
            WorkloadKind::IdleOn => GenParams::IdleOn,
            WorkloadKind::Toggle { period_s } => {
                assert!(period_s >= 2, "toggle period must be at least 2 s");
                let period = f64::from(period_s);
                let on_s = (period / 2.0).max(1.0);
                let off_s = (period - on_s).max(1.0);
                GenParams::Toggle { on_s, off_s }
            }
        };
        WorkloadGen {
            params,
            rng: StdRng::seed_from_u64(seed ^ 0xCA9A_u64.rotate_left(17)),
            started: false,
        }
    }

    /// Emit the next burst of segments into `sink`: the prelude on the
    /// first call (possibly empty), one loop iteration per call after.
    /// Every step call appends at least one segment.
    pub(crate) fn emit<S: SegmentSink>(&mut self, sink: &mut S) {
        let rng = &mut self.rng;
        if !self.started {
            self.started = true;
            match &self.params {
                GenParams::Geekbench => geekbench_prelude(sink, rng),
                GenParams::Pcmark { .. } => pcmark_prelude(sink),
                GenParams::Video => video_prelude(sink),
                GenParams::EtaStatic { .. } => eta_static_prelude(sink),
                GenParams::IdleOn => idle_on_prelude(sink),
                GenParams::Toggle { .. } => {}
            }
        } else {
            match &self.params {
                GenParams::Geekbench => geekbench_step(sink, rng),
                GenParams::Pcmark { gap_zipf } => pcmark_step(sink, gap_zipf, rng),
                GenParams::Video => video_step(sink, rng),
                GenParams::EtaStatic {
                    p_pcmark,
                    burst_zipf,
                } => eta_static_step(sink, *p_pcmark, burst_zipf, rng),
                GenParams::IdleOn => idle_on_step(sink),
                GenParams::Toggle { on_s, off_s } => toggle_step(sink, *on_s, *off_s),
            }
        }
    }
}

/// Generate a trace of at least `horizon_s` seconds for the given kind.
///
/// # Panics
///
/// Panics if `horizon_s` is not positive or `eta > 100`.
pub fn generate(kind: WorkloadKind, horizon_s: f64, seed: u64) -> Trace {
    assert!(horizon_s > 0.0, "horizon must be positive");
    let mut gen = WorkloadGen::new(kind, seed);
    let mut b = TraceBuilder::new();
    gen.emit(&mut b); // prelude
    while b.cursor_s() < horizon_s {
        gen.emit(&mut b);
    }
    b.build(kind.label())
}

fn full_demand(rng: &mut StdRng) -> Demand {
    Demand {
        cpu_util: rng.gen_range(94.0..100.0),
        freq_index: usize::MAX, // top frequency (clamped by the model)
        brightness: 200.0,
        packet_rate: rng.gen_range(5.0..20.0),
    }
}

/// Geekbench prelude: saturating compute from the first second.
fn geekbench_prelude<S: SegmentSink>(b: &mut S, rng: &mut StdRng) {
    b.push_segment(
        1.0,
        full_demand(rng),
        vec![Action::ScreenOn, Action::AppLaunch],
    );
}

/// Geekbench: saturating compute, screen on, sporadic result uploads.
fn geekbench_step<S: SegmentSink>(b: &mut S, rng: &mut StdRng) {
    let dur = rng.gen_range(15.0..40.0);
    let upload = rng.gen_bool(0.15);
    let mut d = full_demand(rng);
    let mut actions = vec![Action::CpuBusy];
    if upload {
        d.packet_rate = rng.gen_range(120.0..200.0);
        actions.push(Action::NetSendStart);
    } else {
        actions.push(Action::NetStop);
    }
    b.push_segment(dur, d, actions);
}

/// PCMark prelude: a moderate compute opening segment.
fn pcmark_prelude<S: SegmentSink>(b: &mut S) {
    b.push_segment(
        1.0,
        Demand {
            cpu_util: 70.0,
            freq_index: usize::MAX,
            brightness: 180.0,
            packet_rate: 3.0,
        },
        vec![Action::ScreenOn, Action::AppLaunch],
    );
}

/// PCMark: CPU-intensive phases with occasional user interactions whose
/// gaps follow a Zipf law (the paper's skewed arrivals).
fn pcmark_step<S: SegmentSink>(b: &mut S, gap_zipf: &Zipf, rng: &mut StdRng) {
    // A compute phase.
    let phase = Demand {
        cpu_util: rng.gen_range(55.0..85.0),
        freq_index: usize::MAX,
        brightness: 180.0,
        packet_rate: rng.gen_range(0.0..8.0),
    };
    let gap = gap_zipf.sample(rng) as f64 * rng.gen_range(4.0..9.0);
    b.push_segment(gap, phase, vec![Action::CpuBusy]);
    // An interaction surge: app launch, full utilisation, burst of
    // traffic — the V-edge trigger.
    let surge = Demand {
        cpu_util: 100.0,
        freq_index: usize::MAX,
        brightness: 220.0,
        packet_rate: rng.gen_range(90.0..150.0),
    };
    b.push_segment(
        rng.gen_range(1.5..4.0),
        surge,
        vec![Action::AppLaunch, Action::NetReceiveStart],
    );
    // Settle.
    b.push_segment(
        rng.gen_range(2.0..5.0),
        Demand {
            cpu_util: 40.0,
            freq_index: 2,
            brightness: 180.0,
            packet_rate: 2.0,
        },
        vec![Action::NetStop, Action::CpuIdle],
    );
}

/// Video prelude: app start plus initial buffering.
fn video_prelude<S: SegmentSink>(b: &mut S) {
    b.push_segment(
        2.0,
        Demand {
            cpu_util: 45.0,
            freq_index: usize::MAX,
            brightness: 220.0,
            packet_rate: 70.0,
        },
        vec![Action::ScreenOn, Action::AppLaunch, Action::NetReceiveStart],
    );
}

/// Video: the paper's workload "keeps playing short videos" — steady
/// streaming stretches punctuated by a per-video start spike (decoder
/// spin-up plus prefetch burst), the V-edge trigger of Fig. 3(a).
fn video_step<S: SegmentSink>(b: &mut S, rng: &mut StdRng) {
    // One short video: a start spike, then stable playback.
    let spike = Demand {
        cpu_util: 100.0,
        freq_index: usize::MAX,
        brightness: 220.0,
        packet_rate: rng.gen_range(150.0..220.0),
    };
    b.push_segment(
        rng.gen_range(2.0..4.5),
        spike,
        vec![Action::AppLaunch, Action::NetSendStart],
    );
    let stable = Demand {
        cpu_util: rng.gen_range(26.0..34.0),
        freq_index: 2,
        brightness: 220.0,
        packet_rate: rng.gen_range(55.0..70.0),
    };
    b.push_segment(
        rng.gen_range(14.0..40.0),
        stable,
        vec![Action::NetReceiveStart, Action::CpuBusy],
    );
}

/// eta-Static prelude: a calm mixed-use opening segment.
fn eta_static_prelude<S: SegmentSink>(b: &mut S) {
    b.push_segment(
        1.0,
        Demand {
            cpu_util: 40.0,
            freq_index: 2,
            brightness: 200.0,
            packet_rate: 30.0,
        },
        vec![Action::ScreenOn, Action::AppLaunch],
    );
}

/// eta-Static: Zipf-skewed interleaving of PCMark-style bursts and
/// Video-style stretches in the requested ratio.
fn eta_static_step<S: SegmentSink>(b: &mut S, p_pcmark: f64, burst_zipf: &Zipf, rng: &mut StdRng) {
    if rng.gen_bool(p_pcmark) {
        // PCMark-like: surge then settle (short, bursty).
        let intensity = burst_zipf.sample(rng) as f64;
        let surge = Demand {
            cpu_util: (70.0 + 6.0 * intensity).min(100.0),
            freq_index: usize::MAX,
            brightness: 210.0,
            packet_rate: 20.0 * intensity,
        };
        b.push_segment(
            rng.gen_range(1.5..4.5),
            surge,
            vec![Action::AppLaunch, Action::NetReceiveStart],
        );
        b.push_segment(
            rng.gen_range(3.0..8.0),
            Demand {
                cpu_util: 45.0,
                freq_index: 3,
                brightness: 200.0,
                packet_rate: 5.0,
            },
            vec![Action::NetStop, Action::CpuIdle],
        );
    } else {
        // Video-like: stable stretch.
        b.push_segment(
            rng.gen_range(20.0..50.0),
            Demand {
                cpu_util: rng.gen_range(26.0..34.0),
                freq_index: 2,
                brightness: 220.0,
                packet_rate: rng.gen_range(55.0..70.0),
            },
            vec![Action::NetReceiveStart, Action::CpuBusy],
        );
    }
}

/// Screen-on idle prelude (Fig. 2a): the panel lights up.
fn idle_on_prelude<S: SegmentSink>(b: &mut S) {
    b.push_segment(
        1.0,
        Demand {
            cpu_util: 3.0,
            freq_index: 0,
            brightness: 180.0,
            packet_rate: 0.0,
        },
        vec![Action::ScreenOn],
    );
}

/// Screen-on idle (Fig. 2a): the panel burns, the CPU naps.
fn idle_on_step<S: SegmentSink>(b: &mut S) {
    b.push_segment(
        60.0,
        Demand {
            cpu_util: 3.0,
            freq_index: 0,
            brightness: 180.0,
            packet_rate: 0.0,
        },
        vec![Action::CpuIdle],
    );
}

/// Phone on/off toggling at a fixed period (Fig. 2b): each wake is a
/// short full-power surge, each sleep a suspend. No prelude.
fn toggle_step<S: SegmentSink>(b: &mut S, on_s: f64, off_s: f64) {
    b.push_segment(
        on_s,
        Demand {
            cpu_util: 100.0,
            freq_index: usize::MAX,
            brightness: 200.0,
            packet_rate: 40.0,
        },
        vec![Action::Wake, Action::ScreenOn, Action::NetReceiveStart],
    );
    b.push_segment(
        off_s,
        Demand {
            cpu_util: 0.0,
            freq_index: 0,
            brightness: 0.0,
            packet_rate: 0.0,
        },
        vec![Action::ScreenOff, Action::Suspend],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in WorkloadKind::fig12() {
            let a = generate(kind, 1000.0, 7);
            let b = generate(kind, 1000.0, 7);
            assert_eq!(a, b, "{kind:?} must be deterministic");
            let c = generate(kind, 1000.0, 8);
            assert_ne!(a, c, "{kind:?} should vary with the seed");
        }
    }

    #[test]
    fn horizon_is_covered() {
        for kind in WorkloadKind::fig12() {
            let t = generate(kind, 500.0, 3);
            assert!(t.horizon_s() >= 500.0, "{kind:?} too short");
        }
    }

    #[test]
    fn geekbench_is_saturating() {
        let t = generate(WorkloadKind::Geekbench, 2000.0, 1);
        assert!(
            t.mean_cpu_util() > 90.0,
            "Geekbench must saturate, got {}",
            t.mean_cpu_util()
        );
    }

    #[test]
    fn video_is_mostly_stable_playback() {
        let t = generate(WorkloadKind::Video, 2000.0, 1);
        let m = t.mean_cpu_util();
        assert!(m > 20.0 && m < 55.0, "video util {m}");
        // Playback dominates: most of the time is spent in low-CPU
        // streaming segments even though each short video starts with a
        // spike.
        let stable_time: f64 = t
            .segments()
            .iter()
            .filter(|s| s.demand.cpu_util < 50.0)
            .map(|s| s.duration_s)
            .sum();
        assert!(stable_time / t.horizon_s() > 0.75);
        // PCMark surges more often than Video.
        let pcmark = generate(WorkloadKind::Pcmark, 2000.0, 1);
        assert!(pcmark.surge_count(30.0) > t.surge_count(30.0));
    }

    #[test]
    fn pcmark_has_interaction_surges() {
        let t = generate(WorkloadKind::Pcmark, 2000.0, 5);
        assert!(t.surge_count(30.0) >= 10);
        let m = t.mean_cpu_util();
        assert!(m > 40.0 && m < 95.0, "pcmark util {m}");
    }

    #[test]
    fn eta_interpolates_between_video_and_pcmark() {
        let lo = generate(WorkloadKind::EtaStatic { eta: 20 }, 4000.0, 2);
        let hi = generate(WorkloadKind::EtaStatic { eta: 80 }, 4000.0, 2);
        assert!(
            hi.surge_count(25.0) > lo.surge_count(25.0),
            "more PCMark share means more surges: {} vs {}",
            hi.surge_count(25.0),
            lo.surge_count(25.0)
        );
        assert!(hi.mean_cpu_util() > lo.mean_cpu_util());
    }

    #[test]
    fn toggle_alternates_wake_and_suspend() {
        let t = generate(WorkloadKind::Toggle { period_s: 60 }, 600.0, 1);
        let wakes = t
            .segments()
            .iter()
            .filter(|s| s.actions.contains(&Action::Wake))
            .count();
        let suspends = t
            .segments()
            .iter()
            .filter(|s| s.actions.contains(&Action::Suspend))
            .count();
        assert_eq!(wakes, suspends);
        assert!(wakes >= 10);
    }

    #[test]
    fn faster_toggle_means_more_surges() {
        let slow = generate(WorkloadKind::Toggle { period_s: 60 }, 3600.0, 1);
        let fast = generate(WorkloadKind::Toggle { period_s: 4 }, 3600.0, 1);
        assert!(fast.surge_count(50.0) > slow.surge_count(50.0) * 5);
    }

    #[test]
    fn idle_on_is_quiet() {
        let t = generate(WorkloadKind::IdleOn, 1200.0, 1);
        assert!(t.mean_cpu_util() < 10.0);
        assert_eq!(t.surge_count(30.0), 0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = WorkloadKind::fig12().iter().map(|k| k.label()).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn rejects_eta_above_100() {
        let _ = generate(WorkloadKind::EtaStatic { eta: 101 }, 100.0, 0);
    }

    #[test]
    fn parse_round_trips_every_fig12_label() {
        for kind in WorkloadKind::fig12() {
            assert_eq!(WorkloadKind::parse(&kind.label()), Ok(kind));
        }
        assert_eq!(
            WorkloadKind::parse("Screen-on idle"),
            Ok(WorkloadKind::IdleOn)
        );
        assert_eq!(
            WorkloadKind::parse("Toggle 60s"),
            Ok(WorkloadKind::Toggle { period_s: 60 })
        );
    }

    #[test]
    fn parse_accepts_short_forms_and_rejects_junk() {
        assert_eq!(
            WorkloadKind::parse("eta-50"),
            Ok(WorkloadKind::EtaStatic { eta: 50 })
        );
        assert_eq!(WorkloadKind::parse("idle-on"), Ok(WorkloadKind::IdleOn));
        assert_eq!(
            WorkloadKind::parse("toggle-30"),
            Ok(WorkloadKind::Toggle { period_s: 30 })
        );
        assert!(WorkloadKind::parse("eta-150").is_err());
        assert!(WorkloadKind::parse("toggle-0").is_err());
        assert!(WorkloadKind::parse("quake").is_err());
    }
}
