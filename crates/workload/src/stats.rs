//! Trace statistics.
//!
//! The paper's modelling hinges on demand *patterns*: surge frequency,
//! skewness, duty above the surge threshold. This module computes those
//! statistics for any trace, so workloads can be characterised the way
//! Section III characterises CAPMAN's target software ("arrivals are
//! frequent with a skewed distribution").

use capman_device::power::{Demand, PowerModel};
use capman_device::states::DeviceState;

use crate::trace::Trace;

/// Aggregate statistics of a workload trace.
///
/// # Examples
///
/// ```
/// use capman_workload::stats::TraceStats;
/// use capman_workload::{generate, WorkloadKind};
/// use capman_device::power::PowerModel;
///
/// let trace = generate(WorkloadKind::Pcmark, 3000.0, 1);
/// let stats = TraceStats::analyze(&trace, &PowerModel::calibrated(8, 1.0), 2.6);
/// assert!(stats.surge_count > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Duration-weighted mean CPU utilisation, percent.
    pub mean_cpu_util: f64,
    /// Duration-weighted mean estimated device power, watts (awake
    /// state assumed).
    pub mean_power_w: f64,
    /// Peak estimated device power, watts.
    pub peak_power_w: f64,
    /// Fraction of time spent above the surge power threshold.
    pub surge_duty: f64,
    /// Number of surge onsets (upward crossings of the threshold).
    pub surge_count: usize,
    /// Mean gap between surge onsets, seconds (`inf` without surges).
    pub mean_surge_gap_s: f64,
    /// Coefficient of variation of the surge gaps — > 1 indicates a
    /// skewed (bursty) arrival process.
    pub surge_gap_cv: f64,
}

impl TraceStats {
    /// Analyse a trace with the given power model, using `threshold_w`
    /// as the surge power level (the scheduler's default is 1.5 W).
    ///
    /// # Panics
    ///
    /// Panics if `threshold_w` is not positive.
    pub fn analyze(trace: &Trace, model: &PowerModel, threshold_w: f64) -> Self {
        assert!(threshold_w > 0.0, "threshold must be positive");
        let awake = DeviceState::awake();
        let power_of = |demand: &Demand| model.device_power_mw(&awake, demand) / 1000.0;

        let mut mean_power = 0.0;
        let mut peak_power: f64 = 0.0;
        let mut surge_time = 0.0;
        let mut onsets: Vec<f64> = Vec::new();
        let mut prev_above = false;
        for seg in trace.segments() {
            let p = power_of(&seg.demand);
            mean_power += p * seg.duration_s;
            peak_power = peak_power.max(p);
            let above = p > threshold_w;
            if above {
                surge_time += seg.duration_s;
                if !prev_above {
                    onsets.push(seg.start_s);
                }
            }
            prev_above = above;
        }
        let horizon = trace.horizon_s();
        let gaps: Vec<f64> = onsets.windows(2).map(|w| w[1] - w[0]).collect();
        let mean_gap = if gaps.is_empty() {
            f64::INFINITY
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        let gap_cv = if gaps.len() < 2 || !mean_gap.is_finite() || mean_gap == 0.0 {
            0.0
        } else {
            let var = gaps.iter().map(|g| (g - mean_gap).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean_gap
        };

        TraceStats {
            mean_cpu_util: trace.mean_cpu_util(),
            mean_power_w: mean_power / horizon,
            peak_power_w: peak_power,
            surge_duty: surge_time / horizon,
            surge_count: onsets.len(),
            mean_surge_gap_s: mean_gap,
            surge_gap_cv: gap_cv,
        }
    }

    /// Whether the trace matches CAPMAN's target profile (Section III):
    /// frequent surges with a skewed arrival distribution.
    pub fn is_capman_target(&self) -> bool {
        self.surge_count >= 10 && self.surge_gap_cv > 0.3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate, WorkloadKind};
    use capman_device::power::PowerModel;

    fn stats(kind: WorkloadKind) -> TraceStats {
        let trace = generate(kind, 6000.0, 9);
        TraceStats::analyze(&trace, &PowerModel::calibrated(8, 1.0), 2.6)
    }

    #[test]
    fn geekbench_is_high_power_high_duty() {
        let s = stats(WorkloadKind::Geekbench);
        assert!(s.mean_power_w > 2.0, "mean {}", s.mean_power_w);
        assert!(s.mean_cpu_util > 90.0);
    }

    #[test]
    fn idle_has_no_surges() {
        let s = stats(WorkloadKind::IdleOn);
        assert_eq!(s.surge_count, 0);
        assert_eq!(s.surge_duty, 0.0);
        assert!(s.mean_surge_gap_s.is_infinite());
    }

    #[test]
    fn pcmark_matches_the_capman_target_profile() {
        let s = stats(WorkloadKind::Pcmark);
        assert!(s.surge_count >= 10, "surges {}", s.surge_count);
        assert!(
            s.is_capman_target(),
            "PCMark should be a CAPMAN target: {s:?}"
        );
    }

    #[test]
    fn video_surges_less_often_than_pcmark() {
        let v = stats(WorkloadKind::Video);
        let p = stats(WorkloadKind::Pcmark);
        assert!(v.surge_duty < p.surge_duty);
    }

    #[test]
    fn eta_orders_surge_duty() {
        let lo = stats(WorkloadKind::EtaStatic { eta: 20 });
        let hi = stats(WorkloadKind::EtaStatic { eta: 80 });
        assert!(hi.surge_duty >= lo.surge_duty);
    }

    #[test]
    fn peak_is_at_least_mean() {
        for kind in WorkloadKind::fig12() {
            let s = stats(kind);
            assert!(s.peak_power_w >= s.mean_power_w, "{kind:?}");
        }
    }
}
