//! Per-cycle outcomes and comparison helpers.
//!
//! The evaluation reports service time (Fig. 12), energy use, performance
//! (work served), temperature behaviour (Figs. 13–14) and scheduler
//! overhead (Fig. 16); an [`Outcome`] collects all of them for one
//! discharge cycle.

use crate::telemetry::Telemetry;

/// Why a discharge cycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The pack failed to serve the demand for the configured window.
    SustainedShortfall,
    /// Every cell was fully exhausted.
    PackDepleted,
    /// The simulation horizon was reached with the pack still alive
    /// (censored observation).
    HorizonReached,
}

/// The measured outcome of one discharge cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Policy name.
    pub policy: String,
    /// Workload label.
    pub workload: String,
    /// Phone name.
    pub phone: String,
    /// Service time: seconds until the cycle ended.
    pub service_time_s: f64,
    /// Why it ended.
    pub end_reason: EndReason,
    /// Energy delivered to the load, joules.
    pub energy_delivered_j: f64,
    /// Energy dissipated as heat inside the pack (incl. switching), J.
    pub energy_heat_j: f64,
    /// Work served: integral of served CPU utilisation x frequency
    /// share, in utilisation-seconds (the performance metric).
    pub work_served: f64,
    /// Battery switches performed.
    pub switches: u64,
    /// Seconds the big cell carried the load.
    pub big_active_s: f64,
    /// Seconds the LITTLE cell carried the load.
    pub little_active_s: f64,
    /// Energy the big cell delivered over the cycle, joules.
    pub big_delivered_j: f64,
    /// Energy the LITTLE cell delivered over the cycle, joules (zero for
    /// single packs).
    pub little_delivered_j: f64,
    /// Seconds the TEC was energised.
    pub tec_on_s: f64,
    /// Energy drawn by the TEC, joules.
    pub tec_energy_j: f64,
    /// Peak hot-spot temperature, degC.
    pub max_hotspot_c: f64,
    /// Mean hot-spot temperature, degC.
    pub mean_hotspot_c: f64,
    /// Total scheduler computation overhead, microseconds (Fig. 16).
    pub scheduler_overhead_us: f64,
    /// Number of runtime recalibrations performed.
    pub recalibrations: u64,
    /// Sampled time series.
    pub telemetry: Telemetry,
}

impl Outcome {
    /// Service-time gain of `self` over `other`, as a percentage
    /// (`+114.0` means 114% longer service).
    pub fn service_gain_pct(&self, other: &Outcome) -> f64 {
        (self.service_time_s / other.service_time_s - 1.0) * 100.0
    }

    /// Performance (work) gain over `other`, percent.
    pub fn performance_gain_pct(&self, other: &Outcome) -> f64 {
        (self.work_served / other.work_served - 1.0) * 100.0
    }

    /// Energy used per unit of work, J per utilisation-second.
    pub fn energy_per_work(&self) -> f64 {
        let spent = self.energy_delivered_j + self.energy_heat_j;
        if self.work_served > 0.0 {
            spent / self.work_served
        } else {
            f64::INFINITY
        }
    }

    /// How much less energy `self` uses per unit work than `other`,
    /// percent (`+53.0` means 53% less energy).
    pub fn energy_saving_pct(&self, other: &Outcome) -> f64 {
        (1.0 - self.energy_per_work() / other.energy_per_work()) * 100.0
    }

    /// Ratio of big to LITTLE activation time (Fig. 14's x-axis), or
    /// `None` when the LITTLE cell never served.
    pub fn big_little_ratio(&self) -> Option<f64> {
        (self.little_active_s > 0.0).then(|| self.big_active_s / self.little_active_s)
    }

    /// Pack efficiency: delivered over delivered-plus-heat.
    pub fn efficiency(&self) -> f64 {
        let total = self.energy_delivered_j + self.energy_heat_j;
        if total > 0.0 {
            self.energy_delivered_j / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(service: f64, work: f64, delivered: f64, heat: f64) -> Outcome {
        Outcome {
            policy: "test".into(),
            workload: "w".into(),
            phone: "Nexus".into(),
            service_time_s: service,
            end_reason: EndReason::PackDepleted,
            energy_delivered_j: delivered,
            energy_heat_j: heat,
            work_served: work,
            switches: 0,
            big_active_s: 60.0,
            little_active_s: 30.0,
            big_delivered_j: delivered * 0.6,
            little_delivered_j: delivered * 0.4,
            tec_on_s: 0.0,
            tec_energy_j: 0.0,
            max_hotspot_c: 40.0,
            mean_hotspot_c: 35.0,
            scheduler_overhead_us: 0.0,
            recalibrations: 0,
            telemetry: Telemetry::new(),
        }
    }

    #[test]
    fn service_gain_matches_paper_arithmetic() {
        // 114% longer service time means 2.14x.
        let capman = outcome(2140.0, 100.0, 100.0, 10.0);
        let practice = outcome(1000.0, 100.0, 100.0, 10.0);
        assert!((capman.service_gain_pct(&practice) - 114.0).abs() < 1e-9);
    }

    #[test]
    fn energy_saving_definition() {
        let a = outcome(1.0, 100.0, 47.0, 0.0); // 0.47 J per work
        let b = outcome(1.0, 100.0, 100.0, 0.0); // 1.0 J per work
        assert!((a.energy_saving_pct(&b) - 53.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_and_ratio() {
        let o = outcome(1.0, 1.0, 90.0, 10.0);
        assert!((o.efficiency() - 0.9).abs() < 1e-12);
        assert!((o.big_little_ratio().expect("ratio") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_work_is_infinite_energy_cost() {
        let o = outcome(1.0, 0.0, 10.0, 0.0);
        assert!(o.energy_per_work().is_infinite());
    }
}
