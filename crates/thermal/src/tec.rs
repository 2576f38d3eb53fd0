//! Thermoelectric cooler (TEC) physics — Eq. (1) and Fig. 6.
//!
//! The heat pumped through a TEC is
//!
//! ```text
//! Qc = S_T * Tc * I - I^2 R / 2 - K (Th - Tc)        (Eq. 1)
//! ```
//!
//! with thermoelectric coefficient `S_T`, operating current `I`, electrical
//! resistance `R`, thermal conductivity `K`, and cold/hot-side temperatures
//! `Tc`/`Th` in Kelvin. The electrical power drawn is
//! `P = S_T I (Th - Tc) + I^2 R` (Table II). The steady temperature
//! difference first grows with `I`, peaks at the rated current
//! `I* = S_T Tc / R` (1.0 A for the paper's module) and then falls —
//! the curve in the bottom half of Fig. 6. CAPMAN therefore always drives
//! the TEC at its rated current, as an on/off device.

use crate::hotspot::HOT_SPOT_THRESHOLD_C;
use crate::network::{NodeId, ThermalNetwork};

/// Celsius-to-Kelvin offset.
const KELVIN: f64 = 273.15;

/// A thermoelectric cooler module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tec {
    /// Thermoelectric (Seebeck) coefficient, V/K.
    s_t: f64,
    /// Electrical resistance, ohms.
    r_ohm: f64,
    /// Thermal conductivity between the faces, W/K.
    k_w_per_k: f64,
    /// Reference cold-side temperature for the rated-current definition, K.
    ref_tc_k: f64,
}

impl Tec {
    /// The ATE-31-2.2A-class miniature module of the prototype (< 2 g),
    /// parameterised so the Fig. 6 curve peaks at 1.0 A.
    pub fn ate31() -> Self {
        let ref_tc_k = 25.0 + KELVIN;
        let r_ohm = 0.9;
        Tec {
            s_t: r_ohm / ref_tc_k, // puts the rated current at exactly 1 A
            r_ohm,
            k_w_per_k: 0.0075,
            ref_tc_k,
        }
    }

    /// Build a module from raw physical constants.
    ///
    /// # Panics
    ///
    /// Panics if any constant is not positive.
    pub fn new(s_t: f64, r_ohm: f64, k_w_per_k: f64, ref_tc_c: f64) -> Self {
        assert!(s_t > 0.0, "S_T must be positive");
        assert!(r_ohm > 0.0, "R must be positive");
        assert!(k_w_per_k > 0.0, "K must be positive");
        Tec {
            s_t,
            r_ohm,
            k_w_per_k,
            ref_tc_k: ref_tc_c + KELVIN,
        }
    }

    /// The rated operating current `I* = S_T Tc / R`, amperes — the
    /// maximum of the Fig. 6 curve, where CAPMAN always drives the module.
    pub fn rated_current_a(&self) -> f64 {
        self.s_t * self.ref_tc_k / self.r_ohm
    }

    /// Heat pumped from the cold side at current `I`, Eq. (1), watts.
    ///
    /// Temperatures are in degrees Celsius; they are converted internally.
    /// The result can be negative when conduction back through the module
    /// exceeds the Peltier pumping.
    pub fn cooling_w(&self, current_a: f64, cold_c: f64, hot_c: f64) -> f64 {
        let tc = cold_c + KELVIN;
        let th = hot_c + KELVIN;
        self.s_t * tc * current_a
            - 0.5 * current_a * current_a * self.r_ohm
            - self.k_w_per_k * (th - tc)
    }

    /// Electrical power drawn at current `I` with face temperatures
    /// `cold_c`/`hot_c`, watts (Table II row for the TEC).
    pub fn power_w(&self, current_a: f64, cold_c: f64, hot_c: f64) -> f64 {
        let delta = (hot_c - cold_c).max(0.0);
        self.s_t * current_a * delta + current_a * current_a * self.r_ohm
    }

    /// The steady-state temperature difference sustained at current `I`
    /// with the cold side at the reference temperature — the Fig. 6 curve.
    ///
    /// Solves `Qc = 0`: `delta_T = (S_T Tc I - I^2 R / 2) / K`.
    pub fn delta_t_steady(&self, current_a: f64) -> f64 {
        (self.s_t * self.ref_tc_k * current_a - 0.5 * current_a * current_a * self.r_ohm)
            / self.k_w_per_k
    }

    /// Pump heat from `cold` to `hot` on a [`ThermalNetwork`] for one step
    /// at the given current, injecting the waste heat on the hot side.
    ///
    /// Returns the step telemetry. Call before [`ThermalNetwork::step`].
    pub fn pump(
        &self,
        network: &mut ThermalNetwork,
        cold: NodeId,
        hot: NodeId,
        current_a: f64,
    ) -> TecStep {
        let cold_c = network.temp_c(cold);
        let hot_c = network.temp_c(hot);
        let cooling_w = self.cooling_w(current_a, cold_c, hot_c);
        let power_w = self.power_w(current_a, cold_c, hot_c);
        network.inject(cold, -cooling_w);
        network.inject(hot, cooling_w + power_w);
        TecStep {
            cooling_w,
            power_w,
            on: current_a > 0.0,
        }
    }

    /// Thermoelectric coefficient, V/K.
    pub fn s_t(&self) -> f64 {
        self.s_t
    }

    /// Electrical resistance, ohms.
    pub fn r_ohm(&self) -> f64 {
        self.r_ohm
    }

    /// Thermal conductivity, W/K.
    pub fn k_w_per_k(&self) -> f64 {
        self.k_w_per_k
    }
}

/// Telemetry for one TEC step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TecStep {
    /// Heat removed from the cold side, watts (negative means back-flow).
    pub cooling_w: f64,
    /// Electrical power drawn, watts.
    pub power_w: f64,
    /// Whether the module was energised.
    pub on: bool,
}

impl TecStep {
    /// A step with the module off.
    pub fn off() -> Self {
        TecStep {
            cooling_w: 0.0,
            power_w: 0.0,
            on: false,
        }
    }
}

/// Bang-bang controller: boot the TEC above the threshold, drop it once
/// the spot has cooled by the hysteresis band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TecController {
    /// Turn-on threshold, degC (45 in the paper).
    pub threshold_c: f64,
    /// Hysteresis band, Kelvin.
    pub hysteresis_k: f64,
    on: bool,
}

impl TecController {
    /// The paper's controller: 45 degC threshold, 2 K hysteresis.
    pub fn paper() -> Self {
        TecController {
            threshold_c: HOT_SPOT_THRESHOLD_C,
            hysteresis_k: 2.0,
            on: false,
        }
    }

    /// Create a controller with a custom threshold and hysteresis.
    ///
    /// # Panics
    ///
    /// Panics if `hysteresis_k` is negative.
    pub fn new(threshold_c: f64, hysteresis_k: f64) -> Self {
        assert!(hysteresis_k >= 0.0, "hysteresis must be non-negative");
        TecController {
            threshold_c,
            hysteresis_k,
            on: false,
        }
    }

    /// Update with the current hot-spot temperature; returns whether the
    /// TEC should run this step.
    pub fn update(&mut self, spot_c: f64) -> bool {
        if spot_c > self.threshold_c {
            self.on = true;
        } else if spot_c < self.threshold_c - self.hysteresis_k {
            self.on = false;
        }
        self.on
    }

    /// Whether the TEC is currently commanded on.
    pub fn is_on(&self) -> bool {
        self.on
    }
}

impl Default for TecController {
    fn default() -> Self {
        TecController::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rated_current_is_one_ampere() {
        let tec = Tec::ate31();
        assert!((tec.rated_current_a() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig6_curve_peaks_at_rated_current() {
        let tec = Tec::ate31();
        let rated = tec.rated_current_a();
        let peak = tec.delta_t_steady(rated);
        // Sample the sweep of Fig. 6 (0 to 2.2 A).
        for i in 0..=22 {
            let current = f64::from(i) * 0.1;
            assert!(
                tec.delta_t_steady(current) <= peak + 1e-9,
                "curve must peak at rated current, exceeded at {current} A"
            );
        }
        // Rising then falling.
        assert!(tec.delta_t_steady(0.5) > tec.delta_t_steady(0.1));
        assert!(tec.delta_t_steady(2.0) < peak);
        assert!(tec.delta_t_steady(0.0).abs() < 1e-12);
    }

    #[test]
    fn cooling_decreases_with_hotter_hot_side() {
        let tec = Tec::ate31();
        let near = tec.cooling_w(1.0, 45.0, 46.0);
        let far = tec.cooling_w(1.0, 45.0, 60.0);
        assert!(far < near);
    }

    #[test]
    fn power_includes_joule_and_peltier_terms() {
        let tec = Tec::ate31();
        let p = tec.power_w(1.0, 40.0, 50.0);
        assert!(p > 1.0 * 1.0 * tec.r_ohm()); // at least the Joule term
        let p0 = tec.power_w(1.0, 50.0, 50.0);
        assert!((p0 - tec.r_ohm()).abs() < 1e-9);
    }

    #[test]
    fn pump_cools_the_spot_on_a_network() {
        let tec = Tec::ate31();
        let mut with_tec = ThermalNetwork::phone();
        let mut without = ThermalNetwork::phone();
        for _ in 0..1800 {
            for n in [&mut with_tec, &mut without] {
                n.inject(NodeId::Cpu, 2.0);
                n.inject(NodeId::HotSpot, 0.8);
            }
            tec.pump(&mut with_tec, NodeId::HotSpot, NodeId::Shell, 1.0);
            with_tec.step(1.0);
            without.step(1.0);
        }
        assert!(
            with_tec.temp_c(NodeId::HotSpot) < without.temp_c(NodeId::HotSpot) - 5.0,
            "TEC should cut the hot spot substantially: {} vs {}",
            with_tec.temp_c(NodeId::HotSpot),
            without.temp_c(NodeId::HotSpot)
        );
    }

    #[test]
    fn controller_has_hysteresis() {
        let mut c = TecController::paper();
        assert!(!c.update(44.0));
        assert!(c.update(45.5));
        // Stays on within the band.
        assert!(c.update(44.0));
        assert!(c.update(43.5));
        // Drops below threshold - hysteresis.
        assert!(!c.update(42.5));
        assert!(!c.is_on());
    }

    #[test]
    fn controller_threshold_matches_paper() {
        let c = TecController::default();
        assert_eq!(c.threshold_c, 45.0);
    }

    #[test]
    #[should_panic(expected = "S_T")]
    fn new_rejects_bad_seebeck() {
        let _ = Tec::new(0.0, 1.0, 0.1, 25.0);
    }
}
