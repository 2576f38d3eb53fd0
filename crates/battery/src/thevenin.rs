//! Thevenin equivalent-circuit voltage model.
//!
//! The terminal voltage of a loaded cell is the open-circuit voltage minus
//! the ohmic drop over the series resistance `R0` and the polarization
//! voltage over one RC pair:
//!
//! ```text
//! V_term = OCV(SoC) - I * R0(T) - V_rc
//! dV_rc/dt = (I * R_rc - V_rc) / tau
//! ```
//!
//! The instantaneous `I * R0` drop followed by the slower RC transient is
//! exactly the sharp edge of the V-edge phenomenon (Fig. 3); the partial
//! recovery comes from the KiBaM available-well head feeding the OCV term.

use crate::error::BatteryError;

/// Reference temperature for the resistance model, degrees Celsius.
pub const REFERENCE_TEMP_C: f64 = 25.0;

/// A series resistance plus single-RC-pair polarization model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thevenin {
    r0: f64,
    rc_r: f64,
    tau: f64,
    v_rc: f64,
}

impl Thevenin {
    /// Fractional change of `R0` per Kelvin below the reference
    /// temperature (cold cells are more resistive).
    const COLD_COEFF_PER_K: f64 = 0.015;
    /// Fractional change of `R0` per Kelvin above the reference
    /// temperature (warm electrolytes conduct slightly better).
    const WARM_COEFF_PER_K: f64 = 0.004;
    /// Lower clamp on the temperature scaling of `R0`.
    const MIN_SCALE: f64 = 0.6;
    /// Upper clamp on the temperature scaling of `R0`.
    const MAX_SCALE: f64 = 3.0;

    /// Create a relaxed (zero polarization) circuit.
    ///
    /// # Errors
    ///
    /// Returns an error if any of `r0_ohm`, `rc_r_ohm`, `rc_tau_s` is not
    /// positive.
    pub fn new(r0_ohm: f64, rc_r_ohm: f64, rc_tau_s: f64) -> Result<Self, BatteryError> {
        for (name, value) in [
            ("r0_ohm", r0_ohm),
            ("rc_r_ohm", rc_r_ohm),
            ("rc_tau_s", rc_tau_s),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(BatteryError::InvalidParameter { name, value });
            }
        }
        Ok(Thevenin {
            r0: r0_ohm,
            rc_r: rc_r_ohm,
            tau: rc_tau_s,
            v_rc: 0.0,
        })
    }

    /// The series resistance at `temp_c`, in ohms.
    pub fn r0_at(&self, temp_c: f64) -> f64 {
        let dt = temp_c - REFERENCE_TEMP_C;
        let scale = if dt < 0.0 {
            1.0 - dt * Self::COLD_COEFF_PER_K // dt negative => scale > 1
        } else {
            1.0 - dt * Self::WARM_COEFF_PER_K
        };
        self.r0 * scale.clamp(Self::MIN_SCALE, Self::MAX_SCALE)
    }

    /// Effective total resistance seen by a *sustained* load: `R0 + R_rc`.
    pub fn steady_resistance(&self, temp_c: f64) -> f64 {
        self.r0_at(temp_c) + self.rc_r
    }

    /// Terminal voltage for the given OCV, load current and temperature,
    /// using the current polarization state.
    pub fn terminal_voltage(&self, ocv: f64, current_a: f64, temp_c: f64) -> f64 {
        ocv - current_a * self.r0_at(temp_c) - self.v_rc
    }

    /// Advance the polarization state by `dt` seconds at `current_a`.
    ///
    /// Uses the exact exponential solution of the first-order RC dynamics,
    /// so any step size is stable.
    pub fn step(&mut self, current_a: f64, dt: f64) {
        let target = current_a * self.rc_r;
        let alpha = (-dt / self.tau).exp();
        self.v_rc = target + (self.v_rc - target) * alpha;
    }

    /// The present polarization voltage, volts.
    pub fn polarization_v(&self) -> f64 {
        self.v_rc
    }

    /// Ohmic heat dissipated at `current_a`, watts: `I^2 R0 + V_rc I`.
    pub fn heat_w(&self, current_a: f64, temp_c: f64) -> f64 {
        current_a * current_a * self.r0_at(temp_c) + self.v_rc.abs() * current_a
    }

    /// Reset the polarization state (e.g. after a long rest).
    pub fn relax(&mut self) {
        self.v_rc = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit() -> Thevenin {
        Thevenin::new(0.030, 0.015, 6.0).expect("valid")
    }

    #[test]
    fn instant_drop_is_ohmic_only() {
        let c = circuit();
        let v = c.terminal_voltage(3.7, 2.0, REFERENCE_TEMP_C);
        assert!((v - (3.7 - 2.0 * 0.030)).abs() < 1e-12);
    }

    #[test]
    fn polarization_converges_to_ir() {
        let mut c = circuit();
        for _ in 0..1000 {
            c.step(2.0, 1.0);
        }
        assert!((c.polarization_v() - 2.0 * 0.015).abs() < 1e-6);
    }

    #[test]
    fn polarization_decays_at_rest() {
        let mut c = circuit();
        c.step(5.0, 60.0);
        let loaded = c.polarization_v();
        assert!(loaded > 0.0);
        c.step(0.0, 60.0);
        assert!(c.polarization_v() < loaded * 0.01);
    }

    #[test]
    fn cold_increases_resistance_warm_decreases() {
        let c = circuit();
        assert!(c.r0_at(0.0) > c.r0_at(25.0));
        assert!(c.r0_at(45.0) < c.r0_at(25.0));
        assert!(c.r0_at(-200.0) <= 0.030 * 3.0 + 1e-12);
        assert!(c.r0_at(500.0) >= 0.030 * 0.6 - 1e-12);
    }

    #[test]
    fn heat_grows_quadratically_with_current() {
        let c = circuit();
        let h1 = c.heat_w(1.0, 25.0);
        let h4 = c.heat_w(2.0, 25.0);
        assert!((h4 / h1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exact_step_is_stable_for_huge_dt() {
        let mut c = circuit();
        c.step(3.0, 1e9);
        assert!((c.polarization_v() - 3.0 * 0.015).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Thevenin::new(0.0, 0.1, 1.0).is_err());
        assert!(Thevenin::new(0.1, -0.1, 1.0).is_err());
        assert!(Thevenin::new(0.1, 0.1, 0.0).is_err());
    }

    #[test]
    fn relax_clears_polarization() {
        let mut c = circuit();
        c.step(4.0, 100.0);
        c.relax();
        assert_eq!(c.polarization_v(), 0.0);
    }
}
