//! CC-CV charging.
//!
//! The paper measures service per *discharge cycle* — "duration between
//! two device charges". This module closes the loop with the standard
//! constant-current / constant-voltage protocol used by phone chargers:
//! charge at a fixed C-rate until the terminal voltage reaches the
//! full-charge limit, then hold the voltage and let the current taper
//! until it falls below the termination threshold.

use crate::cell::Cell;
use crate::chemistry::Class;
use crate::pack::BatteryPack;

/// A CC-CV charger configuration.
///
/// # Examples
///
/// ```
/// use capman_battery::cell::Cell;
/// use capman_battery::charging::Charger;
/// use capman_battery::chemistry::Chemistry;
///
/// let mut cell = Cell::new(Chemistry::Lmo, 2.5);
/// cell.step(5.0, 600.0, 25.0); // drain a little
/// let report = Charger::default().charge_cell(&mut cell, 20_000.0);
/// assert!(report.final_soc > 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Charger {
    /// Constant-current phase rate, as a multiple of cell capacity
    /// (C-rate). Phone chargers typically run 0.5–1 C.
    pub cc_rate: f64,
    /// Constant-voltage phase limit, volts. Defaults to the chemistry's
    /// full-charge voltage when charging through [`Charger::charge_cell`].
    pub cv_limit_v: Option<f64>,
    /// Termination current as a fraction of the CC current.
    pub termination_fraction: f64,
}

impl Default for Charger {
    fn default() -> Self {
        Charger {
            cc_rate: 0.7,
            cv_limit_v: None,
            termination_fraction: 0.05,
        }
    }
}

/// Telemetry for one charging step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeStep {
    /// Charging current, amperes.
    pub current_a: f64,
    /// Terminal voltage during the step, volts.
    pub voltage_v: f64,
    /// Charge accepted, coulombs.
    pub accepted_c: f64,
    /// Whether the termination condition was met.
    pub done: bool,
    /// Which CC-CV phase the step ran in.
    pub phase: ChargePhase,
}

/// The CC-CV phase of a charging step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargePhase {
    /// Constant current (voltage rising).
    ConstantCurrent,
    /// Constant voltage (current tapering).
    ConstantVoltage,
}

/// Summary of a full charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeReport {
    /// Wall time to full, seconds.
    pub duration_s: f64,
    /// Total charge accepted, coulombs.
    pub accepted_c: f64,
    /// Final state of charge.
    pub final_soc: f64,
}

impl Charger {
    /// Advance one charging step on a cell.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step_cell(&self, cell: &mut Cell, dt: f64) -> ChargeStep {
        assert!(dt > 0.0, "dt must be positive");
        let params = cell.chemistry().electrical();
        let cv = self.cv_limit_v.unwrap_or(params.nominal_v * 1.12);
        let cc_current = self.cc_rate * cell.capacity_ah();
        // Terminal voltage while charging is EMF plus the ohmic rise.
        let emf = cell.emf();
        let r0 = 2.5 / cell.capacity_ah() * params.r0_ohm;
        let (current, phase) = if emf + cc_current * r0 < cv {
            (cc_current, ChargePhase::ConstantCurrent)
        } else {
            // Hold the terminal at the CV limit: I = (CV - EMF) / R0.
            (((cv - emf) / r0).max(0.0), ChargePhase::ConstantVoltage)
        };
        let accepted = cell.charge(current, dt, 25.0);
        let done = phase == ChargePhase::ConstantVoltage
            && current <= cc_current * self.termination_fraction;
        ChargeStep {
            current_a: current,
            voltage_v: (emf + current * r0).min(cv),
            accepted_c: accepted,
            done,
            phase,
        }
    }

    /// Charge a cell to full (or until `max_s` elapses), returning the
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `max_s` is not positive.
    pub fn charge_cell(&self, cell: &mut Cell, max_s: f64) -> ChargeReport {
        assert!(max_s > 0.0, "time budget must be positive");
        let dt = 10.0;
        let mut t = 0.0;
        let mut accepted = 0.0;
        while t < max_s {
            let step = self.step_cell(cell, dt);
            accepted += step.accepted_c;
            t += dt;
            if step.done {
                break;
            }
        }
        ChargeReport {
            duration_s: t,
            accepted_c: accepted,
            final_soc: cell.soc(),
        }
    }

    /// Charge both cells of a pack (the phone charges them in sequence
    /// through the switch facility: LITTLE first so the surge cell is
    /// ready soonest).
    pub fn charge_pack(&self, pack: &mut BatteryPack, max_s: f64) -> ChargeReport {
        let mut total = ChargeReport {
            duration_s: 0.0,
            accepted_c: 0.0,
            final_soc: 0.0,
        };
        for class in [Class::Little, Class::Big] {
            if let Some(cell) = pack.cell_mut(class) {
                let r = self.charge_cell(cell, max_s);
                total.duration_s += r.duration_s;
                total.accepted_c += r.accepted_c;
            }
        }
        total.final_soc = pack.soc();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chemistry::Chemistry;

    fn drained(chem: Chemistry) -> Cell {
        let mut cell = Cell::new(chem, 2.5);
        // Pull out roughly half the charge.
        for _ in 0..3000 {
            cell.step(2.0, 1.0, 25.0);
        }
        cell
    }

    #[test]
    fn charging_raises_soc_to_near_full() {
        let mut cell = drained(Chemistry::Lmo);
        let before = cell.soc();
        let report = Charger::default().charge_cell(&mut cell, 50_000.0);
        assert!(cell.soc() > before);
        assert!(
            report.final_soc > 0.95,
            "should reach near-full, got {}",
            report.final_soc
        );
        assert!(report.accepted_c > 0.0);
    }

    #[test]
    fn cc_phase_precedes_cv_phase() {
        let mut cell = drained(Chemistry::Lmo);
        let charger = Charger::default();
        let first = charger.step_cell(&mut cell, 10.0);
        assert_eq!(first.phase, ChargePhase::ConstantCurrent);
        // Push to full: eventually the CV phase engages and tapers.
        let mut saw_cv = false;
        for _ in 0..10_000 {
            let s = charger.step_cell(&mut cell, 10.0);
            if s.phase == ChargePhase::ConstantVoltage {
                saw_cv = true;
                assert!(s.current_a <= charger.cc_rate * cell.capacity_ah() + 1e-9);
            }
            if s.done {
                break;
            }
        }
        assert!(saw_cv, "the CV phase must engage near full");
    }

    #[test]
    fn current_tapers_in_cv_phase() {
        let mut cell = drained(Chemistry::Nca);
        let charger = Charger::default();
        let mut last_cv_current = f64::INFINITY;
        for _ in 0..20_000 {
            let s = charger.step_cell(&mut cell, 10.0);
            if s.phase == ChargePhase::ConstantVoltage {
                assert!(s.current_a <= last_cv_current + 0.05);
                last_cv_current = s.current_a;
            }
            if s.done {
                break;
            }
        }
        assert!(last_cv_current < charger.cc_rate * 2.5);
    }

    #[test]
    fn charging_a_full_cell_terminates_quickly() {
        let mut cell = Cell::new(Chemistry::Lmo, 2.5);
        let report = Charger::default().charge_cell(&mut cell, 50_000.0);
        assert!(
            report.duration_s < 2000.0,
            "already full: {} s",
            report.duration_s
        );
    }

    #[test]
    fn pack_charge_fills_both_cells() {
        let mut pack = BatteryPack::paper_prototype();
        for _ in 0..2000 {
            pack.step(2.0, 1.0, 25.0);
        }
        pack.select(Class::Little);
        for _ in 0..2000 {
            pack.step(2.0, 1.0, 25.0);
        }
        let report = Charger::default().charge_pack(&mut pack, 50_000.0);
        assert!(report.final_soc > 0.9, "pack soc {}", report.final_soc);
        assert!(pack.big().soc() > 0.9);
        assert!(pack.little().expect("dual").soc() > 0.9);
    }

    #[test]
    fn faster_chargers_finish_sooner() {
        let slow = Charger {
            cc_rate: 0.3,
            ..Charger::default()
        };
        let fast = Charger {
            cc_rate: 1.0,
            ..Charger::default()
        };
        let t_slow = slow
            .charge_cell(&mut drained(Chemistry::Lmo), 100_000.0)
            .duration_s;
        let t_fast = fast
            .charge_cell(&mut drained(Chemistry::Lmo), 100_000.0)
            .duration_s;
        assert!(t_fast < t_slow, "fast {t_fast} vs slow {t_slow}");
    }
}
