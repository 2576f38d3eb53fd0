//! A complete simulated lithium cell.
//!
//! [`Cell`] combines the KiBaM charge kinetics, the per-chemistry OCV
//! curve and the Thevenin circuit into a single power-demand interface:
//! the device asks for watts, the cell answers with the watts it could
//! actually deliver, the current drawn, the terminal voltage and the heat
//! it dissipated. All of CAPMAN's battery-side effects — rate-capacity
//! losses, recovery, V-edge, voltage collapse under surges, thermal
//! leakage — emerge from this model.

use crate::chemistry::{Chemistry, Class, ElectricalParams};
use crate::error::BatteryError;
use crate::kibam::Kibam;
use crate::ocv::OcvCurve;
use crate::thevenin::Thevenin;

/// Reference capacity at which [`ElectricalParams::r0_ohm`] is quoted, Ah.
const REFERENCE_CAPACITY_AH: f64 = 2.5;

/// Below this total state of charge a cell is permanently exhausted.
const EXHAUSTION_SOC: f64 = 0.005;

/// A simulated lithium-ion cell of a given chemistry and capacity.
///
/// # Examples
///
/// ```
/// use capman_battery::cell::Cell;
/// use capman_battery::chemistry::Chemistry;
///
/// let mut cell = Cell::new(Chemistry::Nca, 2.5);
/// let step = cell.step(1.0, 60.0, 25.0); // 1 W for a minute
/// assert!(step.delivered_j > 0.0);
/// assert!(cell.soc() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    chemistry: Chemistry,
    capacity_ah: f64,
    params: ElectricalParams,
    kibam: Kibam,
    circuit: Thevenin,
    ocv: OcvCurve,
    delivered_j: f64,
    heat_j: f64,
    exhausted: bool,
}

/// Telemetry for one simulation step of a [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStep {
    /// Power actually delivered to the load this step, watts.
    pub delivered_w: f64,
    /// Energy actually delivered this step, joules.
    pub delivered_j: f64,
    /// Current drawn from the cell, amperes.
    pub current_a: f64,
    /// Terminal voltage under load at the end of the step, volts.
    pub voltage_v: f64,
    /// Heat dissipated inside the cell this step, watts (average).
    pub heat_w: f64,
    /// The terminal voltage sagged below the chemistry cut-off: the demand
    /// was not (fully) met. A rested cell can recover from a brownout.
    pub brownout: bool,
    /// The KiBaM available well ran dry during the step.
    pub starved: bool,
}

impl CellStep {
    /// A step in which nothing could be delivered (dead or idle cell).
    fn empty(voltage_v: f64) -> Self {
        CellStep {
            delivered_w: 0.0,
            delivered_j: 0.0,
            current_a: 0.0,
            voltage_v,
            heat_w: 0.0,
            brownout: false,
            starved: false,
        }
    }
}

impl Cell {
    /// Build a fully charged cell.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_ah` is not positive. Use [`Cell::try_new`] for a
    /// fallible constructor.
    pub fn new(chemistry: Chemistry, capacity_ah: f64) -> Self {
        Cell::try_new(chemistry, capacity_ah).expect("valid cell parameters")
    }

    /// Build a fully charged cell, checking parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if `capacity_ah` is not positive.
    pub fn try_new(chemistry: Chemistry, capacity_ah: f64) -> Result<Self, BatteryError> {
        if !capacity_ah.is_finite() || capacity_ah <= 0.0 {
            return Err(BatteryError::NonPositiveCapacity(capacity_ah));
        }
        let params = chemistry.electrical();
        // Larger cells have proportionally more parallel electrode area,
        // hence lower resistance.
        let scale = REFERENCE_CAPACITY_AH / capacity_ah;
        let kibam = Kibam::new(capacity_ah * 3600.0, params.kibam_c, params.kibam_k)?;
        let circuit = Thevenin::new(
            params.r0_ohm * scale,
            params.rc_r_ohm * scale,
            params.rc_tau_s,
        )?;
        Ok(Cell {
            chemistry,
            capacity_ah,
            params,
            kibam,
            circuit,
            ocv: OcvCurve::for_chemistry(chemistry),
            delivered_j: 0.0,
            heat_j: 0.0,
            exhausted: false,
        })
    }

    /// Draw `demand_w` watts for `dt` seconds at cell temperature `temp_c`.
    ///
    /// Solves the load current from `P = V * I` with `V = E - I * R0`,
    /// applies the chemistry's maximum C-rate, drains the KiBaM wells
    /// (including temperature-dependent self-discharge), and advances the
    /// polarization state. A demand of `0.0` lets the cell rest and
    /// recover.
    ///
    /// # Panics
    ///
    /// Panics if `demand_w` is negative or `dt` is not positive.
    pub fn step(&mut self, demand_w: f64, dt: f64, temp_c: f64) -> CellStep {
        assert!(demand_w >= 0.0, "power demand must be non-negative");
        assert!(dt > 0.0, "step duration must be positive");

        if self.exhausted {
            return CellStep::empty(0.0);
        }

        // Source EMF: OCV of the total charge, pulled down by the
        // concentration overpotential (depleted available well) and the
        // standing polarization voltage.
        let emf = self.emf();

        let r0 = self.circuit.r0_at(temp_c);
        let i_limit = self.params.max_c_rate * self.capacity_ah;

        // Solve E*I - R*I^2 = P for the smaller root; collapse to the
        // maximum-power point when the demand is unreachable.
        let (mut current, mut brownout) = if demand_w == 0.0 {
            (0.0, false)
        } else {
            let disc = emf * emf - 4.0 * r0 * demand_w;
            if disc >= 0.0 {
                ((emf - disc.sqrt()) / (2.0 * r0), false)
            } else {
                (emf / (2.0 * r0), true)
            }
        };
        if current > i_limit {
            current = i_limit;
            brownout = true;
        }

        let mut voltage = emf - current * r0;
        if voltage < self.params.cutoff_v && current > 0.0 {
            // Sagged below cut-off: the protection circuit limits current
            // to what keeps the terminal at the cut-off voltage.
            current = ((emf - self.params.cutoff_v) / r0).max(0.0);
            voltage = self.params.cutoff_v;
            brownout = true;
        }

        // Self-discharge grows exponentially with temperature (Arrhenius,
        // doubling every 10 K): hot, uncooled batteries waste energy. This
        // is the thermal-coupling term that makes TEC cooling pay off.
        let leak_w =
            self.params.leak_ref_w_per_ah * self.capacity_ah * ((temp_c - 25.0) / 10.0).exp2();
        let leak_a = if emf > 0.0 { leak_w / emf } else { 0.0 };

        let draw = self
            .kibam
            .draw(current + leak_a, dt)
            .expect("validated current and dt");
        let starved = draw.starved;
        // Fraction of the requested charge actually supplied.
        let served = if current + leak_a > 0.0 {
            draw.delivered_c / ((current + leak_a) * dt)
        } else {
            1.0
        };
        let actual_current = current * served;
        let delivered_w = voltage * actual_current;
        let delivered_j = delivered_w * dt;

        self.circuit.step(actual_current, dt);
        let heat_w = self.circuit.heat_w(actual_current, temp_c) + leak_w * served;

        self.delivered_j += delivered_j;
        self.heat_j += heat_w * dt;
        if self.kibam.total_soc() <= EXHAUSTION_SOC {
            self.exhausted = true;
        }

        CellStep {
            delivered_w,
            delivered_j,
            current_a: actual_current,
            voltage_v: voltage,
            heat_w,
            brownout: brownout || served < 0.999,
            starved,
        }
    }

    /// Let the cell rest (recover) for `dt` seconds at `temp_c`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn rest(&mut self, dt: f64, temp_c: f64) -> CellStep {
        self.step(0.0, dt, temp_c)
    }

    /// Charge the cell with `current_a` amperes for `dt` seconds.
    ///
    /// Returns the charge actually accepted in coulombs (zero once
    /// full). Charging lifts a permanently exhausted cell back into
    /// service and dissipates `I^2 R0` as heat.
    ///
    /// # Panics
    ///
    /// Panics if `current_a` is negative or `dt` is not positive.
    pub fn charge(&mut self, current_a: f64, dt: f64, temp_c: f64) -> f64 {
        assert!(current_a >= 0.0, "charge current must be non-negative");
        assert!(dt > 0.0, "dt must be positive");
        let accepted = self
            .kibam
            .charge(current_a, dt)
            .expect("validated current and dt");
        self.circuit.step(0.0, dt);
        self.heat_j += current_a * current_a * self.circuit.r0_at(temp_c) * dt;
        if self.kibam.total_soc() > EXHAUSTION_SOC * 2.0 {
            self.exhausted = false;
        }
        accepted
    }

    /// The present source EMF (open-circuit voltage minus concentration
    /// sag and polarization), volts.
    ///
    /// The concentration overpotential grows *quadratically* with the
    /// well-head gap: shallow depletion of the available well is cheap,
    /// deep depletion (a sustained draw beyond the diffusion rate)
    /// collapses the terminal voltage — the nonlinearity behind the
    /// V-edge and the rate-dependent usable capacity.
    pub fn emf(&self) -> f64 {
        let ocv = self.ocv.voltage(self.kibam.total_soc());
        let sag_span = (self.params.nominal_v - self.params.cutoff_v) * self.params.sag_coeff;
        let gap = (self.kibam.h2() - self.kibam.h1()).max(0.0);
        let sag = sag_span * gap * gap;
        (ocv - sag - self.circuit.polarization_v()).max(0.0)
    }

    /// Terminal voltage the cell would show under `demand_w` right now.
    pub fn voltage_under(&self, demand_w: f64, temp_c: f64) -> f64 {
        let emf = self.emf();
        if demand_w <= 0.0 {
            return emf;
        }
        let r0 = self.circuit.r0_at(temp_c);
        let disc = emf * emf - 4.0 * r0 * demand_w;
        if disc >= 0.0 {
            let i = (emf - disc.sqrt()) / (2.0 * r0);
            emf - i * r0
        } else {
            emf / 2.0
        }
    }

    /// Total state of charge in `[0, 1]` (all wells).
    pub fn soc(&self) -> f64 {
        self.kibam.total_soc()
    }

    /// Head height of the immediately available charge in `[0, 1]`.
    pub fn available_head(&self) -> f64 {
        self.kibam.h1()
    }

    /// Whether the cell is permanently empty.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Whether the cell can serve load right now (not exhausted, not
    /// starved).
    pub fn is_usable(&self) -> bool {
        !self.exhausted && !self.kibam.is_starved()
    }

    /// The cell's chemistry.
    pub fn chemistry(&self) -> Chemistry {
        self.chemistry
    }

    /// The cell's big/LITTLE class.
    pub fn class(&self) -> Class {
        self.chemistry.class()
    }

    /// Rated capacity in ampere-hours.
    pub fn capacity_ah(&self) -> f64 {
        self.capacity_ah
    }

    /// Rated energy in joules (capacity times nominal voltage).
    pub fn rated_energy_j(&self) -> f64 {
        self.capacity_ah * 3600.0 * self.params.nominal_v
    }

    /// Cell volume in litres, from the chemistry's energy density.
    pub fn volume_l(&self) -> f64 {
        let wh = self.capacity_ah * self.params.nominal_v;
        wh / self.params.energy_density_wh_per_l
    }

    /// Total energy delivered to loads so far, joules.
    pub fn delivered_j(&self) -> f64 {
        self.delivered_j
    }

    /// Total heat dissipated so far, joules.
    pub fn heat_j(&self) -> f64 {
        self.heat_j
    }

    /// The maximum power the cell could deliver right now, watts.
    pub fn max_power_w(&self, temp_c: f64) -> f64 {
        let emf = self.emf();
        let r0 = self.circuit.r0_at(temp_c);
        let i_limit = self.params.max_c_rate * self.capacity_ah;
        let i_mp = (emf / (2.0 * r0)).min(i_limit);
        (emf - i_mp * r0) * i_mp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lmo() -> Cell {
        Cell::new(Chemistry::Lmo, 2.5)
    }

    fn nca() -> Cell {
        Cell::new(Chemistry::Nca, 2.5)
    }

    #[test]
    fn fresh_cell_is_full_and_usable() {
        let c = lmo();
        assert!((c.soc() - 1.0).abs() < 1e-9);
        assert!(c.is_usable());
        assert!(!c.is_exhausted());
        assert!(c.emf() > c.chemistry().electrical().nominal_v);
    }

    #[test]
    fn moderate_load_is_served_exactly() {
        let mut c = lmo();
        let s = c.step(2.0, 1.0, 25.0);
        assert!(!s.brownout);
        assert!((s.delivered_w - 2.0).abs() < 0.02, "got {}", s.delivered_w);
        assert!(s.current_a > 0.4 && s.current_a < 0.8);
        assert!(s.heat_w > 0.0);
    }

    #[test]
    fn impossible_demand_browns_out() {
        let mut c = lmo();
        let s = c.step(10_000.0, 1.0, 25.0);
        assert!(s.brownout);
        assert!(s.delivered_w < 10_000.0);
    }

    #[test]
    fn discharge_until_exhaustion_terminates() {
        let mut c = Cell::new(Chemistry::Lmo, 0.1);
        let mut steps = 0u32;
        while !c.is_exhausted() && steps < 2_000_000 {
            c.step(1.0, 1.0, 25.0);
            steps += 1;
        }
        assert!(c.is_exhausted(), "cell should eventually exhaust");
        // Exhausted cell delivers nothing.
        let s = c.step(1.0, 1.0, 25.0);
        assert_eq!(s.delivered_w, 0.0);
    }

    #[test]
    fn surge_yield_favors_little_chemistry() {
        // Drain both cells with a 12 W pulsed load; the LITTLE (LMO) cell
        // must deliver more total energy than the big (NCA) cell of the
        // same capacity. This is the Fig. 2(b) mechanism.
        let pulsed_yield = |mut c: Cell| -> f64 {
            for _ in 0..200_000 {
                c.step(12.0, 1.0, 25.0);
                c.rest(1.0, 25.0);
                if c.is_exhausted() {
                    break;
                }
            }
            c.delivered_j()
        };
        let little = pulsed_yield(lmo());
        let big = pulsed_yield(nca());
        assert!(
            little > big,
            "LMO should out-deliver NCA under surges: {little} vs {big}"
        );
    }

    #[test]
    fn gentle_yield_favors_big_chemistry() {
        // Under a light continuous load the big cell's higher stored
        // energy (same Ah, higher voltage plateau here both 3.7 — use the
        // loss channel) should make NCA at least competitive; its rated
        // energy must exceed its delivered deficit. We check the weaker,
        // robust property: NCA serves a 0.5 W load for a long time without
        // brownout.
        let mut c = nca();
        for _ in 0..3600 {
            let s = c.step(0.5, 1.0, 25.0);
            assert!(!s.brownout);
        }
        assert!(c.soc() < 1.0 && c.soc() > 0.9);
    }

    #[test]
    fn hot_cell_leaks_more() {
        let drain_idle = |temp: f64| -> f64 {
            let mut c = nca();
            for _ in 0..86_400 {
                c.rest(1.0, temp);
            }
            c.soc()
        };
        let cool = drain_idle(25.0);
        let hot = drain_idle(55.0);
        assert!(hot < cool, "hot idle cell should self-discharge faster");
    }

    #[test]
    fn rest_recovers_brownout() {
        let mut c = Cell::new(Chemistry::Nca, 0.5);
        // Hammer until brownout.
        let mut saw_brownout = false;
        for _ in 0..100_000 {
            let s = c.step(6.0, 1.0, 25.0);
            if s.brownout {
                saw_brownout = true;
                break;
            }
        }
        assert!(saw_brownout);
        let sagged_v = c.voltage_under(6.0, 25.0);
        for _ in 0..600 {
            c.rest(1.0, 25.0);
        }
        assert!(
            c.voltage_under(6.0, 25.0) > sagged_v,
            "rest should lift voltage"
        );
    }

    #[test]
    fn volume_reflects_energy_density() {
        let lmo = lmo();
        let nca = nca();
        assert!(nca.volume_l() < lmo.volume_l(), "big cell is denser");
    }

    #[test]
    fn max_power_is_positive_and_bounded() {
        let c = lmo();
        let p = c.max_power_w(25.0);
        assert!(p > 0.0);
        // Bounded by current limit times full voltage.
        let e = c.chemistry().electrical();
        assert!(p <= e.max_c_rate * c.capacity_ah() * c.emf());
    }

    #[test]
    fn try_new_rejects_bad_capacity() {
        assert!(Cell::try_new(Chemistry::Lmo, 0.0).is_err());
        assert!(Cell::try_new(Chemistry::Lmo, -2.0).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn step_panics_on_negative_demand() {
        lmo().step(-1.0, 1.0, 25.0);
    }
}
