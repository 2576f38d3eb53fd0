//! The big.LITTLE battery pack (Fig. 10).
//!
//! A [`BatteryPack`] holds a *big* cell (high energy density) and a
//! *LITTLE* cell (high discharge rate) behind the switch facility. At any
//! instant exactly one cell carries the load; the other rests and
//! recovers. The pack accounts per-cell activation time (needed for
//! Fig. 14's big/LITTLE ratio), switching costs, and the supercapacitor
//! filter in front of the LITTLE cell.
//!
//! A pack can also be built with a single cell ([`BatteryPack::single`])
//! to model the paper's *Practice* baseline — one battery with the same
//! total capacity.

use crate::cell::Cell;
use crate::chemistry::{Chemistry, Class};
use crate::supercap::Supercap;
use crate::switch::{SwitchConfig, SwitchFacility};

/// Configuration for building a dual-cell pack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackConfig {
    /// Chemistry of the big cell.
    pub big_chemistry: Chemistry,
    /// Chemistry of the LITTLE cell.
    pub little_chemistry: Chemistry,
    /// Capacity of the big cell, ampere-hours.
    pub big_capacity_ah: f64,
    /// Capacity of the LITTLE cell, ampere-hours.
    pub little_capacity_ah: f64,
    /// Switch facility configuration.
    pub switch: SwitchConfig,
    /// Whether the LITTLE cell output is filtered by a supercapacitor.
    pub supercap: bool,
}

impl PackConfig {
    /// The paper's prototype: NCA big + LMO LITTLE, 2500 mAh each,
    /// supercapacitor installed.
    pub fn paper_prototype() -> Self {
        PackConfig {
            big_chemistry: Chemistry::Nca,
            little_chemistry: Chemistry::Lmo,
            big_capacity_ah: 2.5,
            little_capacity_ah: 2.5,
            switch: SwitchConfig::default(),
            supercap: true,
        }
    }
}

/// Telemetry for one simulation step of a [`BatteryPack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackStep {
    /// Power delivered to the load, watts.
    pub delivered_w: f64,
    /// Demand the pack failed to serve, watts.
    pub shortfall_w: f64,
    /// Heat dissipated inside the pack (cell + switch + filter), watts.
    pub heat_w: f64,
    /// Terminal voltage of the active cell, volts.
    pub voltage_v: f64,
    /// Current drawn from the active cell, amperes.
    pub current_a: f64,
    /// The cell that carried the load this step.
    pub active: Class,
    /// Whether the active cell browned out (voltage sag / starvation).
    pub brownout: bool,
}

/// A big.LITTLE battery pack behind a switch facility.
///
/// # Examples
///
/// ```
/// use capman_battery::pack::BatteryPack;
/// use capman_battery::chemistry::Class;
///
/// let mut pack = BatteryPack::paper_prototype();
/// pack.select(Class::Little);           // route the surge to LITTLE
/// let step = pack.step(3.0, 1.0, 25.0); // 3 W for one second
/// assert_eq!(step.active, Class::Little);
/// assert!(step.delivered_w > 2.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryPack {
    big: Cell,
    little: Option<Cell>,
    switch: SwitchFacility,
    supercap: Option<Supercap>,
    time_s: f64,
    active_s: [f64; 2],
    switch_heat_pending_j: f64,
}

impl BatteryPack {
    /// Build a dual-cell pack from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is not positive or if the chemistries'
    /// classes are inverted (the big slot must hold a big-class chemistry
    /// and vice versa).
    pub fn dual(config: PackConfig) -> Self {
        assert_eq!(
            config.big_chemistry.class(),
            Class::Big,
            "big slot requires a big-class chemistry"
        );
        assert_eq!(
            config.little_chemistry.class(),
            Class::Little,
            "LITTLE slot requires a LITTLE-class chemistry"
        );
        BatteryPack {
            big: Cell::new(config.big_chemistry, config.big_capacity_ah),
            little: Some(Cell::new(
                config.little_chemistry,
                config.little_capacity_ah,
            )),
            switch: SwitchFacility::new(config.switch),
            supercap: config.supercap.then(Supercap::prototype),
            time_s: 0.0,
            active_s: [0.0; 2],
            switch_heat_pending_j: 0.0,
        }
    }

    /// Build a single-cell pack (the *Practice* baseline): one cell of the
    /// given chemistry and capacity, no switch, no filter.
    pub fn single(chemistry: Chemistry, capacity_ah: f64) -> Self {
        BatteryPack {
            big: Cell::new(chemistry, capacity_ah),
            little: None,
            switch: SwitchFacility::new(SwitchConfig::default()),
            supercap: None,
            time_s: 0.0,
            active_s: [0.0; 2],
            switch_heat_pending_j: 0.0,
        }
    }

    /// The paper's prototype pack.
    pub fn paper_prototype() -> Self {
        BatteryPack::dual(PackConfig::paper_prototype())
    }

    /// Request that `target` carry the load from now on.
    ///
    /// Returns `true` if a switch actually happened. On a single-cell pack
    /// this is always `false`. The flip's energy cost is dissipated as
    /// heat on the next step.
    pub fn select(&mut self, target: Class) -> bool {
        if self.little.is_none() {
            return false;
        }
        match self.switch.switch_to(target, self.time_s) {
            Some(event) => {
                self.switch_heat_pending_j += event.heat_j;
                true
            }
            None => false,
        }
    }

    /// The cell currently selected to carry the load.
    pub fn active(&self) -> Class {
        if self.little.is_none() {
            Class::Big
        } else {
            self.switch.active()
        }
    }

    /// Advance the pack by `dt` seconds under `demand_w` watts at cell
    /// temperature `temp_c`.
    ///
    /// The active cell serves the (possibly supercap-filtered) demand; the
    /// inactive cell rests and recovers.
    ///
    /// # Panics
    ///
    /// Panics if `demand_w` is negative or `dt` is not positive.
    pub fn step(&mut self, demand_w: f64, dt: f64, temp_c: f64) -> PackStep {
        assert!(demand_w >= 0.0, "demand must be non-negative");
        assert!(dt > 0.0, "dt must be positive");
        let active = self.active();
        self.time_s += dt;
        match active {
            Class::Big => self.active_s[0] += dt,
            Class::Little => self.active_s[1] += dt,
        }

        // The supercapacitor only filters the LITTLE cell's output.
        let (cell_demand, mut filter_loss_w, mut filter_shortfall_w) = match &mut self.supercap {
            Some(cap) if active == Class::Little => {
                let f = cap.filter(demand_w, dt);
                (f.battery_demand_w, f.loss_j / dt, f.shortfall_w)
            }
            _ => (demand_w, 0.0, 0.0),
        };

        let (active_step, rest_heat_w) = {
            let (active_cell, resting_cell) = match (active, self.little.as_mut()) {
                (Class::Little, Some(little)) => (little, Some(&mut self.big)),
                (_, little) => (&mut self.big, little),
            };
            let s = active_cell.step(cell_demand, dt, temp_c);
            let rest_heat = match resting_cell {
                Some(cell) => cell.rest(dt, temp_c).heat_w,
                None => 0.0,
            };
            (s, rest_heat)
        };

        // A brownout on the raw cell shows up as a shortfall on the load.
        let served_w = if active == Class::Little && self.supercap.is_some() {
            // The filter decouples the load from the cell: the load got
            // demand minus the filter shortfall (plus the cell's own
            // shortfall propagated through).
            let cell_gap = (cell_demand - active_step.delivered_w).max(0.0);
            filter_shortfall_w += cell_gap;
            filter_loss_w = filter_loss_w.max(0.0);
            (demand_w - filter_shortfall_w).max(0.0)
        } else {
            active_step.delivered_w.min(demand_w)
        };

        let switch_heat_w = self.switch_heat_pending_j / dt;
        self.switch_heat_pending_j = 0.0;

        PackStep {
            delivered_w: served_w,
            shortfall_w: (demand_w - served_w).max(0.0),
            heat_w: active_step.heat_w + rest_heat_w + switch_heat_w + filter_loss_w,
            voltage_v: active_step.voltage_v,
            current_a: active_step.current_a,
            active,
            brownout: active_step.brownout,
        }
    }

    /// The big cell.
    pub fn big(&self) -> &Cell {
        &self.big
    }

    /// The LITTLE cell, if this is a dual pack.
    pub fn little(&self) -> Option<&Cell> {
        self.little.as_ref()
    }

    /// The cell of the given class, if present.
    pub fn cell(&self, class: Class) -> Option<&Cell> {
        match class {
            Class::Big => Some(&self.big),
            Class::Little => self.little.as_ref(),
        }
    }

    /// Mutable access to the cell of the given class (used by the
    /// charger between discharge cycles).
    pub fn cell_mut(&mut self, class: Class) -> Option<&mut Cell> {
        match class {
            Class::Big => Some(&mut self.big),
            Class::Little => self.little.as_mut(),
        }
    }

    /// Combined state of charge, weighted by rated capacity.
    pub fn soc(&self) -> f64 {
        let mut charge = self.big.soc() * self.big.capacity_ah();
        let mut capacity = self.big.capacity_ah();
        if let Some(little) = &self.little {
            charge += little.soc() * little.capacity_ah();
            capacity += little.capacity_ah();
        }
        charge / capacity
    }

    /// Whether every cell in the pack is permanently exhausted.
    pub fn is_depleted(&self) -> bool {
        self.big.is_exhausted() && self.little.as_ref().map(Cell::is_exhausted).unwrap_or(true)
    }

    /// Whether any cell can serve load right now.
    pub fn any_usable(&self) -> bool {
        self.big.is_usable() || self.little.as_ref().map(Cell::is_usable).unwrap_or(false)
    }

    /// Total rated capacity, ampere-hours.
    pub fn capacity_ah(&self) -> f64 {
        self.big.capacity_ah() + self.little.as_ref().map(Cell::capacity_ah).unwrap_or(0.0)
    }

    /// Seconds the big cell has carried the load.
    pub fn big_active_s(&self) -> f64 {
        self.active_s[0]
    }

    /// Seconds the LITTLE cell has carried the load.
    pub fn little_active_s(&self) -> f64 {
        self.active_s[1]
    }

    /// Ratio of big to LITTLE activation time (Fig. 14's x-axis).
    /// Returns `None` until the LITTLE cell has been active at all.
    pub fn big_little_ratio(&self) -> Option<f64> {
        if self.active_s[1] > 0.0 {
            Some(self.active_s[0] / self.active_s[1])
        } else {
            None
        }
    }

    /// Number of battery switches performed.
    pub fn switch_count(&self) -> u64 {
        self.switch.flips()
    }

    /// The switch facility (for signal inspection, Fig. 9).
    pub fn switch_facility(&self) -> &SwitchFacility {
        &self.switch
    }

    /// Elapsed pack time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_pack_starts_on_big() {
        let p = BatteryPack::paper_prototype();
        assert_eq!(p.active(), Class::Big);
        assert!((p.soc() - 1.0).abs() < 1e-9);
        assert_eq!(p.capacity_ah(), 5.0);
    }

    #[test]
    fn select_switches_and_counts() {
        let mut p = BatteryPack::paper_prototype();
        assert!(p.select(Class::Little));
        assert!(!p.select(Class::Little), "already active");
        assert_eq!(p.active(), Class::Little);
        assert_eq!(p.switch_count(), 1);
    }

    #[test]
    fn single_pack_never_switches() {
        let mut p = BatteryPack::single(Chemistry::Nca, 5.0);
        assert!(!p.select(Class::Little));
        assert_eq!(p.active(), Class::Big);
        assert_eq!(p.switch_count(), 0);
    }

    #[test]
    fn step_drains_only_active_cell_charge() {
        let mut p = BatteryPack::paper_prototype();
        for _ in 0..60 {
            p.step(2.0, 1.0, 25.0);
        }
        assert!(p.big().soc() < 1.0);
        // LITTLE only self-discharges (small in one minute).
        assert!(p.little().expect("dual").soc() > 0.999);
    }

    #[test]
    fn activation_time_accounting() {
        let mut p = BatteryPack::paper_prototype();
        for _ in 0..10 {
            p.step(1.0, 1.0, 25.0);
        }
        p.select(Class::Little);
        for _ in 0..5 {
            p.step(1.0, 1.0, 25.0);
        }
        assert!((p.big_active_s() - 10.0).abs() < 1e-9);
        assert!((p.little_active_s() - 5.0).abs() < 1e-9);
        assert!((p.big_little_ratio().expect("ratio") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn switch_heat_lands_on_next_step() {
        let mut p = BatteryPack::dual(PackConfig {
            supercap: false,
            ..PackConfig::paper_prototype()
        });
        let base = p.step(1.0, 1.0, 25.0).heat_w;
        p.select(Class::Little);
        let with_flip = p.step(1.0, 1.0, 25.0).heat_w;
        assert!(
            with_flip > base,
            "flip heat should appear: {with_flip} vs {base}"
        );
    }

    #[test]
    fn resting_cell_recovers_while_other_serves() {
        let mut p = BatteryPack::dual(PackConfig {
            supercap: false,
            ..PackConfig::paper_prototype()
        });
        p.select(Class::Little);
        // Hammer the LITTLE cell.
        for _ in 0..300 {
            p.step(8.0, 1.0, 25.0);
        }
        let little_head = p.little().expect("dual").available_head();
        // Serve from big; LITTLE should recover.
        p.select(Class::Big);
        for _ in 0..300 {
            p.step(1.0, 1.0, 25.0);
        }
        assert!(p.little().expect("dual").available_head() > little_head);
    }

    #[test]
    fn depletion_is_detected() {
        let mut p = BatteryPack::single(Chemistry::Lmo, 0.05);
        for _ in 0..1_000_000 {
            p.step(2.0, 1.0, 25.0);
            if p.is_depleted() {
                break;
            }
        }
        assert!(p.is_depleted());
        assert!(!p.any_usable());
        let s = p.step(2.0, 1.0, 25.0);
        assert_eq!(s.delivered_w, 0.0);
        assert!(s.shortfall_w > 0.0);
    }

    #[test]
    #[should_panic(expected = "big slot")]
    fn rejects_little_chemistry_in_big_slot() {
        let _ = BatteryPack::dual(PackConfig {
            big_chemistry: Chemistry::Lmo,
            ..PackConfig::paper_prototype()
        });
    }
}
