//! Generalized N-cell packs — the paper's "fully mixed battery pack".
//!
//! Section II notes that "a fully mixed battery pack is complex to
//! schedule yet hard to reason about", which is why the paper's
//! design settles on exactly two cells. This module implements the
//! general pack so the claim can be explored: any number of cells of
//! any chemistry behind one switch, with the same per-flip costs, plus
//! a greedy marginal-efficiency selector that generalises the
//! big.LITTLE routing rule ("serve the demand from the cell that loses
//! the least on it, biased toward balanced depletion").

use crate::cell::{Cell, CellStep};
use crate::switch::SwitchConfig;

/// Telemetry for one simulation step of a [`MultiPack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiStep {
    /// Index of the cell that served.
    pub active: usize,
    /// The serving cell's step.
    pub cell: CellStep,
    /// Demand not served, watts.
    pub shortfall_w: f64,
    /// Total heat this step (cell + switch), watts.
    pub heat_w: f64,
}

/// An N-cell battery pack behind one switch facility.
///
/// # Examples
///
/// ```
/// use capman_battery::cell::Cell;
/// use capman_battery::chemistry::Chemistry;
/// use capman_battery::multi::MultiPack;
///
/// let mut pack = MultiPack::new(vec![
///     Cell::new(Chemistry::Nca, 2.0),
///     Cell::new(Chemistry::Lmo, 2.0),
///     Cell::new(Chemistry::Lto, 1.0),
/// ]);
/// let choice = pack.greedy_choice(6.0, 25.0); // a surge
/// pack.select(choice);
/// let step = pack.step(6.0, 1.0, 25.0);
/// assert!(step.cell.delivered_w > 5.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPack {
    cells: Vec<Cell>,
    active: usize,
    switch: SwitchConfig,
    flips: u64,
    pending_heat_j: f64,
    active_s: Vec<f64>,
}

impl MultiPack {
    /// Build a pack from cells; the first cell starts active.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    pub fn new(cells: Vec<Cell>) -> Self {
        assert!(!cells.is_empty(), "a pack needs at least one cell");
        let n = cells.len();
        MultiPack {
            cells,
            active: 0,
            switch: SwitchConfig::default(),
            flips: 0,
            pending_heat_j: 0.0,
            active_s: vec![0.0; n],
        }
    }

    /// Select the serving cell. Returns `true` when a flip happened
    /// (its energy cost lands as heat on the next step).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn select(&mut self, idx: usize) -> bool {
        assert!(idx < self.cells.len(), "cell index out of range");
        if idx == self.active {
            return false;
        }
        self.active = idx;
        self.flips += 1;
        self.pending_heat_j += self.switch.flip_energy_j * self.switch.heat_fraction;
        true
    }

    /// Advance the pack by `dt` seconds under `demand_w` watts; the
    /// active cell serves, every other cell rests.
    ///
    /// # Panics
    ///
    /// Panics if `demand_w` is negative or `dt` is not positive.
    pub fn step(&mut self, demand_w: f64, dt: f64, temp_c: f64) -> MultiStep {
        assert!(demand_w >= 0.0, "demand must be non-negative");
        assert!(dt > 0.0, "dt must be positive");
        self.active_s[self.active] += dt;
        let mut rest_heat = 0.0;
        let mut served = CellStep {
            delivered_w: 0.0,
            delivered_j: 0.0,
            current_a: 0.0,
            voltage_v: 0.0,
            heat_w: 0.0,
            brownout: false,
            starved: false,
        };
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if i == self.active {
                served = cell.step(demand_w, dt, temp_c);
            } else {
                rest_heat += cell.rest(dt, temp_c).heat_w;
            }
        }
        let switch_heat = self.pending_heat_j / dt;
        self.pending_heat_j = 0.0;
        MultiStep {
            active: self.active,
            cell: served,
            shortfall_w: (demand_w - served.delivered_w).max(0.0),
            heat_w: served.heat_w + rest_heat + switch_heat,
        }
    }

    /// Greedy selector: the usable cell that serves `demand_w` with the
    /// highest terminal voltage (lowest marginal loss), weighted by its
    /// remaining charge so depletion stays balanced. Returns the index.
    pub fn greedy_choice(&self, demand_w: f64, temp_c: f64) -> usize {
        let mut best = self.active;
        let mut best_score = f64::NEG_INFINITY;
        for (i, cell) in self.cells.iter().enumerate() {
            if !cell.is_usable() {
                continue;
            }
            let nominal = cell.chemistry().electrical().nominal_v;
            // Voltage margin above cut-off, normalised per chemistry —
            // a proxy for the marginal loss of serving this demand here.
            let margin = (cell.voltage_under(demand_w, temp_c)
                - cell.chemistry().electrical().cutoff_v)
                / nominal;
            // Depletion balance: prefer fuller cells.
            let score = margin + 0.3 * cell.soc();
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// The cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Index of the serving cell.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Capacity-weighted state of charge.
    pub fn soc(&self) -> f64 {
        let charge: f64 = self.cells.iter().map(|c| c.soc() * c.capacity_ah()).sum();
        let capacity: f64 = self.cells.iter().map(Cell::capacity_ah).sum();
        charge / capacity
    }

    /// Whether any cell can serve right now.
    pub fn any_usable(&self) -> bool {
        self.cells.iter().any(Cell::is_usable)
    }

    /// Whether every cell is permanently exhausted.
    pub fn is_depleted(&self) -> bool {
        self.cells.iter().all(Cell::is_exhausted)
    }

    /// Number of switches so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Seconds each cell has served.
    pub fn active_s(&self) -> &[f64] {
        &self.active_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chemistry::Chemistry;

    fn three_cell() -> MultiPack {
        MultiPack::new(vec![
            Cell::new(Chemistry::Nca, 2.0),
            Cell::new(Chemistry::Lmo, 2.0),
            Cell::new(Chemistry::Lto, 1.0),
        ])
    }

    #[test]
    fn first_cell_starts_active() {
        let p = three_cell();
        assert_eq!(p.active(), 0);
        assert!((p.soc() - 1.0).abs() < 1e-9);
        assert!(p.any_usable());
    }

    #[test]
    fn select_switches_and_counts() {
        let mut p = three_cell();
        assert!(p.select(2));
        assert!(!p.select(2));
        assert_eq!(p.flips(), 1);
        assert_eq!(p.active(), 2);
    }

    #[test]
    fn only_the_active_cell_discharges_meaningfully() {
        let mut p = three_cell();
        p.select(1);
        for _ in 0..120 {
            p.step(2.0, 1.0, 25.0);
        }
        assert!(p.cells()[1].soc() < 0.999);
        assert!(p.cells()[0].soc() > 0.999);
        assert!((p.active_s()[1] - 120.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_routes_surges_to_the_rate_capable_cell() {
        let p = three_cell();
        // A hard surge: the low-resistance LITTLE-class cells keep the
        // highest voltage margin.
        let choice = p.greedy_choice(8.0, 25.0);
        assert_ne!(choice, 0, "the big NCA cell should not take an 8 W surge");
    }

    #[test]
    fn greedy_skips_unusable_cells() {
        let mut p = three_cell();
        // Exhaust the LMO cell.
        p.select(1);
        let mut guard = 0;
        while p.cells()[1].is_usable() && guard < 500_000 {
            p.step(6.0, 1.0, 25.0);
            guard += 1;
        }
        let choice = p.greedy_choice(1.0, 25.0);
        assert_ne!(choice, 1, "an unusable cell must not be chosen");
    }

    #[test]
    fn depletion_is_reported() {
        let mut p = MultiPack::new(vec![Cell::new(Chemistry::Lmo, 0.02)]);
        for _ in 0..200_000 {
            p.step(1.0, 1.0, 25.0);
            if p.is_depleted() {
                break;
            }
        }
        assert!(p.is_depleted());
        assert!(!p.any_usable());
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn rejects_empty_pack() {
        let _ = MultiPack::new(vec![]);
    }
}
