//! Cycle-aging model — Table I's *lifetime* axis made operational.
//!
//! The paper scores each chemistry's lifetime (LTO five stars, NCA/LMO
//! two) but evaluates single discharge cycles. This module extends the
//! reproduction to multi-cycle service: capacity fades linearly with
//! *equivalent full cycles* (total throughput over rated capacity), at
//! a per-chemistry rate derived from the star ratings, accelerated by
//! heat (Arrhenius doubling per 15 K above 25 degC) and by deep
//! high-rate use (the LITTLE cell in a badly scheduled pack ages
//! fastest — one more argument for balanced depletion).

use crate::chemistry::Chemistry;

/// End-of-life convention: the cycle count ratings assume the cell is
/// "worn out" at 80% of its original capacity.
pub const EOL_CAPACITY_FRACTION: f64 = 0.8;

/// Cycle-aging state for one cell.
///
/// # Examples
///
/// ```
/// use capman_battery::degradation::AgingModel;
/// use capman_battery::chemistry::Chemistry;
///
/// let mut aging = AgingModel::new(Chemistry::Lmo, 2.5);
/// aging.record(9000.0, 30.0, 1.0); // one full cycle's throughput
/// assert!(aging.capacity_fraction() < 1.0);
/// assert!(!aging.is_worn_out());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    chemistry: Chemistry,
    /// Rated capacity, coulombs.
    rated_c: f64,
    /// Cumulative discharge throughput, coulombs.
    throughput_c: f64,
    /// Extra fade accumulated from heat and abuse, as equivalent full
    /// cycles.
    stress_efc: f64,
}

impl AgingModel {
    /// Start tracking a fresh cell.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_ah` is not positive.
    pub fn new(chemistry: Chemistry, capacity_ah: f64) -> Self {
        assert!(capacity_ah > 0.0, "capacity must be positive");
        AgingModel {
            chemistry,
            rated_c: capacity_ah * 3600.0,
            throughput_c: 0.0,
            stress_efc: 0.0,
        }
    }

    /// Rated cycle life to 80% capacity, from the Table I lifetime
    /// stars.
    pub fn rated_cycles(chemistry: Chemistry) -> f64 {
        match chemistry.features().lifetime {
            1 => 300.0,
            2 => 500.0,
            3 => 800.0,
            4 => 1200.0,
            _ => 2500.0, // five stars: LTO territory
        }
    }

    /// Record discharge throughput at an average cell temperature and
    /// C-rate.
    ///
    /// # Panics
    ///
    /// Panics if `charge_c` is negative.
    pub fn record(&mut self, charge_c: f64, temp_c: f64, c_rate: f64) {
        assert!(charge_c >= 0.0, "throughput cannot be negative");
        self.throughput_c += charge_c;
        // Heat stress: Arrhenius doubling per 15 K above the reference.
        let heat = ((temp_c - 25.0) / 15.0).exp2().max(1.0) - 1.0;
        // Rate stress: discharging above 1 C wears proportionally more.
        let rate = (c_rate - 1.0).max(0.0);
        self.stress_efc += charge_c / self.rated_c * (heat + 0.3 * rate);
    }

    /// Equivalent full cycles so far (throughput plus stress).
    pub fn equivalent_full_cycles(&self) -> f64 {
        self.throughput_c / self.rated_c + self.stress_efc
    }

    /// Current capacity as a fraction of rated (1.0 fresh, 0.8 at the
    /// rated cycle life, floored at 0.5).
    pub fn capacity_fraction(&self) -> f64 {
        let per_cycle_fade = (1.0 - EOL_CAPACITY_FRACTION) / Self::rated_cycles(self.chemistry);
        (1.0 - per_cycle_fade * self.equivalent_full_cycles()).max(0.5)
    }

    /// Whether the cell reached its end-of-life capacity.
    pub fn is_worn_out(&self) -> bool {
        self.capacity_fraction() <= EOL_CAPACITY_FRACTION
    }

    /// The chemistry being tracked.
    pub fn chemistry(&self) -> Chemistry {
        self.chemistry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_has_full_capacity() {
        let a = AgingModel::new(Chemistry::Nca, 2.5);
        assert_eq!(a.capacity_fraction(), 1.0);
        assert!(!a.is_worn_out());
        assert_eq!(a.equivalent_full_cycles(), 0.0);
    }

    #[test]
    fn rated_cycles_reach_eol() {
        let mut a = AgingModel::new(Chemistry::Nca, 2.5);
        let rated = AgingModel::rated_cycles(Chemistry::Nca);
        for _ in 0..(rated as usize) {
            a.record(2.5 * 3600.0, 25.0, 0.5);
        }
        assert!(
            (a.capacity_fraction() - EOL_CAPACITY_FRACTION).abs() < 0.01,
            "at rated cycles capacity should be ~80%, got {}",
            a.capacity_fraction()
        );
        assert!(a.is_worn_out());
    }

    #[test]
    fn lto_outlasts_nca() {
        // Five lifetime stars vs two.
        let cycles = |chem| {
            let mut a = AgingModel::new(chem, 2.5);
            let mut n = 0;
            while !a.is_worn_out() && n < 10_000 {
                a.record(2.5 * 3600.0, 25.0, 0.5);
                n += 1;
            }
            n
        };
        assert!(cycles(Chemistry::Lto) > cycles(Chemistry::Nca) * 3);
    }

    #[test]
    fn heat_accelerates_aging() {
        let mut cool = AgingModel::new(Chemistry::Lmo, 2.5);
        let mut hot = AgingModel::new(Chemistry::Lmo, 2.5);
        for _ in 0..100 {
            cool.record(9000.0, 25.0, 0.5);
            hot.record(9000.0, 45.0, 0.5);
        }
        assert!(hot.capacity_fraction() < cool.capacity_fraction());
    }

    #[test]
    fn high_rate_discharge_wears_more() {
        let mut gentle = AgingModel::new(Chemistry::Lmo, 2.5);
        let mut hard = AgingModel::new(Chemistry::Lmo, 2.5);
        for _ in 0..100 {
            gentle.record(9000.0, 25.0, 0.5);
            hard.record(9000.0, 25.0, 5.0);
        }
        assert!(hard.capacity_fraction() < gentle.capacity_fraction());
    }

    #[test]
    fn capacity_floor_holds() {
        let mut a = AgingModel::new(Chemistry::Nca, 2.5);
        for _ in 0..100_000 {
            a.record(9000.0, 60.0, 8.0);
        }
        assert!(a.capacity_fraction() >= 0.5);
    }

    #[test]
    fn lifetime_stars_order_rated_cycles() {
        let mut last = f64::INFINITY;
        for stars in (1..=5).rev() {
            // Find a chemistry with this rating if one exists.
            if let Some(chem) = Chemistry::ALL
                .iter()
                .find(|c| c.features().lifetime == stars)
            {
                let cycles = AgingModel::rated_cycles(*chem);
                assert!(cycles <= last);
                last = cycles;
            }
        }
    }
}
