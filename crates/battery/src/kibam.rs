//! The Kinetic Battery Model (KiBaM).
//!
//! KiBaM splits the stored charge into an *available* well (fraction `c`)
//! that supplies the load directly and a *bound* well (fraction `1 - c`)
//! that refills the available well through a valve with rate constant `k`.
//! This single abstraction produces both nonlinear effects CAPMAN's
//! big.LITTLE scheduling exploits:
//!
//! * **rate-capacity effect** — draining faster than the valve refills
//!   leaves bound charge stranded when the available well empties, so high
//!   surge currents extract less total charge;
//! * **recovery effect** — a resting cell's available well refills, which
//!   is why alternating between two cells harvests more charge than
//!   draining one.
//!
//! Big chemistries have small `c` and slow `k` (severe rate-capacity
//! losses), LITTLE chemistries have large `c` and fast `k`.

use crate::error::BatteryError;

/// A two-well kinetic battery charge model.
#[derive(Debug, Clone, PartialEq)]
pub struct Kibam {
    /// Total rated charge in coulombs.
    capacity: f64,
    /// Available-charge fraction `c` in `(0, 1)`.
    c: f64,
    /// Valve rate constant `k` in 1/s.
    k: f64,
    /// Charge in the available well, coulombs.
    y1: f64,
    /// Charge in the bound well, coulombs.
    y2: f64,
}

/// Result of drawing charge from a [`Kibam`] for one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KibamStep {
    /// Charge actually delivered this step, in coulombs.
    pub delivered_c: f64,
    /// Whether the available well ran dry during the step.
    pub starved: bool,
}

impl Kibam {
    /// Maximum internal integration substep relative to `1/k`, chosen so
    /// the explicit Euler update of the valve flow stays stable.
    const MAX_SUBSTEP_K: f64 = 0.2;

    /// Create a full battery.
    ///
    /// # Errors
    ///
    /// Returns an error if `capacity_coulombs <= 0`, `c` is outside
    /// `(0, 1)`, or `k <= 0`.
    pub fn new(capacity_coulombs: f64, c: f64, k: f64) -> Result<Self, BatteryError> {
        if !capacity_coulombs.is_finite() || capacity_coulombs <= 0.0 {
            return Err(BatteryError::NonPositiveCapacity(capacity_coulombs));
        }
        if !(c.is_finite() && c > 0.0 && c < 1.0) {
            return Err(BatteryError::InvalidParameter {
                name: "c",
                value: c,
            });
        }
        if !k.is_finite() || k <= 0.0 {
            return Err(BatteryError::InvalidParameter {
                name: "k",
                value: k,
            });
        }
        Ok(Kibam {
            capacity: capacity_coulombs,
            c,
            k,
            y1: c * capacity_coulombs,
            y2: (1.0 - c) * capacity_coulombs,
        })
    }

    /// Draw `current_a` amperes for `dt` seconds.
    ///
    /// Integrates the two-well dynamics with internally bounded substeps.
    /// If the available well runs dry mid-step the remaining demand is not
    /// served and the step reports `starved = true`.
    ///
    /// # Errors
    ///
    /// Returns an error for negative current or a non-positive `dt`.
    pub fn draw(&mut self, current_a: f64, dt: f64) -> Result<KibamStep, BatteryError> {
        if current_a < 0.0 {
            return Err(BatteryError::NegativeDemand(current_a));
        }
        if !dt.is_finite() || dt <= 0.0 {
            return Err(BatteryError::NonPositiveStep(dt));
        }
        // Effective equalization rate of the head gap, used to bound the
        // explicit Euler substep.
        let gap_rate = self.k * (1.0 / self.c + 1.0 / (1.0 - self.c));
        let max_sub = Self::MAX_SUBSTEP_K / gap_rate;
        let n = (dt / max_sub).ceil().max(1.0) as usize;
        let sub = dt / n as f64;
        let mut delivered = 0.0;
        let mut starved = false;
        for _ in 0..n {
            // Valve flow uses charge-unit heads (classic KiBaM):
            // h1 = y1/c, h2 = y2/(1-c).
            let flow = self.k * (self.y2 / (1.0 - self.c) - self.y1 / self.c);
            // Valve flow moves charge between wells (can be negative when
            // the available well is fuller, e.g. right after a swap).
            let moved = flow * sub;
            let moved = moved.clamp(-self.y1, self.y2);
            self.y1 += moved;
            self.y2 -= moved;
            let want = current_a * sub;
            let got = want.min(self.y1);
            self.y1 -= got;
            delivered += got;
            if got + 1e-15 < want {
                starved = true;
            }
        }
        Ok(KibamStep {
            delivered_c: delivered,
            starved,
        })
    }

    /// Let the battery rest (recover) for `dt` seconds.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive `dt`.
    pub fn rest(&mut self, dt: f64) -> Result<(), BatteryError> {
        self.draw(0.0, dt).map(|_| ())
    }

    /// Charge with `current_a` amperes for `dt` seconds.
    ///
    /// Charge enters the available well directly and diffuses into the
    /// bound well through the valve; intake stops at the rated capacity.
    /// Returns the charge actually accepted, in coulombs.
    ///
    /// # Errors
    ///
    /// Returns an error for negative current or a non-positive `dt`.
    pub fn charge(&mut self, current_a: f64, dt: f64) -> Result<f64, BatteryError> {
        if current_a < 0.0 {
            return Err(BatteryError::NegativeDemand(current_a));
        }
        if !dt.is_finite() || dt <= 0.0 {
            return Err(BatteryError::NonPositiveStep(dt));
        }
        let gap_rate = self.k * (1.0 / self.c + 1.0 / (1.0 - self.c));
        let max_sub = Self::MAX_SUBSTEP_K / gap_rate;
        let n = (dt / max_sub).ceil().max(1.0) as usize;
        let sub = dt / n as f64;
        let mut accepted = 0.0;
        for _ in 0..n {
            let flow = self.k * (self.y2 / (1.0 - self.c) - self.y1 / self.c);
            let moved = (flow * sub).clamp(-self.y1, self.y2);
            self.y1 += moved;
            self.y2 -= moved;
            let room = (self.capacity - (self.y1 + self.y2)).max(0.0);
            // The available well also saturates at its own brim.
            let brim = (self.c * self.capacity - self.y1).max(0.0);
            let got = (current_a * sub).min(room).min(brim);
            self.y1 += got;
            accepted += got;
        }
        Ok(accepted)
    }

    /// Head height of the available well in `[0, 1]`.
    ///
    /// This drives the terminal voltage: it collapses under surges and
    /// climbs back during rest, producing the V-edge of Fig. 3.
    pub fn h1(&self) -> f64 {
        (self.y1 / (self.c * self.capacity)).clamp(0.0, 1.0)
    }

    /// Head height of the bound well in `[0, 1]`.
    pub fn h2(&self) -> f64 {
        (self.y2 / ((1.0 - self.c) * self.capacity)).clamp(0.0, 1.0)
    }

    /// Total state of charge: all remaining charge over rated capacity.
    pub fn total_soc(&self) -> f64 {
        ((self.y1 + self.y2) / self.capacity).clamp(0.0, 1.0)
    }

    /// Remaining charge in coulombs (both wells).
    pub fn remaining_coulombs(&self) -> f64 {
        self.y1 + self.y2
    }

    /// Charge stranded in the bound well if discharge stopped now, coulombs.
    pub fn bound_coulombs(&self) -> f64 {
        self.y2
    }

    /// Whether the available well is (effectively) empty.
    pub fn is_starved(&self) -> bool {
        self.y1 <= self.capacity * 1e-9
    }

    /// Rated capacity in coulombs.
    pub fn capacity_coulombs(&self) -> f64 {
        self.capacity
    }

    /// The available-charge fraction `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The valve rate constant `k`.
    pub fn k(&self) -> f64 {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Kibam {
        // 2500 mAh = 9000 C, LITTLE-ish parameters.
        Kibam::new(9000.0, 0.75, 4.0e-3).expect("valid")
    }

    #[test]
    fn starts_full_and_balanced() {
        let k = cell();
        assert!((k.total_soc() - 1.0).abs() < 1e-12);
        assert!((k.h1() - 1.0).abs() < 1e-12);
        assert!((k.h2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_draw_conserves_charge() {
        let mut k = cell();
        let before = k.remaining_coulombs();
        let step = k.draw(1.0, 100.0).expect("draw");
        let after = k.remaining_coulombs();
        assert!((before - after - step.delivered_c).abs() < 1e-6);
    }

    #[test]
    fn high_rate_extracts_less_total_charge_than_low_rate() {
        // Rate-capacity effect: drain at 0.5 A vs 5 A until starved.
        let drain = |current: f64| -> f64 {
            let mut k = cell();
            let mut delivered = 0.0;
            for _ in 0..1_000_000 {
                let s = k.draw(current, 1.0).expect("draw");
                delivered += s.delivered_c;
                if s.starved {
                    break;
                }
            }
            delivered
        };
        let slow = drain(0.5);
        let fast = drain(20.0);
        assert!(
            fast < slow * 0.97,
            "fast drain should strand charge: fast={fast}, slow={slow}"
        );
    }

    #[test]
    fn rest_recovers_available_charge() {
        let mut k = cell();
        // Surge until head drops well below bound head.
        k.draw(8.0, 600.0).expect("draw");
        let h1_after_surge = k.h1();
        assert!(h1_after_surge < k.h2());
        k.rest(3600.0).expect("rest");
        assert!(k.h1() > h1_after_surge, "recovery should raise h1");
        // After a long rest, the heads equalize.
        assert!((k.h1() - k.h2()).abs() < 0.01);
    }

    #[test]
    fn starved_step_reports_partial_delivery() {
        let mut k = Kibam::new(10.0, 0.5, 1.0e-4).expect("valid");
        // Available well holds 5 C; ask for 100 C in one second.
        let s = k.draw(100.0, 1.0).expect("draw");
        assert!(s.starved);
        assert!(s.delivered_c < 6.0);
        assert!(k.is_starved());
    }

    #[test]
    fn big_parameters_strand_more_charge_than_little() {
        let surge_yield = |c: f64, k: f64| -> f64 {
            let mut b = Kibam::new(9000.0, c, k).expect("valid");
            let mut delivered = 0.0;
            loop {
                let s = b.draw(6.0, 1.0).expect("draw");
                delivered += s.delivered_c;
                if s.starved {
                    return delivered;
                }
            }
        };
        let big = surge_yield(0.5, 8.0e-4);
        let little = surge_yield(0.75, 4.0e-3);
        assert!(
            little > big * 1.1,
            "LITTLE should out-deliver big under surges: little={little}, big={big}"
        );
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(Kibam::new(0.0, 0.5, 1e-3).is_err());
        assert!(Kibam::new(10.0, 0.0, 1e-3).is_err());
        assert!(Kibam::new(10.0, 1.0, 1e-3).is_err());
        assert!(Kibam::new(10.0, 0.5, 0.0).is_err());
        assert!(Kibam::new(10.0, 0.5, -1.0).is_err());
    }

    #[test]
    fn rejects_invalid_draw() {
        let mut k = cell();
        assert!(k.draw(-1.0, 1.0).is_err());
        assert!(k.draw(1.0, 0.0).is_err());
        assert!(k.draw(1.0, -1.0).is_err());
    }

    #[test]
    fn soc_never_exceeds_bounds_under_long_rest() {
        let mut k = cell();
        k.draw(2.0, 1000.0).expect("draw");
        k.rest(1_000_000.0).expect("rest");
        assert!(k.total_soc() <= 1.0);
        assert!(k.h1() <= 1.0 && k.h2() <= 1.0);
    }
}
