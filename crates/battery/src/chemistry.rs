//! The lithium-ion chemistry feature database of Table I and Fig. 4.
//!
//! The paper surveys six widely used lithium chemistries and scores each on
//! cost efficiency, lifetime, discharge rate, energy density (Table I) and
//! safety (the fifth radar axis of Fig. 4). Energy density and discharge
//! rate drive the big/LITTLE classification: a cell that stores more energy
//! per volume but releases it gently is a *big* battery, a cell that can
//! release charge fast is a *LITTLE* battery.

use std::fmt;

/// The six lithium-ion chemistries surveyed in Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Chemistry {
    /// `LiCoO2` — lithium cobalt oxide.
    Lco,
    /// `LiNiCoAlO2` — lithium nickel cobalt aluminium oxide. The paper's
    /// **big** cell.
    Nca,
    /// `LiMn2O4` — lithium manganese oxide. The paper's **LITTLE** cell.
    Lmo,
    /// `LiNiMnCoO2` — lithium nickel manganese cobalt oxide.
    Nmc,
    /// `LiFePO4` — lithium iron phosphate.
    Lfp,
    /// `LiTi5O12` — lithium titanate.
    Lto,
}

impl Chemistry {
    /// All six chemistries in the order of Table I.
    pub const ALL: [Chemistry; 6] = [
        Chemistry::Lco,
        Chemistry::Nca,
        Chemistry::Lmo,
        Chemistry::Nmc,
        Chemistry::Lfp,
        Chemistry::Lto,
    ];

    /// The short symbol used in the paper, e.g. `"LMO"`.
    pub fn symbol(self) -> &'static str {
        match self {
            Chemistry::Lco => "LCO",
            Chemistry::Nca => "NCA",
            Chemistry::Lmo => "LMO",
            Chemistry::Nmc => "NMC",
            Chemistry::Lfp => "LFP",
            Chemistry::Lto => "LTO",
        }
    }

    /// The full chemical formula, e.g. `"LiMn2O4"`.
    pub fn formula(self) -> &'static str {
        match self {
            Chemistry::Lco => "LiCoO2",
            Chemistry::Nca => "LiNiCoAlO2",
            Chemistry::Lmo => "LiMn2O4",
            Chemistry::Nmc => "LiNiMnCoO2",
            Chemistry::Lfp => "LiFePO4",
            Chemistry::Lto => "LiTi5O12",
        }
    }

    /// The qualitative feature scores from Table I / Fig. 4.
    pub fn features(self) -> Features {
        match self {
            Chemistry::Lco => Features::new(2, 3, 2, 5, 2),
            Chemistry::Nca => Features::new(3, 2, 3, 5, 2),
            Chemistry::Lmo => Features::new(3, 2, 4, 3, 3),
            Chemistry::Nmc => Features::new(4, 4, 4, 3, 3),
            Chemistry::Lfp => Features::new(2, 4, 5, 2, 5),
            Chemistry::Lto => Features::new(1, 5, 5, 1, 5),
        }
    }

    /// Classify the chemistry as a big or LITTLE battery.
    ///
    /// The paper's rule (Section III-A): chemistries whose energy density
    /// dominates their discharge rate are *big*; those with large discharge
    /// rates are *LITTLE*. This reproduces the "Result" column of Table I.
    pub fn class(self) -> Class {
        let f = self.features();
        if f.energy_density > f.discharge_rate {
            Class::Big
        } else {
            Class::Little
        }
    }

    /// The electrical model parameters used by [`crate::cell::Cell`].
    ///
    /// The paper does not publish cell-level electrical constants; these are
    /// representative values chosen so that the *relative* behaviour matches
    /// Table I and public chemistry data: LITTLE chemistries have low
    /// internal resistance, a large available-charge fraction and fast
    /// diffusion (they serve surges cheaply); big chemistries store more
    /// energy per volume but pay heavy rate-capacity losses under surges.
    pub fn electrical(self) -> ElectricalParams {
        match self {
            Chemistry::Lco => ElectricalParams {
                nominal_v: 3.8,
                cutoff_v: 3.0,
                r0_ohm: 0.110,
                rc_r_ohm: 0.050,
                rc_tau_s: 18.0,
                kibam_c: 0.28,
                kibam_k: 5.0e-5,
                sag_coeff: 1.4,
                max_c_rate: 1.0,
                energy_density_wh_per_l: 560.0,
                leak_ref_w_per_ah: 2.0e-3,
            },
            Chemistry::Nca => ElectricalParams {
                nominal_v: 3.7,
                cutoff_v: 3.0,
                r0_ohm: 0.090,
                rc_r_ohm: 0.045,
                rc_tau_s: 15.0,
                kibam_c: 0.30,
                kibam_k: 6.0e-5,
                sag_coeff: 1.3,
                max_c_rate: 1.2,
                energy_density_wh_per_l: 600.0,
                leak_ref_w_per_ah: 2.2e-3,
            },
            Chemistry::Lmo => ElectricalParams {
                nominal_v: 3.7,
                cutoff_v: 3.0,
                r0_ohm: 0.030,
                rc_r_ohm: 0.015,
                rc_tau_s: 6.0,
                kibam_c: 0.75,
                kibam_k: 4.0e-3,
                sag_coeff: 0.45,
                max_c_rate: 10.0,
                energy_density_wh_per_l: 420.0,
                leak_ref_w_per_ah: 5.0e-2,
            },
            Chemistry::Nmc => ElectricalParams {
                nominal_v: 3.7,
                cutoff_v: 3.0,
                r0_ohm: 0.045,
                rc_r_ohm: 0.022,
                rc_tau_s: 8.0,
                kibam_c: 0.65,
                kibam_k: 2.5e-3,
                sag_coeff: 0.6,
                max_c_rate: 8.0,
                energy_density_wh_per_l: 450.0,
                leak_ref_w_per_ah: 2.2e-2,
            },
            Chemistry::Lfp => ElectricalParams {
                nominal_v: 3.2,
                cutoff_v: 2.5,
                r0_ohm: 0.025,
                rc_r_ohm: 0.012,
                rc_tau_s: 5.0,
                kibam_c: 0.80,
                kibam_k: 5.0e-3,
                sag_coeff: 0.35,
                max_c_rate: 12.0,
                energy_density_wh_per_l: 330.0,
                leak_ref_w_per_ah: 1.8e-2,
            },
            Chemistry::Lto => ElectricalParams {
                nominal_v: 2.4,
                cutoff_v: 1.8,
                r0_ohm: 0.015,
                rc_r_ohm: 0.008,
                rc_tau_s: 3.0,
                kibam_c: 0.90,
                kibam_k: 8.0e-3,
                sag_coeff: 0.3,
                max_c_rate: 20.0,
                energy_density_wh_per_l: 180.0,
                leak_ref_w_per_ah: 1.5e-2,
            },
        }
    }

    /// The five normalized radar-map metrics of Fig. 4, each in `[0, 1]`.
    ///
    /// Order: discharge rate, energy density, cost efficiency, lifetime,
    /// safety.
    pub fn radar(self) -> [f64; 5] {
        let f = self.features();
        [
            f64::from(f.discharge_rate) / 5.0,
            f64::from(f.energy_density) / 5.0,
            f64::from(f.cost_efficiency) / 5.0,
            f64::from(f.lifetime) / 5.0,
            f64::from(f.safety) / 5.0,
        ]
    }
}

impl fmt::Display for Chemistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.symbol(), self.formula())
    }
}

/// Qualitative 1–5 star feature scores for a chemistry (Table I + Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Features {
    /// Cost efficiency (higher is cheaper per Wh).
    pub cost_efficiency: u8,
    /// Cycle lifetime.
    pub lifetime: u8,
    /// Instantaneous discharge capability.
    pub discharge_rate: u8,
    /// Energy stored per volume.
    pub energy_density: u8,
    /// Thermal/chemical safety.
    pub safety: u8,
}

impl Features {
    fn new(
        cost_efficiency: u8,
        lifetime: u8,
        discharge_rate: u8,
        energy_density: u8,
        safety: u8,
    ) -> Self {
        Features {
            cost_efficiency,
            lifetime,
            discharge_rate,
            energy_density,
            safety,
        }
    }

    /// Render a score as the star string used in Table I, e.g. `"***"`.
    pub fn stars(score: u8) -> String {
        "*".repeat(usize::from(score))
    }
}

/// The big/LITTLE classification of a chemistry ("Result" column, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// High energy density, gentle discharge.
    Big,
    /// High discharge rate, smaller energy density.
    Little,
}

impl Class {
    /// The other class.
    pub fn other(self) -> Class {
        match self {
            Class::Big => Class::Little,
            Class::Little => Class::Big,
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::Big => write!(f, "big"),
            Class::Little => write!(f, "LITTLE"),
        }
    }
}

/// Electrical model parameters for one chemistry.
///
/// These feed the KiBaM and Thevenin sub-models of [`crate::cell::Cell`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectricalParams {
    /// Nominal terminal voltage in volts.
    pub nominal_v: f64,
    /// Cut-off voltage below which the cell counts as exhausted.
    pub cutoff_v: f64,
    /// Series (ohmic) resistance in ohms for a 2.5 Ah cell. Scaled
    /// inversely with capacity when a cell of another size is built.
    pub r0_ohm: f64,
    /// Resistance of the single RC polarization pair, in ohms.
    pub rc_r_ohm: f64,
    /// Time constant of the RC pair in seconds.
    pub rc_tau_s: f64,
    /// KiBaM available-charge fraction `c` in `(0, 1)`.
    pub kibam_c: f64,
    /// KiBaM diffusion rate constant `k` in 1/s.
    pub kibam_k: f64,
    /// Concentration-overpotential coefficient: how strongly a depleted
    /// available well sags the terminal voltage, as a multiple of the
    /// nominal-to-cutoff span. Big chemistries sag hard under surges.
    pub sag_coeff: f64,
    /// Maximum continuous discharge rate in multiples of capacity (C-rate).
    pub max_c_rate: f64,
    /// Volumetric energy density in Wh/L (for the radar map and packaging).
    pub energy_density_wh_per_l: f64,
    /// Self-discharge / leak power at 25 degC, in watts per Ah of capacity.
    pub leak_ref_w_per_ah: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_classification_matches_paper() {
        assert_eq!(Chemistry::Lco.class(), Class::Big);
        assert_eq!(Chemistry::Nca.class(), Class::Big);
        assert_eq!(Chemistry::Lmo.class(), Class::Little);
        assert_eq!(Chemistry::Nmc.class(), Class::Little);
        assert_eq!(Chemistry::Lfp.class(), Class::Little);
        assert_eq!(Chemistry::Lto.class(), Class::Little);
    }

    #[test]
    fn paper_prototype_pair_is_orthogonal() {
        // The paper picks LMO as LITTLE and NCA as big because they are
        // "almost orthogonal in important features".
        let lmo = Chemistry::Lmo.features();
        let nca = Chemistry::Nca.features();
        assert!(lmo.discharge_rate > nca.discharge_rate);
        assert!(nca.energy_density > lmo.energy_density);
    }

    #[test]
    fn radar_metrics_are_normalized() {
        for chem in Chemistry::ALL {
            for metric in chem.radar() {
                assert!((0.0..=1.0).contains(&metric), "{chem}: {metric}");
            }
        }
    }

    #[test]
    fn no_single_chemistry_dominates_all_dimensions() {
        // First observation from Fig. 4: no single battery covers all five
        // dimensions optimally.
        for chem in Chemistry::ALL {
            let all_max = chem.radar().iter().all(|&m| m >= 0.99);
            assert!(!all_max, "{chem} should not dominate every axis");
        }
    }

    #[test]
    fn little_cells_have_lower_resistance_than_big_cells() {
        for little in Chemistry::ALL.iter().filter(|c| c.class() == Class::Little) {
            for big in Chemistry::ALL.iter().filter(|c| c.class() == Class::Big) {
                assert!(
                    little.electrical().r0_ohm < big.electrical().r0_ohm,
                    "{little} should have lower r0 than {big}"
                );
            }
        }
    }

    #[test]
    fn big_cells_store_more_energy_per_volume() {
        for little in Chemistry::ALL.iter().filter(|c| c.class() == Class::Little) {
            for big in Chemistry::ALL.iter().filter(|c| c.class() == Class::Big) {
                assert!(
                    big.electrical().energy_density_wh_per_l
                        > little.electrical().energy_density_wh_per_l
                );
            }
        }
    }

    #[test]
    fn kibam_parameters_are_valid() {
        for chem in Chemistry::ALL {
            let e = chem.electrical();
            assert!(e.kibam_c > 0.0 && e.kibam_c < 1.0);
            assert!(e.kibam_k > 0.0);
            assert!(e.cutoff_v < e.nominal_v);
            assert!(e.max_c_rate > 0.0);
        }
    }

    #[test]
    fn symbols_and_formulas_are_unique() {
        let mut symbols: Vec<_> = Chemistry::ALL.iter().map(|c| c.symbol()).collect();
        symbols.sort_unstable();
        symbols.dedup();
        assert_eq!(symbols.len(), 6);
    }

    #[test]
    fn stars_render_expected_length() {
        assert_eq!(Features::stars(3), "***");
        assert_eq!(Features::stars(0), "");
    }

    #[test]
    fn class_other_is_involutive() {
        assert_eq!(Class::Big.other(), Class::Little);
        assert_eq!(Class::Little.other().other(), Class::Little);
    }

    #[test]
    fn display_mentions_symbol() {
        assert_eq!(Chemistry::Lmo.to_string(), "LMO (LiMn2O4)");
        assert_eq!(Class::Little.to_string(), "LITTLE");
        assert_eq!(Class::Big.to_string(), "big");
    }
}
