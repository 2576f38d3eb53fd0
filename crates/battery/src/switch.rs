//! The battery switch facility (Figs. 9–11).
//!
//! The prototype converts the scheduler's decisions into a TTL control
//! signal: each voltage flip (`0 -> 1` or `1 -> 0`) switches the MOS pair
//! of the comparator circuit (LM339AD) and hands the load to the other
//! battery. The switch taps a 20 kHz oscillator, so decisions are
//! quantised to 50 microsecond ticks and complete within milliseconds.
//! Every flip dissipates a small amount of energy as heat — frequent
//! switching is exactly what wakes the TEC in the paper's evaluation.

use crate::chemistry::Class;

/// Comparator output for the high TTL level, volts (LM339AD behaviour).
pub const TTL_HIGH_V: f64 = 3.5;
/// Comparator output for the low TTL level, volts.
pub const TTL_LOW_V: f64 = 0.3;

/// Configuration of the switch facility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// Oscillator frequency in hertz (20 kHz in the prototype).
    pub oscillator_hz: f64,
    /// Time for a flip to complete, seconds (millisecond scale).
    pub latency_s: f64,
    /// Energy dissipated per flip, joules.
    pub flip_energy_j: f64,
    /// Fraction of the flip energy that lands as heat on the battery spot.
    pub heat_fraction: f64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            oscillator_hz: 20_000.0,
            latency_s: 2.0e-3,
            flip_energy_j: 0.05,
            heat_fraction: 0.8,
        }
    }
}

/// A completed battery switch event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// Time the flip was requested, seconds.
    pub requested_at: f64,
    /// Time the new battery carries the load, seconds.
    pub completed_at: f64,
    /// The battery now active.
    pub target: Class,
    /// Energy dissipated by the flip, joules.
    pub energy_j: f64,
    /// Portion of `energy_j` that became local heat, joules.
    pub heat_j: f64,
}

/// The switch facility: holds the active battery selection and records the
/// TTL control signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchFacility {
    config: SwitchConfig,
    active: Class,
    signal: Vec<(f64, f64)>,
    flips: u64,
    energy_j: f64,
}

impl SwitchFacility {
    /// Create a facility with the big battery initially active (the phone
    /// boots from the high-energy cell).
    pub fn new(config: SwitchConfig) -> Self {
        SwitchFacility {
            config,
            active: Class::Big,
            signal: vec![(0.0, Self::level_for(Class::Big))],
            flips: 0,
            energy_j: 0.0,
        }
    }

    /// TTL level that selects a battery: high selects LITTLE (the left MOS
    /// tube in Fig. 11), low selects big.
    fn level_for(class: Class) -> f64 {
        match class {
            Class::Little => TTL_HIGH_V,
            Class::Big => TTL_LOW_V,
        }
    }

    /// Request that `target` carry the load from time `now`.
    ///
    /// Returns `None` when the target battery is already active (the
    /// signal holds and nothing is dissipated); otherwise returns the
    /// completed [`SwitchEvent`]. The request time is quantised to the
    /// next oscillator tick.
    pub fn switch_to(&mut self, target: Class, now: f64) -> Option<SwitchEvent> {
        if target == self.active {
            return None;
        }
        let tick = 1.0 / self.config.oscillator_hz;
        let quantised = (now / tick).ceil() * tick;
        let completed = quantised + self.config.latency_s;
        self.active = target;
        self.flips += 1;
        self.energy_j += self.config.flip_energy_j;
        self.signal.push((quantised, Self::level_for(target)));
        Some(SwitchEvent {
            requested_at: now,
            completed_at: completed,
            target,
            energy_j: self.config.flip_energy_j,
            heat_j: self.config.flip_energy_j * self.config.heat_fraction,
        })
    }

    /// The battery currently carrying the load.
    pub fn active(&self) -> Class {
        self.active
    }

    /// Total number of flips so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Total switching energy dissipated so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// The recorded TTL signal as `(time_s, volts)` level changes —
    /// the trace plotted in Fig. 9.
    pub fn signal(&self) -> &[(f64, f64)] {
        &self.signal
    }

    /// The configuration in use.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }
}

impl Default for SwitchFacility {
    fn default() -> Self {
        SwitchFacility::new(SwitchConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_on_big_battery() {
        let s = SwitchFacility::default();
        assert_eq!(s.active(), Class::Big);
        assert_eq!(s.flips(), 0);
        assert_eq!(s.signal().len(), 1);
        assert_eq!(s.signal()[0].1, TTL_LOW_V);
    }

    #[test]
    fn switching_to_same_battery_is_free() {
        let mut s = SwitchFacility::default();
        assert!(s.switch_to(Class::Big, 1.0).is_none());
        assert_eq!(s.flips(), 0);
        assert_eq!(s.energy_j(), 0.0);
    }

    #[test]
    fn flip_costs_energy_and_heat() {
        let mut s = SwitchFacility::default();
        let e = s.switch_to(Class::Little, 1.0).expect("flip");
        assert_eq!(e.target, Class::Little);
        assert!(e.energy_j > 0.0);
        assert!(e.heat_j > 0.0 && e.heat_j <= e.energy_j);
        assert_eq!(s.active(), Class::Little);
        assert_eq!(s.flips(), 1);
    }

    #[test]
    fn request_time_quantised_to_oscillator_tick() {
        let mut s = SwitchFacility::default();
        let e = s.switch_to(Class::Little, 0.000_013).expect("flip");
        let tick = 1.0 / 20_000.0;
        let signal_t = s.signal().last().expect("signal").0;
        assert!((signal_t % tick).abs() < 1e-12 || ((signal_t % tick) - tick).abs() < 1e-12);
        assert!(signal_t >= 0.000_013);
        assert!((e.completed_at - (signal_t + 0.002)).abs() < 1e-12);
    }

    #[test]
    fn signal_alternates_levels_like_fig9() {
        let mut s = SwitchFacility::default();
        // Flip at times 2, 5, 7, 8 as in Fig. 9.
        for t in [2.0, 5.0, 7.0, 8.0] {
            let target = s.active().other();
            s.switch_to(target, t).expect("flip");
        }
        let levels: Vec<f64> = s.signal().iter().map(|&(_, v)| v).collect();
        assert_eq!(
            levels,
            vec![TTL_LOW_V, TTL_HIGH_V, TTL_LOW_V, TTL_HIGH_V, TTL_LOW_V]
        );
        assert_eq!(s.flips(), 4);
    }

    #[test]
    fn accumulated_energy_scales_with_flips() {
        let mut s = SwitchFacility::default();
        for i in 0..10 {
            let target = s.active().other();
            s.switch_to(target, f64::from(i)).expect("flip");
        }
        assert!((s.energy_j() - 10.0 * s.config().flip_energy_j).abs() < 1e-12);
    }
}
