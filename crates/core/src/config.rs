//! Simulation configuration for one discharge cycle.

/// Configuration of a discharge-cycle simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulation step, seconds.
    pub dt_s: f64,
    /// Hard cap on simulated time, seconds (a cycle normally ends when
    /// the pack can no longer serve the demand).
    pub max_horizon_s: f64,
    /// Ambient temperature, degC.
    pub ambient_c: f64,
    /// Fraction of demand that may go unserved before a step counts as
    /// failing.
    pub shortfall_tolerance: f64,
    /// Consecutive failing seconds that end the service (the user gives
    /// up / the phone shuts down).
    pub shortfall_window_s: f64,
    /// Whether the TEC facility is installed (CAPMAN and Oracle have it;
    /// the state-of-practice baselines do not).
    pub tec_enabled: bool,
    /// TEC turn-on threshold, degC (45 in the paper; swept by the TEC
    /// ablation bench).
    pub tec_threshold_c: f64,
    /// Hot-spot temperature above which the CPU throttles, degC.
    pub throttle_threshold_c: f64,
    /// Utilisation multiplier applied while throttled.
    pub throttle_factor: f64,
    /// Telemetry sampling period, seconds.
    pub sample_every_s: f64,
}

impl SimConfig {
    /// The defaults used throughout the evaluation.
    pub fn paper() -> Self {
        SimConfig {
            dt_s: 1.0,
            max_horizon_s: 400_000.0,
            ambient_c: 25.0,
            shortfall_tolerance: 0.05,
            shortfall_window_s: 10.0,
            tec_enabled: false,
            tec_threshold_c: 45.0,
            throttle_threshold_c: 47.0,
            throttle_factor: 0.6,
            sample_every_s: 30.0,
        }
    }

    /// The paper configuration with the TEC facility installed.
    pub fn paper_with_tec() -> Self {
        SimConfig {
            tec_enabled: true,
            ..SimConfig::paper()
        }
    }

    /// Validate the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of its domain.
    pub fn validate(&self) {
        assert!(self.dt_s > 0.0, "dt must be positive");
        assert!(self.max_horizon_s > self.dt_s, "horizon too short");
        assert!(
            (0.0..1.0).contains(&self.shortfall_tolerance),
            "shortfall tolerance must be in [0, 1)"
        );
        assert!(
            self.shortfall_window_s >= self.dt_s,
            "shortfall window shorter than a step"
        );
        assert!(
            self.throttle_factor > 0.0 && self.throttle_factor <= 1.0,
            "throttle factor must be in (0, 1]"
        );
        assert!(self.sample_every_s >= self.dt_s, "sampling too fast");
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        SimConfig::paper().validate();
        SimConfig::paper_with_tec().validate();
    }

    #[test]
    fn tec_variant_only_flips_tec() {
        let a = SimConfig::paper();
        let b = SimConfig::paper_with_tec();
        assert!(!a.tec_enabled);
        assert!(b.tec_enabled);
        assert_eq!(a.dt_s, b.dt_s);
        assert_eq!(a.max_horizon_s, b.max_horizon_s);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_zero_dt() {
        let mut c = SimConfig::paper();
        c.dt_s = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "throttle factor")]
    fn rejects_bad_throttle() {
        let mut c = SimConfig::paper();
        c.throttle_factor = 0.0;
        c.validate();
    }
}
