//! A DVFS governor for the CPU frequency ladder.
//!
//! The paper lists DVFS among the traditional techniques whose
//! performance/power trade-off motivates CAPMAN (Section I) and sweeps
//! phones "with CPU frequency ranging from 1040 to 2000". This module
//! provides the standard utilisation-driven ondemand-style governor so
//! experiments can couple frequency selection with battery scheduling:
//! ramp straight to the top level when utilisation crosses the up
//! threshold, step down gradually when it stays below the down
//! threshold.

/// An ondemand-style frequency governor over `n_freqs` levels.
///
/// # Examples
///
/// ```
/// use capman_device::governor::DvfsGovernor;
///
/// let mut governor = DvfsGovernor::ondemand(8);
/// assert_eq!(governor.step(95.0), 7); // burst -> top level
/// assert_eq!(governor.step(10.0), 6); // idle -> step down
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsGovernor {
    n_freqs: usize,
    /// Jump to the top level above this utilisation, percent.
    up_threshold: f64,
    /// Step one level down below this utilisation, percent.
    down_threshold: f64,
    current: usize,
}

impl DvfsGovernor {
    /// The Linux-ondemand-like defaults: up at 80%, down below 30%.
    ///
    /// # Panics
    ///
    /// Panics if `n_freqs` is zero.
    pub fn ondemand(n_freqs: usize) -> Self {
        DvfsGovernor::new(n_freqs, 80.0, 30.0)
    }

    /// A custom governor.
    ///
    /// # Panics
    ///
    /// Panics if `n_freqs` is zero or the thresholds are not ordered
    /// within `(0, 100)`.
    pub fn new(n_freqs: usize, up_threshold: f64, down_threshold: f64) -> Self {
        assert!(n_freqs > 0, "need at least one frequency level");
        assert!(
            0.0 < down_threshold && down_threshold < up_threshold && up_threshold < 100.0,
            "thresholds must satisfy 0 < down < up < 100"
        );
        DvfsGovernor {
            n_freqs,
            up_threshold,
            down_threshold,
            current: 0,
        }
    }

    /// Update with the measured utilisation and return the chosen
    /// frequency index.
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `[0, 100]`.
    pub fn step(&mut self, util: f64) -> usize {
        assert!((0.0..=100.0).contains(&util), "utilisation out of range");
        if util > self.up_threshold {
            self.current = self.n_freqs - 1;
        } else if util < self.down_threshold && self.current > 0 {
            self.current -= 1;
        }
        self.current
    }

    /// The current frequency index.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Number of levels.
    pub fn n_freqs(&self) -> usize {
        self.n_freqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_utilisation_jumps_to_top() {
        let mut g = DvfsGovernor::ondemand(8);
        assert_eq!(g.step(95.0), 7);
    }

    #[test]
    fn low_utilisation_steps_down_gradually() {
        let mut g = DvfsGovernor::ondemand(8);
        g.step(95.0);
        assert_eq!(g.step(10.0), 6);
        assert_eq!(g.step(10.0), 5);
        // Never below zero.
        for _ in 0..20 {
            g.step(0.0);
        }
        assert_eq!(g.current(), 0);
    }

    #[test]
    fn midrange_utilisation_holds_the_level() {
        let mut g = DvfsGovernor::ondemand(4);
        g.step(95.0);
        assert_eq!(g.step(50.0), 3);
        assert_eq!(g.step(50.0), 3);
    }

    #[test]
    fn single_level_governor_is_trivial() {
        let mut g = DvfsGovernor::ondemand(1);
        assert_eq!(g.step(100.0), 0);
        assert_eq!(g.step(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn rejects_inverted_thresholds() {
        let _ = DvfsGovernor::new(4, 30.0, 80.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_utilisation() {
        DvfsGovernor::ondemand(4).step(120.0);
    }
}
