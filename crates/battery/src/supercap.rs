//! The supercapacitor output filter (Fig. 10).
//!
//! The prototype installs a supercapacitor between the LITTLE battery and
//! the phone "to boost and filter the LITTLE output, such that CAPMAN can
//! have a reliable power supply": the LITTLE cell's terminal voltage is
//! spiky under fast switching, and the capacitor rides through the
//! millisecond switch latency and smooths demand spikes seen by the cell.
//!
//! The model is a slew-limited low-pass filter backed by a small energy
//! buffer: the battery-side demand follows the load demand with a first-
//! order lag, the capacitor absorbs the instantaneous difference, and a
//! round-trip efficiency charges for every joule cycled through it.

/// A supercapacitor energy buffer between a cell and the load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supercap {
    /// Usable energy capacity, joules.
    capacity_j: f64,
    /// Stored energy, joules.
    stored_j: f64,
    /// Round-trip efficiency in `(0, 1]`.
    efficiency: f64,
    /// Smoothing / recharge time constant, seconds.
    tau_s: f64,
    /// The low-pass-filtered demand the battery currently sees, watts.
    smoothed_w: f64,
}

/// Result of filtering one step of load demand through a [`Supercap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupercapStep {
    /// Power the battery must supply this step (smoothed demand plus
    /// buffer recharge), watts.
    pub battery_demand_w: f64,
    /// Power shortfall the buffer could not cover, watts (non-zero only
    /// when the capacitor is empty during a spike).
    pub shortfall_w: f64,
    /// Energy lost to the capacitor's round-trip inefficiency, joules.
    pub loss_j: f64,
}

impl Supercap {
    /// A buffer sized for the paper's prototype: rides through tens of
    /// milliseconds of full phone load (~5 W) and smooths second-scale
    /// spikes.
    pub fn prototype() -> Self {
        Supercap::new(2.0, 0.95, 1.5)
    }

    /// Create a full buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j` or `tau_s` is not positive, or `efficiency`
    /// is outside `(0, 1]`.
    pub fn new(capacity_j: f64, efficiency: f64, tau_s: f64) -> Self {
        assert!(capacity_j > 0.0, "capacity must be positive");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        assert!(tau_s > 0.0, "time constant must be positive");
        Supercap {
            capacity_j,
            stored_j: capacity_j,
            efficiency,
            tau_s,
            smoothed_w: 0.0,
        }
    }

    /// Filter one step: the load draws `demand_w` for `dt` seconds.
    ///
    /// Returns the smoothed power to request from the battery. The buffer
    /// absorbs the difference between the smoothed battery supply and the
    /// instantaneous load, refills when the battery over-supplies, and
    /// reports a shortfall when a spike outruns an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `demand_w` is negative or `dt` is not positive.
    pub fn filter(&mut self, demand_w: f64, dt: f64) -> SupercapStep {
        assert!(demand_w >= 0.0, "demand must be non-negative");
        assert!(dt > 0.0, "dt must be positive");

        // First-order lag toward the load demand.
        let alpha = 1.0 - (-dt / self.tau_s).exp();
        self.smoothed_w += (demand_w - self.smoothed_w) * alpha;

        // Gentle recharge draw proportional to the buffer deficit.
        let deficit_j = self.capacity_j - self.stored_j;
        let recharge_w = deficit_j / self.tau_s;
        let battery_demand_w = (self.smoothed_w + recharge_w).max(0.0);

        // Energy balance at the buffer node.
        let net_w = battery_demand_w - demand_w;
        let mut loss_j = 0.0;
        let mut shortfall_w = 0.0;
        if net_w >= 0.0 {
            // Battery over-supplies: surplus charges the buffer.
            let in_j = net_w * dt * self.efficiency;
            let stored = in_j.min(self.capacity_j - self.stored_j);
            self.stored_j += stored;
            loss_j += net_w * dt - stored;
        } else {
            // Load exceeds battery supply: buffer covers the gap.
            let want_j = (-net_w) * dt / self.efficiency;
            let got_j = want_j.min(self.stored_j);
            self.stored_j -= got_j;
            loss_j += got_j * (1.0 - self.efficiency);
            let covered_w = got_j * self.efficiency / dt;
            shortfall_w = ((-net_w) - covered_w).max(0.0);
        }

        SupercapStep {
            battery_demand_w,
            shortfall_w,
            loss_j: loss_j.max(0.0),
        }
    }

    /// Stored energy, joules.
    pub fn stored_j(&self) -> f64 {
        self.stored_j
    }

    /// Usable capacity, joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Fill level in `[0, 1]`.
    pub fn level(&self) -> f64 {
        (self.stored_j / self.capacity_j).clamp(0.0, 1.0)
    }

    /// The demand level the battery currently sees, watts.
    pub fn smoothed_w(&self) -> f64 {
        self.smoothed_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full() {
        let c = Supercap::prototype();
        assert!((c.level() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spike_is_smoothed_for_the_battery() {
        let mut c = Supercap::prototype();
        let s = c.filter(8.0, 0.1);
        assert!(
            s.battery_demand_w < 8.0,
            "battery demand should be below the spike: {}",
            s.battery_demand_w
        );
        assert!(c.level() < 1.0, "buffer should have contributed");
        assert_eq!(s.shortfall_w, 0.0);
    }

    #[test]
    fn sustained_demand_converges_to_passthrough() {
        let mut c = Supercap::prototype();
        let mut last = 0.0;
        for _ in 0..500 {
            last = c.filter(3.0, 0.1).battery_demand_w;
        }
        assert!(
            (last - 3.0).abs() < 0.2,
            "steady demand should pass through: {last}"
        );
    }

    #[test]
    fn buffer_recharges_when_idle() {
        let mut c = Supercap::prototype();
        for _ in 0..20 {
            c.filter(8.0, 0.1);
        }
        let drained = c.level();
        assert!(drained < 1.0);
        for _ in 0..200 {
            c.filter(0.0, 0.1);
        }
        assert!(c.level() > drained, "idle steps should recharge the buffer");
    }

    #[test]
    fn empty_buffer_reports_shortfall_on_huge_spike() {
        let mut c = Supercap::new(0.5, 0.95, 10.0);
        let mut saw_shortfall = false;
        for _ in 0..100 {
            if c.filter(50.0, 0.1).shortfall_w > 0.0 {
                saw_shortfall = true;
                break;
            }
        }
        assert!(saw_shortfall);
    }

    #[test]
    fn losses_are_non_negative_and_bounded() {
        let mut c = Supercap::prototype();
        for i in 0..200 {
            let demand = if i % 2 == 0 { 6.0 } else { 0.2 };
            let s = c.filter(demand, 0.5);
            assert!(s.loss_j >= 0.0);
            assert!(s.loss_j <= 6.0 * 0.5, "loss cannot exceed cycled energy");
        }
    }

    #[test]
    fn energy_is_conserved_within_efficiency() {
        // Total battery energy in >= load energy out (difference is loss +
        // buffer state change).
        let mut c = Supercap::prototype();
        let mut battery_j = 0.0;
        let mut load_j = 0.0;
        let mut loss_j = 0.0;
        let start = c.stored_j();
        for i in 0..1000 {
            let demand = if i % 10 < 2 { 7.0 } else { 0.5 };
            let s = c.filter(demand, 0.2);
            battery_j += s.battery_demand_w * 0.2;
            load_j += (demand - s.shortfall_w) * 0.2;
            loss_j += s.loss_j;
        }
        let balance = battery_j + (start - c.stored_j()) - load_j - loss_j;
        assert!(
            balance.abs() < 1.0,
            "energy imbalance too large: {balance} J"
        );
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_bad_efficiency() {
        let _ = Supercap::new(1.0, 0.0, 1.0);
    }
}
