//! Component power models — Table II of the paper.
//!
//! * CPU: `P = gamma_freq * mu + C` — linear in utilisation `mu` at a
//!   given frequency index (Abdelmotalib & Wu).
//! * Screen: `P = (alpha_b + alpha_w)/2 * B_level + C` — linear in
//!   brightness (Ali et al.).
//! * WiFi: piecewise linear in the packet rate `p` with threshold `t`
//!   (Zhang et al.).
//! * TEC: `P = alpha I dT + I^2 R` — provided by `capman-thermal`; here we
//!   account the constant driver overhead of Table III.
//!
//! All models are calibrated so that, at the reference operating points,
//! they reproduce the measured Table III state powers exactly.

use crate::constants;
use crate::states::{CpuState, DeviceState, ScreenState, TecState, WifiState};

/// The instantaneous software demand a workload places on the components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// CPU utilisation in percent, `0..=100`.
    pub cpu_util: f64,
    /// CPU frequency index, `0..n_freqs` (profile-dependent).
    pub freq_index: usize,
    /// Screen brightness level, `0..=255`.
    pub brightness: f64,
    /// WiFi packet rate, packets per second.
    pub packet_rate: f64,
}

impl Default for Demand {
    fn default() -> Self {
        Demand {
            cpu_util: 0.0,
            freq_index: 0,
            brightness: constants::SCREEN_REF_BRIGHTNESS,
            packet_rate: 0.0,
        }
    }
}

/// CPU power model: `P = gamma_freq * mu + C` in the C0 state, measured
/// constants otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPowerModel {
    /// Per-frequency slope, mW per utilisation percent.
    gammas: Vec<f64>,
    /// Static active floor `C`, mW.
    c_mw: f64,
}

impl CpuPowerModel {
    /// Calibrate for `n_freqs` frequency levels so that full utilisation
    /// at the top level reproduces the Table III C0 power.
    ///
    /// # Panics
    ///
    /// Panics if `n_freqs == 0`.
    pub fn calibrated(n_freqs: usize) -> Self {
        assert!(n_freqs > 0, "need at least one frequency level");
        let c_mw = constants::CPU_C2_MW;
        let top_gamma = (constants::CPU_C0_MW - c_mw) / 100.0;
        let gammas = (0..n_freqs)
            .map(|f| {
                // Lower levels burn proportionally less per cycle.
                let scale = 0.45 + 0.55 * (f as f64 + 1.0) / n_freqs as f64;
                top_gamma * scale
            })
            .collect();
        CpuPowerModel { gammas, c_mw }
    }

    /// Power at the given state and demand, mW.
    ///
    /// The frequency index is clamped to the calibrated range and the
    /// utilisation to `[0, 100]`.
    pub fn power_mw(&self, state: CpuState, demand: &Demand) -> f64 {
        match state {
            CpuState::C0 => {
                let f = demand.freq_index.min(self.gammas.len() - 1);
                let mu = demand.cpu_util.clamp(0.0, 100.0);
                self.gammas[f] * mu + self.c_mw
            }
            CpuState::C1 => constants::CPU_C1_MW,
            CpuState::C2 => constants::CPU_C2_MW,
            CpuState::Sleep => constants::CPU_SLEEP_MW,
        }
    }

    /// Number of calibrated frequency levels.
    pub fn n_freqs(&self) -> usize {
        self.gammas.len()
    }
}

/// Screen power model: brightness-linear when on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenPowerModel {
    /// Combined brightness slope `(alpha_b + alpha_w) / 2`, mW per level.
    slope: f64,
    /// Static panel power `C_screen`, mW.
    c_mw: f64,
}

impl ScreenPowerModel {
    /// Calibrate so the reference brightness reproduces Table III.
    pub fn calibrated() -> Self {
        let c_mw = 200.0;
        let slope = (constants::SCREEN_ON_MW - c_mw) / constants::SCREEN_REF_BRIGHTNESS;
        ScreenPowerModel { slope, c_mw }
    }

    /// Power at the given state and demand, mW.
    pub fn power_mw(&self, state: ScreenState, demand: &Demand) -> f64 {
        match state {
            ScreenState::On => self.slope * demand.brightness.clamp(0.0, 255.0) + self.c_mw,
            ScreenState::Off => constants::SCREEN_OFF_MW,
        }
    }
}

/// WiFi power model: piecewise linear in the packet rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiPowerModel {
    /// Low-regime slope, mW per packet/s.
    gamma_l: f64,
    /// Low-regime intercept, mW.
    c_l: f64,
    /// High-regime slope, mW per packet/s.
    gamma_h: f64,
    /// High-regime intercept, mW.
    c_h: f64,
    /// Regime threshold `t`, packets/s.
    threshold: f64,
}

impl WifiPowerModel {
    /// Calibrate so the reference access/send rates reproduce Table III.
    pub fn calibrated() -> Self {
        let c_l = 300.0;
        let gamma_l = (constants::WIFI_ACCESS_MW - c_l) / constants::WIFI_REF_ACCESS_PPS;
        let c_h = 600.0;
        let gamma_h = (constants::WIFI_SEND_MW - c_h) / constants::WIFI_REF_SEND_PPS;
        WifiPowerModel {
            gamma_l,
            c_l,
            gamma_h,
            c_h,
            threshold: constants::WIFI_THRESHOLD_PPS,
        }
    }

    /// Power at the given state and demand, mW.
    ///
    /// In the idle state the radio draws the idle constant regardless of
    /// queued packets; in active states the piecewise model of Table II
    /// applies.
    pub fn power_mw(&self, state: WifiState, demand: &Demand) -> f64 {
        match state {
            WifiState::Idle => constants::WIFI_IDLE_MW,
            WifiState::Access | WifiState::Send => {
                let p = demand.packet_rate.max(0.0);
                if p <= self.threshold {
                    self.gamma_l * p + self.c_l
                } else {
                    self.gamma_h * p + self.c_h
                }
            }
        }
    }

    /// The regime threshold `t`, packets/s.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// The full device power model (Table II + Table III calibration).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    cpu: CpuPowerModel,
    screen: ScreenPowerModel,
    wifi: WifiPowerModel,
    /// Per-phone scaling of the total (process/panel variation).
    scale: f64,
}

impl PowerModel {
    /// Calibrated model for a phone with `n_freqs` CPU levels and a
    /// device-wide power scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn calibrated(n_freqs: usize, scale: f64) -> Self {
        assert!(scale > 0.0, "power scale must be positive");
        PowerModel {
            cpu: CpuPowerModel::calibrated(n_freqs),
            screen: ScreenPowerModel::calibrated(),
            wifi: WifiPowerModel::calibrated(),
            scale,
        }
    }

    /// Total device power for a state and demand, mW (TEC driver power
    /// included when the TEC state is on; the module's pump power is
    /// accounted by the thermal model).
    pub fn device_power_mw(&self, state: &DeviceState, demand: &Demand) -> f64 {
        let tec = match state.tec {
            TecState::On => constants::TEC_ON_MW,
            TecState::Off => constants::TEC_OFF_MW,
        };
        (self.cpu.power_mw(state.cpu, demand)
            + self.screen.power_mw(state.screen, demand)
            + self.wifi.power_mw(state.wifi, demand)
            + tec)
            * self.scale
    }

    /// The CPU sub-model.
    pub fn cpu(&self) -> &CpuPowerModel {
        &self.cpu
    }

    /// The screen sub-model.
    pub fn screen(&self) -> &ScreenPowerModel {
        &self.screen
    }

    /// The WiFi sub-model.
    pub fn wifi(&self) -> &WifiPowerModel {
        &self.wifi
    }

    /// Per-phone power scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand_full() -> Demand {
        Demand {
            cpu_util: 100.0,
            freq_index: usize::MAX, // clamped to top
            brightness: constants::SCREEN_REF_BRIGHTNESS,
            packet_rate: 0.0,
        }
    }

    #[test]
    fn cpu_c0_full_util_matches_table_iii() {
        let m = CpuPowerModel::calibrated(8);
        let p = m.power_mw(CpuState::C0, &demand_full());
        assert!((p - constants::CPU_C0_MW).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn cpu_low_states_match_table_iii() {
        let m = CpuPowerModel::calibrated(8);
        let d = Demand::default();
        assert_eq!(m.power_mw(CpuState::C1, &d), constants::CPU_C1_MW);
        assert_eq!(m.power_mw(CpuState::C2, &d), constants::CPU_C2_MW);
        assert_eq!(m.power_mw(CpuState::Sleep, &d), constants::CPU_SLEEP_MW);
    }

    #[test]
    fn cpu_power_is_linear_in_utilization() {
        let m = CpuPowerModel::calibrated(4);
        let at = |mu: f64| {
            m.power_mw(
                CpuState::C0,
                &Demand {
                    cpu_util: mu,
                    freq_index: 3,
                    ..Demand::default()
                },
            )
        };
        let p0 = at(0.0);
        let p50 = at(50.0);
        let p100 = at(100.0);
        assert!(((p100 - p50) - (p50 - p0)).abs() < 1e-9);
    }

    #[test]
    fn lower_frequency_draws_less_at_same_utilization() {
        let m = CpuPowerModel::calibrated(8);
        let at = |f: usize| {
            m.power_mw(
                CpuState::C0,
                &Demand {
                    cpu_util: 80.0,
                    freq_index: f,
                    ..Demand::default()
                },
            )
        };
        assert!(at(0) < at(7));
    }

    #[test]
    fn screen_reference_brightness_matches_table_iii() {
        let m = ScreenPowerModel::calibrated();
        let p = m.power_mw(ScreenState::On, &Demand::default());
        assert!((p - constants::SCREEN_ON_MW).abs() < 1e-9);
        assert_eq!(
            m.power_mw(ScreenState::Off, &Demand::default()),
            constants::SCREEN_OFF_MW
        );
    }

    #[test]
    fn screen_power_grows_with_brightness() {
        let m = ScreenPowerModel::calibrated();
        let at = |b: f64| {
            m.power_mw(
                ScreenState::On,
                &Demand {
                    brightness: b,
                    ..Demand::default()
                },
            )
        };
        assert!(at(255.0) > at(100.0));
        assert!(at(0.0) > 0.0);
    }

    #[test]
    fn wifi_reference_rates_match_table_iii() {
        let m = WifiPowerModel::calibrated();
        let at = |state: WifiState, p: f64| {
            m.power_mw(
                state,
                &Demand {
                    packet_rate: p,
                    ..Demand::default()
                },
            )
        };
        assert!(
            (at(WifiState::Access, constants::WIFI_REF_ACCESS_PPS) - constants::WIFI_ACCESS_MW)
                .abs()
                < 1e-9
        );
        assert!(
            (at(WifiState::Send, constants::WIFI_REF_SEND_PPS) - constants::WIFI_SEND_MW).abs()
                < 1e-9
        );
        assert_eq!(at(WifiState::Idle, 500.0), constants::WIFI_IDLE_MW);
    }

    #[test]
    fn wifi_model_is_piecewise_with_threshold() {
        let m = WifiPowerModel::calibrated();
        let at = |p: f64| {
            m.power_mw(
                WifiState::Send,
                &Demand {
                    packet_rate: p,
                    ..Demand::default()
                },
            )
        };
        let below = at(m.threshold() - 1.0);
        let above = at(m.threshold() + 1.0);
        // Two different linear regimes.
        assert!((above - below).abs() > 1.0);
    }

    #[test]
    fn device_power_sums_components_and_tec() {
        let m = PowerModel::calibrated(8, 1.0);
        let mut s = DeviceState::awake();
        let d = Demand {
            cpu_util: 100.0,
            freq_index: 7,
            brightness: constants::SCREEN_REF_BRIGHTNESS,
            packet_rate: constants::WIFI_REF_ACCESS_PPS,
        };
        let without_tec = m.device_power_mw(&s, &d);
        s.tec = TecState::On;
        let with_tec = m.device_power_mw(&s, &d);
        assert!((with_tec - without_tec - constants::TEC_ON_MW).abs() < 1e-9);
        let expected = constants::CPU_C0_MW + constants::SCREEN_ON_MW + constants::WIFI_ACCESS_MW;
        assert!((without_tec - expected).abs() < 1e-6);
    }

    #[test]
    fn suspended_phone_draws_floor_power() {
        let m = PowerModel::calibrated(8, 1.0);
        let p = m.device_power_mw(&DeviceState::asleep(), &Demand::default());
        let expected = constants::CPU_SLEEP_MW + constants::SCREEN_OFF_MW + constants::WIFI_IDLE_MW;
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn scale_multiplies_total() {
        let base = PowerModel::calibrated(8, 1.0);
        let scaled = PowerModel::calibrated(8, 1.1);
        let s = DeviceState::awake();
        let d = Demand::default();
        let ratio = scaled.device_power_mw(&s, &d) / base.device_power_mw(&s, &d);
        assert!((ratio - 1.1).abs() < 1e-9);
    }
}
