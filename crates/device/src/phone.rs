//! The evaluation phones (Section V: Nexus, Honor, Lenovo).
//!
//! The paper tests three phones "with CPU frequency ranging from 1040 kHz
//! to 2000 kHz, with installed Android ROM version 5.0-7.1" (the units are
//! clearly MHz). Per-phone differences matter in two places: the device
//! power scale (Fig. 15's different active-power traces) and the compute
//! speed, which scales the scheduler overhead of Fig. 16.

use crate::power::PowerModel;

/// A phone profile: identity, CPU frequency ladder, power scale and
/// compute speed.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneProfile {
    /// Marketing name used in the paper's figures.
    pub name: &'static str,
    /// Android ROM version installed.
    pub android_version: &'static str,
    /// Available CPU frequencies, MHz, ascending.
    pub freqs_mhz: Vec<u32>,
    /// Device-wide power scale relative to the Nexus (panel/process
    /// variation).
    pub power_scale: f64,
    /// Compute speed relative to the Nexus; divides scheduler overhead.
    pub compute_speed: f64,
}

impl PhoneProfile {
    /// The Nexus 6 of the motivation experiments (Android 5.0.1).
    pub fn nexus() -> Self {
        PhoneProfile {
            name: "Nexus",
            android_version: "5.0.1",
            freqs_mhz: vec![1040, 1190, 1340, 1490, 1640, 1790, 1940, 2000],
            power_scale: 1.0,
            compute_speed: 1.0,
        }
    }

    /// The Honor test phone (Android 6.0).
    pub fn honor() -> Self {
        PhoneProfile {
            name: "Honor",
            android_version: "6.0",
            freqs_mhz: vec![1040, 1250, 1450, 1660, 1850],
            power_scale: 0.92,
            compute_speed: 0.78,
        }
    }

    /// The Lenovo test phone (Android 7.1).
    pub fn lenovo() -> Self {
        PhoneProfile {
            name: "Lenovo",
            android_version: "7.1",
            freqs_mhz: vec![1100, 1300, 1500, 1700, 1900, 2000],
            power_scale: 1.07,
            compute_speed: 1.22,
        }
    }

    /// All three evaluation phones.
    pub fn all() -> Vec<PhoneProfile> {
        vec![
            PhoneProfile::nexus(),
            PhoneProfile::honor(),
            PhoneProfile::lenovo(),
        ]
    }

    /// Look a phone up by its figure name, case-insensitively — the form
    /// experiment datasets name phones in (`"phone": "Nexus"`).
    pub fn by_name(name: &str) -> Option<PhoneProfile> {
        PhoneProfile::all()
            .into_iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// The calibrated power model for this phone.
    pub fn power_model(&self) -> PowerModel {
        PowerModel::calibrated(self.freqs_mhz.len(), self.power_scale)
    }

    /// Number of CPU frequency levels (`freq = 0, 1, ..., n` in Table II).
    pub fn n_freqs(&self) -> usize {
        self.freqs_mhz.len()
    }

    /// Highest available frequency, MHz.
    pub fn max_freq_mhz(&self) -> u32 {
        *self.freqs_mhz.last().expect("profile has frequencies")
    }

    /// Lowest available frequency, MHz.
    pub fn min_freq_mhz(&self) -> u32 {
        *self.freqs_mhz.first().expect("profile has frequencies")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_range_matches_paper() {
        // "CPU frequency ranging from 1040 to 2000".
        let min = PhoneProfile::all()
            .iter()
            .map(PhoneProfile::min_freq_mhz)
            .min()
            .expect("phones");
        let max = PhoneProfile::all()
            .iter()
            .map(PhoneProfile::max_freq_mhz)
            .max()
            .expect("phones");
        assert_eq!(min, 1040);
        assert_eq!(max, 2000);
    }

    #[test]
    fn android_versions_span_5_to_7() {
        let phones = PhoneProfile::all();
        assert!(phones.iter().any(|p| p.android_version.starts_with("5")));
        assert!(phones.iter().any(|p| p.android_version.starts_with("7")));
    }

    #[test]
    fn frequencies_are_ascending() {
        for p in PhoneProfile::all() {
            for w in p.freqs_mhz.windows(2) {
                assert!(w[0] < w[1], "{}: not ascending", p.name);
            }
        }
    }

    #[test]
    fn power_model_reflects_scale() {
        let nexus = PhoneProfile::nexus().power_model();
        let lenovo = PhoneProfile::lenovo().power_model();
        assert!(lenovo.scale() > nexus.scale());
    }

    #[test]
    fn names_are_distinct() {
        let phones = PhoneProfile::all();
        assert_eq!(phones.len(), 3);
        assert_ne!(phones[0].name, phones[1].name);
        assert_ne!(phones[1].name, phones[2].name);
    }

    #[test]
    fn compute_speeds_differ_for_fig16() {
        let phones = PhoneProfile::all();
        let speeds: Vec<f64> = phones.iter().map(|p| p.compute_speed).collect();
        assert!(speeds.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    }
}
