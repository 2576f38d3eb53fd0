//! Shared immutable fleet profiles and the devices derived from them.
//!
//! A fleet is built from a handful of *cohorts* — shared, immutable
//! [`FleetProfile`]s held behind `Arc` — and thousands of cheap
//! per-device [`DeviceSpec`]s derived from them. A device spec carries
//! only what differs between devices: a trace seed, an RNG-seeded
//! demand perturbation and an ambient-temperature offset. Everything
//! heavy (workload generator parameters, phone model, simulation
//! configuration, calibrator spec) lives once per cohort and is never
//! copied per device.

use std::sync::Arc;

use capman_core::config::SimConfig;
use capman_core::experiments::PolicyKind;
use capman_core::online::CalibratorSpec;
use capman_device::phone::PhoneProfile;
use capman_workload::{generate_perturbed, Perturbation, Trace, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One cohort: the shared immutable description thousands of devices
/// are instantiated from.
#[derive(Debug, Clone)]
pub struct FleetProfile {
    /// Cohort label (reports, staleness histograms).
    pub name: String,
    /// The scheduling policy the cohort's devices run.
    pub kind: PolicyKind,
    /// Workload family of the cohort's traces.
    pub workload: WorkloadKind,
    /// Phone model shared by the cohort.
    pub phone: PhoneProfile,
    /// Simulation configuration (horizon, ambient base, TEC).
    pub config: SimConfig,
    /// Calibrator configuration for CAPMAN cohorts.
    pub calibrator: CalibratorSpec,
    /// Base seed; device `i` derives its own seed stream from it.
    pub base_seed: u64,
    /// Half-width of the uniform per-device ambient offset, degC.
    pub ambient_jitter_c: f64,
    /// Relative half-width of the per-device demand perturbation.
    pub demand_jitter: f64,
}

impl FleetProfile {
    /// A CAPMAN cohort with the paper's defaults on the Nexus.
    pub fn capman(name: impl Into<String>, workload: WorkloadKind, base_seed: u64) -> Self {
        FleetProfile {
            name: name.into(),
            kind: PolicyKind::Capman,
            workload,
            phone: PhoneProfile::nexus(),
            config: SimConfig::paper_with_tec(),
            calibrator: CalibratorSpec::paper(),
            base_seed,
            ambient_jitter_c: 3.0,
            demand_jitter: 0.15,
        }
    }

    /// Derive device `ordinal`'s spec. Deterministic: the same profile
    /// and ordinal always produce the same device.
    pub fn device(&self, cohort: usize, ordinal: u64) -> DeviceSpec {
        // Split one RNG stream per device off the cohort seed; the
        // trace seed and the perturbation seed are separated so growing
        // the perturbation model never reshuffles trace generation.
        let mut rng = StdRng::seed_from_u64(self.base_seed ^ ordinal.wrapping_mul(0x9E37_79B9));
        let trace_seed: u64 = rng.gen();
        let perturb_seed: u64 = rng.gen();
        let ambient_c = if self.ambient_jitter_c > 0.0 {
            self.config.ambient_c + rng.gen_range(-self.ambient_jitter_c..=self.ambient_jitter_c)
        } else {
            self.config.ambient_c
        };
        DeviceSpec {
            device_id: (cohort as u64) << 32 | ordinal,
            cohort,
            trace_seed,
            perturbation: Perturbation::sampled(perturb_seed, self.demand_jitter),
            ambient_c,
        }
    }

    /// Generate the (perturbed) trace of one device of this cohort.
    pub fn trace(&self, spec: &DeviceSpec) -> Trace {
        generate_perturbed(
            self.workload,
            self.config.max_horizon_s,
            spec.trace_seed,
            spec.perturbation,
        )
    }

    /// The device's simulation configuration: the cohort configuration
    /// with the device's perturbed ambient.
    pub fn device_config(&self, spec: &DeviceSpec) -> SimConfig {
        SimConfig {
            ambient_c: spec.ambient_c,
            ..self.config
        }
    }
}

/// The cheap per-device record: everything that differs from the
/// cohort's shared profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Fleet-unique id (`cohort << 32 | ordinal`).
    pub device_id: u64,
    /// Index of the cohort profile this device instantiates.
    pub cohort: usize,
    /// Trace-generation seed.
    pub trace_seed: u64,
    /// Demand perturbation applied on top of the shared trace family.
    pub perturbation: Perturbation,
    /// Perturbed ambient temperature, degC.
    pub ambient_c: f64,
}

/// A complete fleet: shared cohort profiles plus the device list.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Cohort profiles, `Arc`-shared with every shard.
    pub profiles: Vec<Arc<FleetProfile>>,
    /// Devices in fleet order (outcome order follows this).
    pub devices: Vec<DeviceSpec>,
}

impl Fleet {
    /// Build a fleet with `devices_per_profile` devices in each cohort,
    /// interleaved round-robin so every shard sees a workload mix.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or `devices_per_profile` is zero.
    pub fn build(profiles: Vec<FleetProfile>, devices_per_profile: usize) -> Self {
        assert!(!profiles.is_empty(), "fleet needs at least one profile");
        assert!(devices_per_profile > 0, "fleet needs devices");
        let profiles: Vec<Arc<FleetProfile>> = profiles.into_iter().map(Arc::new).collect();
        let mut devices = Vec::with_capacity(profiles.len() * devices_per_profile);
        for ordinal in 0..devices_per_profile as u64 {
            for (cohort, profile) in profiles.iter().enumerate() {
                devices.push(profile.device(cohort, ordinal));
            }
        }
        Fleet { profiles, devices }
    }

    /// Total devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

/// A fleet described by rule instead of by roster: cohort profiles plus
/// a device count, with every [`DeviceSpec`] derived on demand.
///
/// [`Fleet`] materializes one spec per device, which is fine at tens of
/// thousands of devices and ruinous at a million (a spec is ~64 bytes;
/// the roster alone would be tens of megabytes of warm-up allocation).
/// A plan stores only the shared profiles; [`FleetPlan::spec`] derives
/// device `i`'s spec arithmetically in exactly the order
/// [`Fleet::build`] deals devices (ordinal-major, cohorts interleaved
/// round-robin), so plan-driven runs enumerate the identical fleet.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    profiles: Vec<Arc<FleetProfile>>,
    devices_per_profile: usize,
}

impl FleetPlan {
    /// A plan with `devices_per_profile` devices in each cohort.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or `devices_per_profile` is zero.
    pub fn new(profiles: Vec<FleetProfile>, devices_per_profile: usize) -> Self {
        assert!(!profiles.is_empty(), "plan needs at least one profile");
        assert!(devices_per_profile > 0, "plan needs devices");
        FleetPlan {
            profiles: profiles.into_iter().map(Arc::new).collect(),
            devices_per_profile,
        }
    }

    /// The shared cohort profiles.
    pub fn profiles(&self) -> &[Arc<FleetProfile>] {
        &self.profiles
    }

    /// Total devices the plan describes.
    pub fn len(&self) -> usize {
        self.profiles.len() * self.devices_per_profile
    }

    /// Whether the plan describes no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Derive device `i`'s spec (in [`Fleet::build`] deal order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn spec(&self, i: usize) -> DeviceSpec {
        assert!(i < self.len(), "device index out of range");
        let cohort = i % self.profiles.len();
        let ordinal = (i / self.profiles.len()) as u64;
        self.profiles[cohort].device(cohort, ordinal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_derivation_is_deterministic() {
        let p = FleetProfile::capman("video", WorkloadKind::Video, 42);
        let a = p.device(0, 5);
        let b = p.device(0, 5);
        assert_eq!(a, b);
        let c = p.device(0, 6);
        assert_ne!(a.trace_seed, c.trace_seed, "ordinals must diverge");
    }

    #[test]
    fn ambient_jitter_stays_in_band() {
        let p = FleetProfile::capman("video", WorkloadKind::Video, 1);
        for ordinal in 0..200 {
            let d = p.device(0, ordinal);
            assert!((d.ambient_c - p.config.ambient_c).abs() <= p.ambient_jitter_c + 1e-12);
        }
    }

    #[test]
    fn fleet_build_interleaves_cohorts() {
        let fleet = Fleet::build(
            vec![
                FleetProfile::capman("a", WorkloadKind::Video, 1),
                FleetProfile::capman("b", WorkloadKind::Pcmark, 2),
            ],
            3,
        );
        assert_eq!(fleet.len(), 6);
        let cohorts: Vec<usize> = fleet.devices.iter().map(|d| d.cohort).collect();
        assert_eq!(cohorts, [0, 1, 0, 1, 0, 1]);
        // Ids are fleet-unique.
        let mut ids: Vec<u64> = fleet.devices.iter().map(|d| d.device_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn plan_derives_exactly_the_built_fleet() {
        let profiles = || {
            vec![
                FleetProfile::capman("a", WorkloadKind::Video, 1),
                FleetProfile::capman("b", WorkloadKind::Pcmark, 2),
                FleetProfile::capman("c", WorkloadKind::Geekbench, 3),
            ]
        };
        let fleet = Fleet::build(profiles(), 4);
        let plan = FleetPlan::new(profiles(), 4);
        assert_eq!(plan.len(), fleet.len());
        for (i, spec) in fleet.devices.iter().enumerate() {
            assert_eq!(plan.spec(i), *spec, "device {i} must derive identically");
        }
    }

    #[test]
    fn perturbed_traces_differ_across_devices_but_share_structure() {
        let mut shortened = FleetProfile::capman("video", WorkloadKind::Video, 9);
        shortened.config.max_horizon_s = 900.0;
        let d0 = shortened.device(0, 0);
        let d1 = shortened.device(0, 1);
        let t0 = shortened.trace(&d0);
        let t1 = shortened.trace(&d1);
        assert_ne!(t0, t1, "devices must not share one canonical trace");
        assert_eq!(t0.name(), t1.name(), "same workload family");
    }
}
