//! The experiment harness: one entry point per evaluation figure.
//!
//! Everything the figures binary and the Criterion benches print flows
//! through these functions, so tests, benches and documentation all see
//! the same numbers. Every multi-scenario figure fans its grid of
//! independent simulations out through [`ScenarioRunner`], so the
//! harness wall clock scales with cores while outcomes stay ordered by
//! scenario index (see [`crate::scenario`] for the determinism
//! contract).

use capman_battery::chemistry::Chemistry;
use capman_battery::pack::BatteryPack;
use capman_device::phone::PhoneProfile;
use capman_workload::{generate, Trace, WorkloadKind};

use crate::baselines::{DualPolicy, HeuristicPolicy, PracticePolicy};
use crate::capman::CapmanPolicy;
use crate::config::SimConfig;
use crate::metrics::Outcome;
use crate::online::Calibrator;
use crate::oracle::OraclePolicy;
use crate::policy::Policy;
use crate::scenario::{Scenario, ScenarioRunner};

/// The five scheduling policies of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The CAPMAN scheduler (with TEC).
    Capman,
    /// The clairvoyant offline baseline (with TEC).
    Oracle,
    /// One battery of the same total capacity, no scheduling, no TEC.
    Practice,
    /// big.LITTLE, LITTLE first, no TEC.
    Dual,
    /// big.LITTLE with reactive utilisation prediction, no TEC.
    Heuristic,
}

impl PolicyKind {
    /// All policies in the figure order of the paper.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Oracle,
        PolicyKind::Capman,
        PolicyKind::Heuristic,
        PolicyKind::Dual,
        PolicyKind::Practice,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Capman => "CAPMAN",
            PolicyKind::Oracle => "Oracle",
            PolicyKind::Practice => "Practice",
            PolicyKind::Dual => "Dual",
            PolicyKind::Heuristic => "Heuristic",
        }
    }

    /// Whether this policy's prototype carries the TEC facility.
    pub fn has_tec(self) -> bool {
        matches!(self, PolicyKind::Capman | PolicyKind::Oracle)
    }

    /// Parse a policy by its figure label, case-insensitively — the form
    /// experiment variants name policies in (`policy: CAPMAN`).
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        let name = name.trim();
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                format!("unknown policy {name:?} (expected one of Oracle, CAPMAN, Heuristic, Dual, Practice)")
            })
    }
}

/// The original phone's stock battery capacity, ampere-hours (Nexus 6
/// ships a 3220 mAh cell). The *Practice* baseline is "the original
/// phone": one stock battery, no switch facility, no TEC. The paper's
/// "same capacity" claim refers to the prototype pack fitting the same
/// battery volume budget thanks to the big cell's higher energy density;
/// see EXPERIMENTS.md for the discussion.
pub const STOCK_BATTERY_AH: f64 = 3.6;

/// Build the battery pack a policy runs on: the paper's dual prototype,
/// or the original phone's single stock cell for *Practice*.
pub fn build_pack(kind: PolicyKind) -> BatteryPack {
    match kind {
        PolicyKind::Practice => BatteryPack::single(Chemistry::Nca, STOCK_BATTERY_AH),
        _ => BatteryPack::paper_prototype(),
    }
}

/// Build a policy instance for a trace and phone.
pub fn build_policy(kind: PolicyKind, trace: &Trace, phone: &PhoneProfile) -> Box<dyn Policy> {
    match kind {
        PolicyKind::Capman => Box::new(CapmanPolicy::new(phone.compute_speed)),
        PolicyKind::Oracle => Box::new(OraclePolicy::new(trace.clone(), phone.power_model())),
        PolicyKind::Practice => Box::new(PracticePolicy),
        PolicyKind::Dual => Box::new(DualPolicy),
        PolicyKind::Heuristic => Box::new(HeuristicPolicy::new()),
    }
}

/// Run one discharge cycle with the evaluation defaults.
pub fn run_policy(
    kind: PolicyKind,
    workload: WorkloadKind,
    phone: PhoneProfile,
    seed: u64,
) -> Outcome {
    let config = if kind.has_tec() {
        SimConfig::paper_with_tec()
    } else {
        SimConfig::paper()
    };
    run_policy_with(kind, workload, phone, seed, config)
}

/// Run one discharge cycle with an explicit configuration (used by the
/// ablation benches and tests).
pub fn run_policy_with(
    kind: PolicyKind,
    workload: WorkloadKind,
    phone: PhoneProfile,
    seed: u64,
    config: SimConfig,
) -> Outcome {
    Scenario::new(kind, workload, phone, seed, config).run()
}

/// The scenario behind one cell of the evaluation grids: `kind` on
/// `workload` with the evaluation-default configuration.
fn default_scenario(
    kind: PolicyKind,
    workload: WorkloadKind,
    phone: PhoneProfile,
    seed: u64,
) -> Scenario {
    let config = if kind.has_tec() {
        SimConfig::paper_with_tec()
    } else {
        SimConfig::paper()
    };
    Scenario::new(kind, workload, phone, seed, config)
}

/// One row of Fig. 12: every policy on one workload (same seed, so all
/// policies see the identical trace), fanned out concurrently.
pub fn fig12_row(workload: WorkloadKind, seed: u64) -> Vec<Outcome> {
    let scenarios: Vec<Scenario> = PolicyKind::ALL
        .iter()
        .map(|&kind| default_scenario(kind, workload, PhoneProfile::nexus(), seed))
        .collect();
    ScenarioRunner::new().run(&scenarios)
}

/// The full Fig. 12 grid: six workloads x five policies, run as one
/// concurrent batch and reassembled row-major.
pub fn fig12(seed: u64) -> Vec<Vec<Outcome>> {
    let workloads = WorkloadKind::fig12();
    let scenarios: Vec<Scenario> = workloads
        .iter()
        .flat_map(|&w| {
            PolicyKind::ALL
                .iter()
                .map(move |&kind| default_scenario(kind, w, PhoneProfile::nexus(), seed))
        })
        .collect();
    let mut outcomes = ScenarioRunner::new().run(&scenarios).into_iter();
    workloads
        .iter()
        .map(|_| {
            (0..PolicyKind::ALL.len())
                .map(|_| outcomes.next().expect("grid size"))
                .collect()
        })
        .collect()
}

/// Fig. 13: CAPMAN's power/temperature telemetry per workload.
pub fn fig13(seed: u64) -> Vec<Outcome> {
    let scenarios: Vec<Scenario> = WorkloadKind::fig12()
        .iter()
        .map(|&w| default_scenario(PolicyKind::Capman, w, PhoneProfile::nexus(), seed))
        .collect();
    ScenarioRunner::new().run(&scenarios)
}

/// One Fig. 14 point: big/LITTLE activation ratio and the temperature
/// reduction the TEC achieves versus the same run without it.
#[derive(Debug, Clone)]
pub struct Fig14Point {
    /// Workload label.
    pub workload: String,
    /// big:LITTLE activation-time ratio.
    pub big_little_ratio: f64,
    /// Peak-hot-spot reduction vs the no-TEC run, Kelvin.
    pub temp_reduction_k: f64,
}

/// Fig. 14: temperature reduction vs big/LITTLE ratio per workload.
/// Each workload contributes a with-TEC and a without-TEC scenario; the
/// full set of pairs runs as one concurrent batch.
pub fn fig14(seed: u64) -> Vec<Fig14Point> {
    let workloads = WorkloadKind::fig12();
    let scenarios: Vec<Scenario> = workloads
        .iter()
        .flat_map(|&w| {
            [
                default_scenario(PolicyKind::Capman, w, PhoneProfile::nexus(), seed),
                Scenario::new(
                    PolicyKind::Capman,
                    w,
                    PhoneProfile::nexus(),
                    seed,
                    SimConfig::paper(), // TEC disabled
                ),
            ]
        })
        .collect();
    let outcomes = ScenarioRunner::new().run(&scenarios);
    workloads
        .iter()
        .zip(outcomes.chunks_exact(2))
        .map(|(&w, pair)| {
            let (with_tec, without) = (&pair[0], &pair[1]);
            Fig14Point {
                workload: w.label(),
                big_little_ratio: with_tec.big_little_ratio().unwrap_or(f64::INFINITY),
                temp_reduction_k: without.max_hotspot_c - with_tec.max_hotspot_c,
            }
        })
        .collect()
}

/// Fig. 15: a CAPMAN snapshot (telemetry) on each of the three phones
/// under the same workload trace.
pub fn fig15(workload: WorkloadKind, seed: u64) -> Vec<Outcome> {
    let scenarios: Vec<Scenario> = PhoneProfile::all()
        .into_iter()
        .map(|phone| default_scenario(PolicyKind::Capman, workload, phone, seed))
        .collect();
    ScenarioRunner::new().run(&scenarios)
}

/// Run one discharge cycle on an explicit pack (ablations that swap the
/// battery hardware while keeping the policy).
pub fn run_with_pack(
    kind: PolicyKind,
    workload: WorkloadKind,
    phone: PhoneProfile,
    seed: u64,
    config: SimConfig,
    pack: BatteryPack,
) -> Outcome {
    Scenario::new(kind, workload, phone, seed, config)
        .with_pack(pack)
        .run()
}

/// Mean and standard deviation of service time over several seeds — the
/// scatter behind the paper's "green dots ... collected from multiple
/// simulation experiments" in Fig. 12.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Policy label.
    pub policy: String,
    /// Mean service time, seconds.
    pub mean_s: f64,
    /// Standard deviation of the service time, seconds.
    pub std_s: f64,
    /// Number of seeds.
    pub runs: usize,
}

/// Fig. 12 with seed scatter: every policy on one workload across the
/// given seeds.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn fig12_stats(workload: WorkloadKind, seeds: &[u64]) -> Vec<ServiceStats> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let scenarios: Vec<Scenario> = PolicyKind::ALL
        .iter()
        .flat_map(|&kind| {
            seeds
                .iter()
                .map(move |&seed| default_scenario(kind, workload, PhoneProfile::nexus(), seed))
        })
        .collect();
    let outcomes = ScenarioRunner::new().run(&scenarios);
    PolicyKind::ALL
        .iter()
        .zip(outcomes.chunks_exact(seeds.len()))
        .map(|(&kind, per_policy)| {
            let times: Vec<f64> = per_policy.iter().map(|o| o.service_time_s).collect();
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
            ServiceStats {
                policy: kind.label().to_string(),
                mean_s: mean,
                std_s: var.sqrt(),
                runs: times.len(),
            }
        })
        .collect()
}

/// One point of the ambient-temperature sweep.
#[derive(Debug, Clone)]
pub struct AmbientPoint {
    /// Ambient temperature, degC.
    pub ambient_c: f64,
    /// Service time achieved, seconds.
    pub service_time_s: f64,
    /// Seconds the TEC ran.
    pub tec_on_s: f64,
    /// Peak hot-spot temperature, degC.
    pub max_hotspot_c: f64,
}

/// Ambient sensitivity: the paper claims CAPMAN "maintains the ambient
/// temperature even under skewed loads"; this sweep runs the eta-50%
/// mix at several ambients and reports how the TEC and service respond.
pub fn ambient_sweep(ambients: &[f64], seed: u64, horizon_s: f64) -> Vec<AmbientPoint> {
    let scenarios: Vec<Scenario> = ambients
        .iter()
        .map(|&ambient_c| {
            let config = SimConfig {
                ambient_c,
                max_horizon_s: horizon_s,
                tec_enabled: true,
                ..SimConfig::paper()
            };
            Scenario::new(
                PolicyKind::Capman,
                WorkloadKind::EtaStatic { eta: 50 },
                PhoneProfile::nexus(),
                seed,
                config,
            )
        })
        .collect();
    ambients
        .iter()
        .zip(ScenarioRunner::new().run(&scenarios))
        .map(|(&ambient_c, o)| AmbientPoint {
            ambient_c,
            service_time_s: o.service_time_s,
            tec_on_s: o.tec_on_s,
            max_hotspot_c: o.max_hotspot_c,
        })
        .collect()
}

/// One Fig. 16 point: scheduler overhead at a discount factor.
#[derive(Debug, Clone)]
pub struct Fig16Point {
    /// Phone name.
    pub phone: String,
    /// Discount factor `rho`.
    pub rho: f64,
    /// Mean calibration overhead, microseconds (compute-speed
    /// normalised).
    pub overhead_us: f64,
    /// Similarity iterations per calibration.
    pub iterations: usize,
}

/// Fig. 16: calibration overhead versus the discount factor `rho`, per
/// phone. Profiles a short PCMark run once, then measures calibration
/// cost on the resulting MDP at each `rho`.
pub fn fig16(rhos: &[f64], seed: u64) -> Vec<Fig16Point> {
    use crate::policy::{DecisionContext, Observation};
    use capman_device::states::DeviceState;

    // Build a realistic profile by replaying a short PCMark cycle
    // through a CAPMAN policy on the Nexus.
    let mut seeding = CapmanPolicy::new(1.0);
    {
        let trace = generate(WorkloadKind::Pcmark, 1800.0, seed);
        let mut state = DeviceState::asleep();
        let mut t = 0.0;
        while t < 1800.0 {
            let prev = state;
            let mut first = None;
            for seg in trace.segments_starting_in(t, t + 1.0) {
                for &a in &seg.actions {
                    state = state.apply(a);
                    first.get_or_insert(a);
                }
            }
            let demand = trace.at(t).demand;
            let power = PhoneProfile::nexus()
                .power_model()
                .device_power_mw(&state, &demand)
                / 1000.0;
            seeding.observe(&Observation {
                time_s: t,
                prev_state: prev,
                action: first.unwrap_or(capman_device::fsm::Action::TimerTick),
                new_state: state,
                reward: 0.9,
                power_w: power,
            });
            // Emulate the scheduler's own switching so the graph has
            // battery-switch action nodes.
            let ctx = DecisionContext {
                time_s: t,
                state,
                actions: &[],
                last_power_w: power,
                big_soc: 0.8,
                little_soc: 0.8,
                big_usable: true,
                little_usable: true,
                big_head: 1.0,
                little_head: 1.0,
                hotspot_c: 30.0,
                tec_on: false,
                dual: true,
            };
            let chosen = seeding.decide(&ctx);
            let switch = if chosen == state.battery {
                None
            } else {
                Some(chosen)
            };
            if let Some(class) = switch {
                let action = match class {
                    capman_battery::chemistry::Class::Big => {
                        capman_device::fsm::Action::SwitchToBig
                    }
                    capman_battery::chemistry::Class::Little => {
                        capman_device::fsm::Action::SwitchToLittle
                    }
                };
                let next = state.apply(action);
                seeding.observe(&Observation {
                    time_s: t,
                    prev_state: state,
                    action,
                    new_state: next,
                    reward: 0.9,
                    power_w: power,
                });
                state = next;
            }
            t += 1.0;
        }
    }
    let profiler = seeding.profiler();

    let mut points = Vec::new();
    for phone in PhoneProfile::all() {
        for &rho in rhos {
            let mut cal = Calibrator::new(rho, 0.1, 1.0);
            cal.recalibrate(0.0, profiler, phone.compute_speed);
            let calibration = cal.calibration().expect("calibrated");
            points.push(Fig16Point {
                phone: phone.name.to_string(),
                rho,
                overhead_us: cal.overhead_us(),
                iterations: calibration.similarity_iterations,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: PolicyKind, workload: WorkloadKind) -> Outcome {
        let config = SimConfig {
            max_horizon_s: 1500.0,
            tec_enabled: kind.has_tec(),
            ..SimConfig::paper()
        };
        run_policy_with(kind, workload, PhoneProfile::nexus(), 11, config)
    }

    #[test]
    fn all_policies_run_a_short_cycle() {
        for kind in PolicyKind::ALL {
            let o = quick(kind, WorkloadKind::Video);
            assert!(o.service_time_s > 0.0, "{:?}", kind);
            assert_eq!(o.policy, kind.label());
        }
    }

    #[test]
    fn practice_gets_a_single_pack_others_dual() {
        assert!(build_pack(PolicyKind::Practice).little().is_none());
        assert!(build_pack(PolicyKind::Capman).little().is_some());
        assert_eq!(
            build_pack(PolicyKind::Practice).capacity_ah(),
            STOCK_BATTERY_AH
        );
        assert_eq!(build_pack(PolicyKind::Dual).capacity_ah(), 5.0);
    }

    #[test]
    fn fig16_overhead_grows_with_rho() {
        let points = fig16(&[0.05, 0.9], 5);
        let nexus: Vec<&Fig16Point> = points.iter().filter(|p| p.phone == "Nexus").collect();
        assert_eq!(nexus.len(), 2);
        assert!(
            nexus[1].iterations >= nexus[0].iterations,
            "iterations at rho=0.9 ({}) should be >= rho=0.05 ({})",
            nexus[1].iterations,
            nexus[0].iterations
        );
    }

    #[test]
    fn hotter_ambient_works_the_tec_harder() {
        let points = ambient_sweep(&[20.0, 38.0], 5, 2500.0);
        assert_eq!(points.len(), 2);
        assert!(
            points[1].tec_on_s >= points[0].tec_on_s,
            "TEC time at 38C ({}) should be >= at 20C ({})",
            points[1].tec_on_s,
            points[0].tec_on_s
        );
    }

    #[test]
    fn policy_parse_round_trips_every_label() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()), Ok(kind));
            assert_eq!(PolicyKind::parse(&kind.label().to_lowercase()), Ok(kind));
        }
        assert!(PolicyKind::parse("fifo").is_err());
    }

    #[test]
    fn same_seed_gives_identical_traces_across_policies() {
        let a = quick(PolicyKind::Dual, WorkloadKind::Pcmark);
        let b = quick(PolicyKind::Heuristic, WorkloadKind::Pcmark);
        assert_eq!(a.workload, b.workload);
    }
}
