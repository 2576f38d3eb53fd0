//! Regenerate every table and figure of the CAPMAN paper.
//!
//! ```text
//! cargo run --release -p capman-bench --bin figures            # everything
//! cargo run --release -p capman-bench --bin figures -- fig12   # one experiment
//! ```
//!
//! An unknown id exits 2 and lists the valid ones.
//!
//! Each section prints the measured series/rows next to the paper's
//! stated values where the paper gives them. EXPERIMENTS.md records the
//! comparison.

use capman_battery::cell::Cell;
use capman_battery::chemistry::{Chemistry, Class, Features};
use capman_battery::pack::BatteryPack;
use capman_battery::switch::SwitchFacility;
use capman_battery::vedge::VEdgeProbe;
use capman_core::baselines::PracticePolicy;
use capman_core::config::SimConfig;
use capman_core::experiments::{self, PolicyKind};
use capman_core::sim::Simulator;
use capman_device::constants;
use capman_device::phone::PhoneProfile;
use capman_device::power::{Demand, PowerModel};
use capman_device::states::{CpuState, DeviceState, ScreenState, WifiState};
use capman_thermal::tec::Tec;
use capman_workload::{generate, WorkloadKind};

const SEED: u64 = 42;

/// Every experiment id, in the order a bare run prints them.
const EXPERIMENTS: [(&str, fn()); 18] = [
    ("fig1", fig1),
    ("fig2a", fig2a),
    ("fig2b", fig2b),
    ("fig3", fig3),
    ("fig4", fig4),
    ("table1", table1),
    ("fig6", fig6),
    ("table2", table2),
    ("table3", table3),
    ("fig9", fig9),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig12x", fig12x),
    ("practice5", practice5),
    ("ambient", ambient),
];

fn main() {
    let filter = std::env::args().nth(1);
    if let Some(id) = filter.as_deref() {
        if !EXPERIMENTS.iter().any(|&(name, _)| name == id) {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
            eprintln!(
                "figures: unknown id {id:?}; expected one of: {}",
                ids.join(" ")
            );
            std::process::exit(2);
        }
    }
    for (name, run) in EXPERIMENTS {
        if filter.as_deref().is_none_or(|id| id == name) {
            run();
        }
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Fig. 1: LMO vs NCA electron release (cumulative charge) under the same
/// constant-power pull.
fn fig1() {
    header("Fig 1: LMO vs NCA power-supply behaviour (cumulative charge, 2 W pull)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "t [s]", "LMO [C]", "LMO [V]", "NCA [C]", "NCA [V]"
    );
    let mut lmo = Cell::new(Chemistry::Lmo, 2.5);
    let mut nca = Cell::new(Chemistry::Nca, 2.5);
    let mut q_lmo = 0.0;
    let mut q_nca = 0.0;
    for t in 0..=3600 {
        let sl = lmo.step(2.0, 1.0, 25.0);
        let sn = nca.step(2.0, 1.0, 25.0);
        q_lmo += sl.current_a;
        q_nca += sn.current_a;
        if t % 600 == 0 {
            println!(
                "{:>8} {:>12.1} {:>12.3} {:>12.1} {:>12.3}",
                t, q_lmo, sl.voltage_v, q_nca, sn.voltage_v
            );
        }
    }
    println!("(LMO releases charge faster at the same power — higher discharge rate)");
}

/// Run a single-cell phone to end of service on a workload.
fn single_cell_service(chem: Chemistry, capacity_ah: f64, workload: WorkloadKind) -> f64 {
    let config = SimConfig::paper();
    let trace = generate(workload, config.max_horizon_s, SEED);
    let sim = Simulator::new(
        PhoneProfile::nexus(),
        trace,
        BatteryPack::single(chem, capacity_ah),
        Box::new(PracticePolicy),
        config,
    );
    sim.run().service_time_s
}

/// Fig. 2a: discharge-cycle time per app for LMO vs NCA (2500 mAh each).
fn fig2a() {
    header("Fig 2a: battery-on time per application, LMO vs NCA (2500 mAh)");
    println!("(the paper reports LMO +14.3% on screen-on idle and NCA +24% on video; our");
    println!("(Table-I-consistent model has the big cell win steady loads and the LITTLE");
    println!("(cell win bursty ones — see EXPERIMENTS.md on the paper's internal labels)");
    for workload in [WorkloadKind::IdleOn, WorkloadKind::Video] {
        let lmo = single_cell_service(Chemistry::Lmo, 2.5, workload);
        let nca = single_cell_service(Chemistry::Nca, 2.5, workload);
        let winner = if lmo > nca { "LMO" } else { "NCA" };
        let gain = (lmo.max(nca) / lmo.min(nca) - 1.0) * 100.0;
        println!(
            "  {:<16} LMO {:>8.0} s   NCA {:>8.0} s   -> {winner} +{gain:.1}%",
            workload.label(),
            lmo,
            nca
        );
    }
}

/// Fig. 2b: screen ON/OFF toggle frequency vs service time per chemistry.
fn fig2b() {
    header("Fig 2b: phone ON/OFF toggle frequency vs battery-on time");
    println!(
        "{:>12} {:>12} {:>12} {:>16}",
        "period [s]", "LMO [s]", "NCA [s]", "LITTLE benefit"
    );
    for period in [60u32, 30, 10, 4, 2] {
        let workload = WorkloadKind::Toggle { period_s: period };
        let lmo = single_cell_service(Chemistry::Lmo, 2.5, workload);
        let nca = single_cell_service(Chemistry::Nca, 2.5, workload);
        println!(
            "{:>12} {:>12.0} {:>12.0} {:>15.1}%",
            period,
            lmo,
            nca,
            (lmo / nca - 1.0) * 100.0
        );
    }
    println!("(the paper reports the relative benefit shrinking as toggling accelerates)");
}

/// Fig. 3: V-edge voltage curves and the D1/D2/D3 decomposition.
fn fig3() {
    header("Fig 3: V-edge step response (D1/D2/D3 areas)");
    let scenarios = [
        (
            "video-start surge",
            VEdgeProbe {
                base_w: 1.0,
                surge_w: 5.0,
                ..VEdgeProbe::default()
            },
        ),
        (
            "screen ON/OFF",
            VEdgeProbe {
                base_w: 0.1,
                surge_w: 2.5,
                surge_s: 4.0,
                ..VEdgeProbe::default()
            },
        ),
    ];
    println!(
        "{:<20} {:<5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "scenario", "cell", "V0", "Vmin", "Vss", "D1", "D2", "D3", "D3-D1"
    );
    for (name, probe) in scenarios {
        for chem in [Chemistry::Lmo, Chemistry::Nca] {
            let mut cell = Cell::new(chem, 2.5);
            let a = probe.run(&mut cell, 25.0).analysis();
            println!(
                "{:<20} {:<5} {:>8.3} {:>8.3} {:>8.3} {:>8.2} {:>8.1} {:>8.1} {:>9.1}",
                name,
                chem.symbol(),
                a.v_initial,
                a.v_min,
                a.v_steady,
                a.d1,
                a.d2,
                a.d3,
                a.saving_potential()
            );
        }
    }
    println!("(LITTLE minimises the transient dip D1; areas are in volt-seconds)");
}

/// Fig. 4: the normalized radar map of battery metrics.
fn fig4() {
    header("Fig 4: normalized battery metrics (radar map)");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "cell", "discharge", "density", "cost", "lifetime", "safety"
    );
    for chem in Chemistry::ALL {
        let r = chem.radar();
        println!(
            "{:<6} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>8.2}",
            chem.symbol(),
            r[0],
            r[1],
            r[2],
            r[3],
            r[4]
        );
    }
    println!("(no single chemistry covers all five axes — the motivation for big.LITTLE)");
}

/// Table I: star ratings and big/LITTLE classification.
fn table1() {
    header("Table I: battery model (star ratings -> big/LITTLE)");
    println!(
        "{:<22} {:<6} {:<6} {:<9} {:<8} {:<7}",
        "battery", "cost", "life", "discharge", "density", "result"
    );
    for chem in Chemistry::ALL {
        let f = chem.features();
        println!(
            "{:<22} {:<6} {:<6} {:<9} {:<8} {:<7}",
            format!("{}", chem),
            Features::stars(f.cost_efficiency),
            Features::stars(f.lifetime),
            Features::stars(f.discharge_rate),
            Features::stars(f.energy_density),
            chem.class()
        );
    }
}

/// Fig. 6: TEC delta-T vs operating current (peak at the 1.0 A rating).
fn fig6() {
    header("Fig 6: TEC temperature difference vs operating current");
    let tec = Tec::ate31();
    println!("rated current: {:.2} A", tec.rated_current_a());
    println!("{:>8} {:>12} {:>12}", "I [A]", "dT [K]", "P [W]");
    for i in 0..=22 {
        let current = f64::from(i) * 0.1;
        println!(
            "{:>8.1} {:>12.2} {:>12.3}",
            current,
            tec.delta_t_steady(current),
            tec.power_w(current, 25.0, 25.0 + tec.delta_t_steady(current).max(0.0))
        );
    }
    println!("(rises to the 1.0 A rated current, then falls — drive the TEC at its rating)");
}

/// Table II: the component power models at reference operating points.
fn table2() {
    header("Table II: component power models (evaluated at reference points)");
    let model = PowerModel::calibrated(8, 1.0);
    let full = Demand {
        cpu_util: 100.0,
        freq_index: 7,
        brightness: constants::SCREEN_REF_BRIGHTNESS,
        packet_rate: constants::WIFI_REF_ACCESS_PPS,
    };
    println!(
        "CPU    P = gamma_f * mu + C       -> C0 @ mu=100, top f: {:>7.1} mW (Table III: {})",
        model.cpu().power_mw(CpuState::C0, &full),
        constants::CPU_C0_MW
    );
    println!(
        "Screen P = (a_b + a_w)/2 * B + C  -> on @ B={}: {:>10.1} mW (Table III: {})",
        constants::SCREEN_REF_BRIGHTNESS,
        model.screen().power_mw(ScreenState::On, &full),
        constants::SCREEN_ON_MW
    );
    println!(
        "WiFi   piecewise in packet rate   -> access @ p={}: {:>6.1} mW (Table III: {})",
        constants::WIFI_REF_ACCESS_PPS,
        model.wifi().power_mw(WifiState::Access, &full),
        constants::WIFI_ACCESS_MW
    );
    let send = Demand {
        packet_rate: constants::WIFI_REF_SEND_PPS,
        ..full
    };
    println!(
        "WiFi   (high regime)              -> send @ p={}: {:>8.1} mW (Table III: {})",
        constants::WIFI_REF_SEND_PPS,
        model.wifi().power_mw(WifiState::Send, &send),
        constants::WIFI_SEND_MW
    );
    let tec = Tec::ate31();
    println!(
        "TEC    P = alpha I dT + I^2 R     -> 1.0 A @ dT=20 K: {:>7.3} W",
        tec.power_w(1.0, 25.0, 45.0)
    );
}

/// Table III: the measured state powers.
fn table3() {
    header("Table III: average power per hardware state [mW]");
    println!(
        "CPU    C0={} C1={} C2={} Sleep={}",
        constants::CPU_C0_MW,
        constants::CPU_C1_MW,
        constants::CPU_C2_MW,
        constants::CPU_SLEEP_MW
    );
    println!(
        "Screen Off={} On={}",
        constants::SCREEN_OFF_MW,
        constants::SCREEN_ON_MW
    );
    println!(
        "WiFi   Idle={} Access={} Send={}",
        constants::WIFI_IDLE_MW,
        constants::WIFI_ACCESS_MW,
        constants::WIFI_SEND_MW
    );
    println!(
        "TEC    Off={} On={}",
        constants::TEC_OFF_MW,
        constants::TEC_ON_MW
    );
    // Round-trip check: an awake phone's modelled power equals the sum of
    // its Table III parts.
    let model = PowerModel::calibrated(8, 1.0);
    let d = Demand {
        cpu_util: 100.0,
        freq_index: 7,
        brightness: constants::SCREEN_REF_BRIGHTNESS,
        packet_rate: constants::WIFI_REF_ACCESS_PPS,
    };
    let p = model.device_power_mw(&DeviceState::awake(), &d);
    println!(
        "check: awake phone @ reference points = {:.1} mW (C0 + screen-on + access = {})",
        p,
        constants::CPU_C0_MW + constants::SCREEN_ON_MW + constants::WIFI_ACCESS_MW
    );
}

/// Fig. 9: the TTL switch control signal.
fn fig9() {
    header("Fig 9: switch facility control signal (flips at t = 2, 5, 7, 8 s)");
    let mut facility = SwitchFacility::default();
    for t in [2.0, 5.0, 7.0, 8.0] {
        let target = facility.active().other();
        facility.switch_to(target, t);
    }
    println!("{:>10} {:>10} {:>10}", "t [s]", "level [V]", "selects");
    for &(t, level) in facility.signal() {
        let selects = if level > 1.0 {
            Class::Little
        } else {
            Class::Big
        };
        println!("{:>10.4} {:>10.1} {:>10}", t, level, selects.to_string());
    }
    println!(
        "flips: {}   switching energy: {:.2} J",
        facility.flips(),
        facility.energy_j()
    );
}

/// Fig. 12: one-discharge-cycle service time, 6 workloads x 5 policies.
fn fig12() {
    header("Fig 12: one-discharge-cycle performance (service time [s])");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload", "Oracle", "CAPMAN", "Heuristic", "Dual", "Practice"
    );
    let mut capman_vs = Vec::new();
    for workload in WorkloadKind::fig12() {
        let outcomes = experiments::fig12_row(workload, SEED);
        print!("{:<12}", workload.label());
        for o in &outcomes {
            print!(" {:>9.0}", o.service_time_s);
        }
        println!();
        let get = |k: PolicyKind| {
            outcomes
                .iter()
                .find(|o| o.policy == k.label())
                .expect("present")
                .clone()
        };
        let capman = get(PolicyKind::Capman);
        capman_vs.push((
            workload.label(),
            capman.service_gain_pct(&get(PolicyKind::Heuristic)),
            capman.service_gain_pct(&get(PolicyKind::Dual)),
            capman.service_gain_pct(&get(PolicyKind::Practice)),
            capman.service_gain_pct(&get(PolicyKind::Oracle)),
            capman.energy_saving_pct(&get(PolicyKind::Heuristic)),
            capman.performance_gain_pct(&get(PolicyKind::Heuristic)),
        ));
    }
    println!("\nCAPMAN gains (service time unless noted):");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "workload", "vs Heur", "vs Dual", "vs Practice", "vs Oracle", "energy/Heur", "perf/Heur"
    );
    for (w, heur, dual, practice, oracle, energy, perf) in &capman_vs {
        println!(
            "{:<12} {:>9.1}% {:>9.1}% {:>11.1}% {:>9.1}% {:>11.1}% {:>11.1}%",
            w, heur, dual, practice, oracle, energy, perf
        );
    }
    println!("\npaper targets: Geekbench +50% vs Practice; PCMark +21.3/+25.7% vs Dual/Heur;");
    println!("Video +53.3/+55.1/+67.1% vs Heur/Dual/Practice (within 9.6% of Oracle);");
    println!("eta mixes +76/+105/+114% vs Practice; avg +55.08% perf, 53.27% less energy.");
}

/// Fig. 13: cooling and active power over a cycle per workload.
fn fig13() {
    header("Fig 13: cooling and active power management (CAPMAN telemetry)");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "workload", "mean P [mW]", "peak P [mW]", "mean T", "max T", "TEC duty"
    );
    for outcome in experiments::fig13(SEED) {
        let t = &outcome.telemetry;
        println!(
            "{:<12} {:>12.0} {:>12.0} {:>9.1}C {:>9.1}C {:>9.2}",
            outcome.workload,
            t.mean_power_mw(),
            t.max_power_mw(),
            outcome.mean_hotspot_c,
            outcome.max_hotspot_c,
            t.tec_duty()
        );
    }
    println!("(the paper: temperature held around 45 degC; TEC boots near 2300 mW active power)");
}

/// Fig. 14: big/LITTLE activation ratio vs temperature reduction.
fn fig14() {
    header("Fig 14: big/LITTLE ratio vs TEC temperature reduction");
    println!(
        "{:<12} {:>16} {:>18}",
        "workload", "big:LITTLE ratio", "temp reduction [K]"
    );
    for p in experiments::fig14(SEED) {
        println!(
            "{:<12} {:>16.2} {:>18.1}",
            p.workload, p.big_little_ratio, p.temp_reduction_k
        );
    }
    println!("(LITTLE-heavy workloads wake the TEC more and see the larger reductions)");
}

/// Fig. 15: CAPMAN snapshots on the three phones.
fn fig15() {
    header("Fig 15: CAPMAN on Nexus / Honor / Lenovo (PCMark trace)");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "phone", "service [s]", "mean P [mW]", "peak P [mW]", "max T", "overhead us"
    );
    for o in experiments::fig15(WorkloadKind::Pcmark, SEED) {
        println!(
            "{:<8} {:>12.0} {:>12.0} {:>12.0} {:>9.1}C {:>12.0}",
            o.phone,
            o.service_time_s,
            o.telemetry.mean_power_mw(),
            o.telemetry.max_power_mw(),
            o.max_hotspot_c,
            o.scheduler_overhead_us
        );
    }
    println!("(the paper reports similar management across phones, power 100 -> 450 mW range)");
}

/// Fig. 16: scheduler overhead vs the discount factor rho.
fn fig16() {
    header("Fig 16: runtime-calibration overhead vs discount factor rho");
    let rhos = [0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99];
    let points = experiments::fig16(&rhos, SEED);
    println!(
        "{:<8} {:>8} {:>14} {:>12}",
        "phone", "rho", "overhead [us]", "iterations"
    );
    for p in &points {
        println!(
            "{:<8} {:>8.2} {:>14.0} {:>12}",
            p.phone, p.rho, p.overhead_us, p.iterations
        );
    }
    println!("(exponential growth toward rho -> 1; slower phones pay proportionally more —");
    println!("the paper reports ~300 us at rho -> 1 on the Nexus; absolute values depend on");
    println!("the host, the shape is the reproduction target)");
}

/// Fig. 12 scatter: mean and std of the service time over several seeds
/// (the paper's "green dots collected from multiple simulation
/// experiments"). Not part of the default run — invoke with `fig12x`.
fn fig12x() {
    header("Fig 12 (scatter): service time over 3 seeds, mean +/- std [s]");
    let seeds = [42, 43, 44];
    for workload in WorkloadKind::fig12() {
        print!("{:<12}", workload.label());
        for stat in experiments::fig12_stats(workload, &seeds) {
            print!(" {:>8.0}+/-{:<5.0}", stat.mean_s, stat.std_s);
        }
        println!();
    }
    println!("(columns: Oracle, CAPMAN, Heuristic, Dual, Practice)");
}

/// Ablation: the equal-total-capacity Practice reading (one 5 Ah NCA
/// cell instead of the 3.22 Ah stock battery). Invoke with `practice5`.
fn practice5() {
    use capman_core::experiments::run_with_pack;
    header("Ablation: Practice with one 5 Ah cell (capacity-equal reading)");
    println!(
        "{:<12} {:>14} {:>14} {:>16}",
        "workload", "stock 3.22Ah", "equal 5Ah", "CAPMAN"
    );
    for workload in WorkloadKind::fig12() {
        let stock =
            experiments::run_policy(PolicyKind::Practice, workload, PhoneProfile::nexus(), SEED);
        let equal = run_with_pack(
            PolicyKind::Practice,
            workload,
            PhoneProfile::nexus(),
            SEED,
            SimConfig::paper(),
            BatteryPack::single(Chemistry::Nca, 5.0),
        );
        let capman =
            experiments::run_policy(PolicyKind::Capman, workload, PhoneProfile::nexus(), SEED);
        println!(
            "{:<12} {:>13.0}s {:>13.0}s {:>13.0}s ({:+.0}% / {:+.0}%)",
            workload.label(),
            stock.service_time_s,
            equal.service_time_s,
            capman.service_time_s,
            capman.service_gain_pct(&stock),
            capman.service_gain_pct(&equal),
        );
    }
    println!("(even against a capacity-equal single cell, scheduling wins on bursty loads)");
}

/// Ambient-temperature sensitivity (invoke with `ambient`): the paper
/// claims CAPMAN maintains the temperature "even under skewed loads";
/// hotter rooms work the TEC harder.
fn ambient() {
    header("Ambient sweep: eta-50% mix under CAPMAN at several room temperatures");
    println!(
        "{:>10} {:>12} {:>10} {:>10}",
        "ambient", "service [s]", "TEC on [s]", "max T"
    );
    for p in experiments::ambient_sweep(&[15.0, 25.0, 32.0, 38.0], SEED, 40_000.0) {
        println!(
            "{:>9.0}C {:>12.0} {:>10.0} {:>9.1}C",
            p.ambient_c, p.service_time_s, p.tec_on_s, p.max_hotspot_c
        );
    }
    println!("(the TEC absorbs the ambient rise until its pumping margin runs out)");
}
