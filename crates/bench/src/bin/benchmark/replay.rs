//! Layer costs measured by replaying recorded inputs.
//!
//! * Physics: the per-step inputs of a few devices go back through the
//!   same public calls `DeviceSim::step` makes — the power model, the
//!   actuator and pack, the TEC and the thermal network. A coupled pass
//!   first checks the replay reproduces the simulator bit for bit, then
//!   each layer is timed alone over its recorded inputs.
//! * Calibration: a replica of `Calibrator::recalibrate` runs the same
//!   public calls stage by stage on the recorded profilers, in the order
//!   the in-situ calibrator saw them, and checks its results are bitwise
//!   equal to the in-situ `Calibration`.

use std::hint::black_box;
use std::time::Instant;

use capman_battery::pack::BatteryPack;
use capman_core::actuator::Actuator;
use capman_core::experiments::build_pack;
use capman_core::online::Calibration;
use capman_device::fsm::Action;
use capman_device::power::Demand;
use capman_device::states::DeviceState;
use capman_mdp::abstraction::Abstraction;
use capman_mdp::engine::{ExecutionMode, SimilarityEngine};
use capman_mdp::graph::MdpGraph;
use capman_mdp::mdp::Mdp;
use capman_mdp::pipeline::{QuotientScratch, RecalibrationPipeline};
use capman_mdp::similarity::SimilarityParams;
use capman_mdp::value_iteration::Precision;
use capman_obs::Tracer;
use capman_thermal::network::{NodeId, ThermalNetwork};
use capman_thermal::tec::{Tec, TecStep};

use crate::probe::{Clock, Tape};
use crate::stats::median;

/// Share of CPU power concentrated on the die hot spot (the simulator's
/// private constant, restated for the replay).
const HOTSPOT_POWER_SHARE: f64 = 0.45;
/// Timed passes per physics layer; the median pass is reported.
const PASSES: usize = 5;

/// Mean cost per step of each replayed physics layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhysicsRows {
    pub power_ns: f64,
    pub pack_ns: f64,
    pub thermal_ns: f64,
    pub steps: usize,
    /// The coupled replay reproduced every recorded step bitwise.
    pub agrees: bool,
}

/// The intermediate values of one step that the isolated layer passes
/// take as inputs.
struct Derived {
    demand: Demand,
    total_w: f64,
    battery_c: f64,
    cpu_w: f64,
    screen_w: f64,
    wifi_w: f64,
    heat_w: f64,
}

fn physics_state(tape: &Tape) -> (ThermalNetwork, Tec, BatteryPack, Actuator) {
    (
        ThermalNetwork::phone_at_ambient(tape.config.ambient_c),
        Tec::ate31(),
        build_pack(tape.kind),
        Actuator::new(),
    )
}

fn inject(thermal: &mut ThermalNetwork, d: &Derived, dt: f64) {
    thermal.inject(NodeId::Cpu, d.cpu_w * (1.0 - HOTSPOT_POWER_SHARE));
    thermal.inject(NodeId::HotSpot, d.cpu_w * HOTSPOT_POWER_SHARE);
    thermal.inject(NodeId::Screen, d.screen_w);
    thermal.inject(NodeId::Shell, d.wifi_w);
    thermal.inject(NodeId::Battery, d.heat_w);
    thermal.step(dt);
}

/// The coupled pass: every layer in the simulator's order, checking the
/// hot-spot reading and the pack load against the recording.
fn coupled(tape: &Tape) -> (Vec<Derived>, bool) {
    let (mut thermal, tec, mut pack, mut actuator) = physics_state(tape);
    let cfg = &tape.config;
    let mut agrees = true;
    let mut out = Vec::with_capacity(tape.steps.len());
    for rec in &tape.steps {
        agrees &= thermal.temp_c(NodeId::HotSpot).to_bits() == rec.hotspot_c.to_bits();
        actuator.apply(&mut pack, rec.target);
        let mut demand = rec.demand;
        if rec.hotspot_c > cfg.throttle_threshold_c {
            demand.cpu_util *= cfg.throttle_factor;
        }
        let device_mw = tape.model.device_power_mw(&rec.state, &demand);
        let tec_step = if rec.tec_on {
            tec.pump(
                &mut thermal,
                NodeId::HotSpot,
                NodeId::Shell,
                tec.rated_current_a(),
            )
        } else {
            TecStep::off()
        };
        let total_w = device_mw / 1000.0 + tec_step.power_w;
        agrees &= total_w.to_bits() == rec.power_w.to_bits();
        let battery_c = thermal.temp_c(NodeId::Battery);
        let pstep = pack.step(total_w, cfg.dt_s, battery_c);
        let d = Derived {
            demand,
            total_w,
            battery_c,
            cpu_w: tape.model.cpu().power_mw(rec.state.cpu, &demand) / 1000.0,
            screen_w: tape.model.screen().power_mw(rec.state.screen, &demand) / 1000.0,
            wifi_w: tape.model.wifi().power_mw(rec.state.wifi, &demand) / 1000.0,
            heat_w: pstep.heat_w,
        };
        inject(&mut thermal, &d, cfg.dt_s);
        out.push(d);
    }
    (out, agrees)
}

/// Median over [`PASSES`] of one pass's corrected time, per step. Each
/// pass starts from state built by `setup`, outside the timed interval.
fn per_step_ns<S>(
    clock: &Clock,
    steps: usize,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(&mut S),
) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut state = setup();
            let t0 = Instant::now();
            pass(&mut state);
            clock.interval_ns(t0, Instant::now(), 0) / steps as f64
        })
        .collect();
    median(&samples)
}

/// Replay every tape's physics and time each layer alone.
pub fn replay_physics(tapes: &[Tape], clock: &Clock) -> PhysicsRows {
    let mut derived = Vec::with_capacity(tapes.len());
    let mut agrees = true;
    for tape in tapes {
        let (d, ok) = coupled(tape);
        agrees &= ok;
        derived.push(d);
    }
    let steps: usize = tapes.iter().map(|t| t.steps.len()).sum();
    if steps == 0 {
        return PhysicsRows::default();
    }

    let power_ns = per_step_ns(
        clock,
        steps,
        || (),
        |_| {
            for (tape, d) in tapes.iter().zip(&derived) {
                let m = &tape.model;
                for (rec, d) in tape.steps.iter().zip(d) {
                    let s = &rec.state;
                    black_box(m.device_power_mw(s, &d.demand));
                    black_box(m.cpu().power_mw(s.cpu, &d.demand));
                    black_box(m.screen().power_mw(s.screen, &d.demand));
                    black_box(m.wifi().power_mw(s.wifi, &d.demand));
                }
            }
        },
    );

    let fresh = || -> Vec<_> { tapes.iter().map(physics_state).collect() };
    let pack_ns = per_step_ns(clock, steps, fresh, |states| {
        for ((tape, d), (_, _, pack, actuator)) in tapes.iter().zip(&derived).zip(states) {
            for (rec, d) in tape.steps.iter().zip(d) {
                actuator.apply(pack, rec.target);
                black_box(pack.step(d.total_w, tape.config.dt_s, d.battery_c));
            }
        }
    });

    let thermal_ns = per_step_ns(clock, steps, fresh, |states| {
        for ((tape, d), (thermal, tec, _, _)) in tapes.iter().zip(&derived).zip(states) {
            for (rec, d) in tape.steps.iter().zip(d) {
                black_box(thermal.temp_c(NodeId::HotSpot));
                if rec.tec_on {
                    black_box(tec.pump(
                        thermal,
                        NodeId::HotSpot,
                        NodeId::Shell,
                        tec.rated_current_a(),
                    ));
                }
                black_box(thermal.temp_c(NodeId::Battery));
                inject(thermal, d, tape.config.dt_s);
                black_box(thermal.temp_c(NodeId::HotSpot));
            }
        }
    });

    PhysicsRows {
        power_ns,
        pack_ns,
        thermal_ns,
        steps,
        agrees,
    }
}

/// Mean cost per calibration of each replica stage, microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageRows {
    pub calibrations: usize,
    pub profiler_model_us: f64,
    pub graph_filter_us: f64,
    pub similarity_us: f64,
    pub abstraction_us: f64,
    pub bellman_us: f64,
    /// Mean in-situ host time of the same calibrations.
    pub insitu_us: f64,
    /// Every replica result was bitwise equal to its in-situ result.
    pub agrees: bool,
}

impl StageRows {
    pub fn stage_sum_us(&self) -> f64 {
        self.profiler_model_us
            + self.graph_filter_us
            + self.similarity_us
            + self.abstraction_us
            + self.bellman_us
    }
}

/// `Calibrator`'s private state, restated: the engine, the quotient
/// scratch, the cached model and the prior fixed point.
struct Replica {
    rho: f64,
    theta: f64,
    engine: SimilarityEngine,
    scratch: QuotientScratch,
    model: Option<(u64, u64, Mdp)>,
    prior: Option<Vec<f64>>,
}

/// `online.rs`'s Bellman precision target.
const SOLVE_EPS: f64 = 1e-6;

impl Replica {
    fn new(rho: f64, theta: f64) -> Self {
        Replica {
            rho,
            theta,
            engine: SimilarityEngine::parallel(),
            scratch: QuotientScratch::new(),
            model: None,
            prior: None,
        }
    }

    /// `online.rs`'s θ ladder: [4θ, 2θ, θ] clamped to 1, positive,
    /// deduplicated.
    fn theta_ladder(&self) -> Vec<f64> {
        let mut ladder: Vec<f64> = [4.0, 2.0, 1.0]
            .iter()
            .map(|m| (m * self.theta).min(1.0))
            .filter(|t| *t > 0.0)
            .collect();
        ladder.dedup();
        ladder
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replay each tape's calibrations through a replica, timing its stages.
pub fn replay_calibrations(tapes: &[Tape], clock: &Clock, tracer: &Tracer) -> StageRows {
    let mut rows = StageRows {
        agrees: true,
        ..StageRows::default()
    };
    let mut insitu = 0.0;
    for tape in tapes {
        let mut r = Replica::new(tape.rho, tape.theta);
        for rec in &tape.calibs {
            let _solve = tracer.span_in("calib.solve", rec.now_s as u64, tape.trace);
            let stage = |label: &'static str, acc: &mut f64, f: &mut dyn FnMut()| {
                let _span = tracer.span_in(label, 0, tape.trace);
                let t0 = Instant::now();
                f();
                *acc += clock.interval_ns(t0, Instant::now(), 0) / 1e3;
            };
            let profiler = &rec.profiler;

            let mut built = None;
            stage(
                "core.profiler_model",
                &mut rows.profiler_model_us,
                &mut || {
                    built = Some(match r.model.take() {
                        Some((id, version, mut mdp))
                            if id == profiler.id() && version <= profiler.version() =>
                        {
                            let dirty = profiler.changes_since(version);
                            if !dirty.is_empty() {
                                profiler.to_mdp_incremental(&mut mdp, &dirty);
                            }
                            (mdp, Some(dirty))
                        }
                        _ => (profiler.to_mdp(), None),
                    });
                },
            );
            let (mdp, dirty) = built.expect("model stage ran");

            let mut graph = None;
            stage("mdp.graph_filter", &mut rows.graph_filter_us, &mut || {
                graph = Some(MdpGraph::filtered(&mdp, |s, a| {
                    let action = Action::ALL[a];
                    if action.is_battery_switch() {
                        return true;
                    }
                    let from = DeviceState::from_index(s);
                    mdp.outcomes(s, a)
                        .iter()
                        .any(|o| DeviceState::from_index(o.next).battery != from.battery)
                }));
            });
            let graph = graph.expect("graph stage ran");

            let mut sim = None;
            stage("mdp.similarity", &mut rows.similarity_us, &mut || {
                if let Some(d) = dirty.as_ref().filter(|d| !d.is_empty()) {
                    r.engine.invalidate_states(d.states());
                }
                let mut params = SimilarityParams::paper(r.rho.max(1e-3));
                params.tolerance = 1e-3;
                params.max_iterations = 200;
                sim = Some(r.engine.compute(&graph, &params));
            });
            let sim = sim.expect("similarity stage ran");

            let mut abstraction = None;
            stage("mdp.abstraction", &mut rows.abstraction_us, &mut || {
                abstraction = Some(Abstraction::from_similarity(&sim.sigma_s, r.theta));
            });
            let abstraction = abstraction.expect("abstraction stage ran");

            let mut solved = None;
            stage("mdp.bellman", &mut rows.bellman_us, &mut || {
                let pipeline =
                    RecalibrationPipeline::new(r.rho, SOLVE_EPS).with_precision(Precision::F64);
                let ladder = r.theta_ladder();
                solved = Some(match (&dirty, r.prior.as_deref()) {
                    (Some(d), Some(prior)) => {
                        let mut owners: Vec<usize> = d.rows().iter().map(|&(s, _)| s).collect();
                        owners.dedup();
                        let inc = pipeline.solve_incremental(
                            &mdp,
                            &sim.sigma_s,
                            &ladder,
                            prior,
                            &owners,
                            ExecutionMode::Parallel,
                            &mut r.scratch,
                        );
                        (inc.outcome, Some(inc.stats))
                    }
                    _ => (
                        pipeline.solve_with_scratch(
                            &mdp,
                            &sim.sigma_s,
                            &ladder,
                            r.prior.as_deref(),
                            ExecutionMode::Parallel,
                            &mut r.scratch,
                        ),
                        None,
                    ),
                });
            });
            let (out, incremental) = solved.expect("bellman stage ran");

            let cal: &Calibration = &rec.insitu;
            rows.agrees &= bits_equal(&out.solution.values, &cal.solution.values)
                && out.solution.q.len() == cal.solution.q.len()
                && out
                    .solution
                    .q
                    .iter()
                    .zip(&cal.solution.q)
                    .all(|(a, b)| bits_equal(a, b))
                && out.solution.policy == cal.solution.policy
                && out.solution.iterations == cal.solution.iterations
                && abstraction == cal.abstraction
                && sim.iterations == cal.similarity_iterations
                && graph.n_action_nodes() == cal.graph_action_nodes
                && out.levels == cal.levels
                && out.total_sweeps() == cal.bellman_sweeps
                && out.warm_started == cal.warm_started
                && dirty.as_ref().map(|d| d.rows().len()) == cal.dirty_rows
                && incremental == cal.incremental;

            r.model = Some((profiler.id(), profiler.version(), mdp));
            r.prior = Some(out.solution.values);
            rows.calibrations += 1;
            insitu += rec.insitu_us;
        }
    }
    if rows.calibrations > 0 {
        let n = rows.calibrations as f64;
        rows.profiler_model_us /= n;
        rows.graph_filter_us /= n;
        rows.similarity_us /= n;
        rows.abstraction_us /= n;
        rows.bellman_us /= n;
        rows.insitu_us = insitu / n;
    }
    rows
}
