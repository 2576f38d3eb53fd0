//! The V-edge step-response probe (Fig. 3).
//!
//! Xu et al. (NSDI'13) observed that when a new power demand arrives, the
//! battery output voltage first drops quickly and then rises back to a
//! level *below* the pre-demand voltage — the "V-edge". The CAPMAN paper
//! decomposes the curve into three areas:
//!
//! * **D1** — the transient dip below the post-recovery steady level
//!   (wasted overpotential; a LITTLE battery minimises it),
//! * **D2** — the permanent drop from the initial to the steady level,
//! * **D3** — the voltage recovered above the worst-case sag after the
//!   minimum (a big battery maximises it over long windows).
//!
//! The area `D3 - D1` is the power-saving potential that motivates
//! scheduling the right chemistry for each demand pattern.

use crate::cell::Cell;

/// Configuration for a V-edge experiment: rest, then a surge, then a
/// settling tail at the base load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VEdgeProbe {
    /// Base load before and after the surge, watts.
    pub base_w: f64,
    /// Surge load, watts.
    pub surge_w: f64,
    /// How long the base load runs before the surge, seconds.
    pub lead_s: f64,
    /// Surge duration, seconds.
    pub surge_s: f64,
    /// Settling tail after the surge, seconds.
    pub settle_s: f64,
    /// Sampling period (also the simulation step), seconds.
    pub sample_dt: f64,
}

impl Default for VEdgeProbe {
    fn default() -> Self {
        VEdgeProbe {
            base_w: 0.3,
            surge_w: 6.0,
            lead_s: 30.0,
            surge_s: 10.0,
            settle_s: 120.0,
            sample_dt: 0.5,
        }
    }
}

impl VEdgeProbe {
    /// Run the probe against a cell at the given temperature and record
    /// the terminal-voltage trace.
    ///
    /// # Panics
    ///
    /// Panics if any duration or the sampling period is not positive.
    pub fn run(&self, cell: &mut Cell, temp_c: f64) -> VEdgeTrace {
        assert!(self.sample_dt > 0.0, "sample_dt must be positive");
        assert!(
            self.lead_s > 0.0 && self.surge_s > 0.0 && self.settle_s > 0.0,
            "probe phases must have positive duration"
        );
        let mut samples = Vec::new();
        let mut t = 0.0;
        let run_phase =
            |cell: &mut Cell, load: f64, dur: f64, samples: &mut Vec<(f64, f64)>, t: &mut f64| {
                let n = (dur / self.sample_dt).round().max(1.0) as usize;
                for _ in 0..n {
                    let s = cell.step(load, self.sample_dt, temp_c);
                    *t += self.sample_dt;
                    samples.push((*t, s.voltage_v));
                }
            };
        run_phase(cell, self.base_w, self.lead_s, &mut samples, &mut t);
        let surge_start = t;
        run_phase(cell, self.surge_w, self.surge_s, &mut samples, &mut t);
        let surge_end = t;
        run_phase(cell, self.base_w, self.settle_s, &mut samples, &mut t);
        VEdgeTrace {
            samples,
            surge_start,
            surge_end,
        }
    }
}

/// A recorded voltage trace from a [`VEdgeProbe`].
#[derive(Debug, Clone, PartialEq)]
pub struct VEdgeTrace {
    /// `(time_s, terminal_voltage_v)` samples.
    pub samples: Vec<(f64, f64)>,
    /// Time at which the surge began.
    pub surge_start: f64,
    /// Time at which the surge ended.
    pub surge_end: f64,
}

/// The V-edge characteristics extracted from a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VEdgeAnalysis {
    /// Voltage immediately before the surge, volts.
    pub v_initial: f64,
    /// Minimum voltage reached, volts.
    pub v_min: f64,
    /// Settled voltage at the end of the window, volts.
    pub v_steady: f64,
    /// Transient dip area below the steady level, volt-seconds.
    pub d1: f64,
    /// Permanent drop area (initial minus steady over the window), V*s.
    pub d2: f64,
    /// Recovered area above the minimum after the dip, volt-seconds.
    pub d3: f64,
}

impl VEdgeAnalysis {
    /// The paper's power-saving potential, `D3 - D1`, in volt-seconds.
    pub fn saving_potential(&self) -> f64 {
        self.d3 - self.d1
    }
}

impl VEdgeTrace {
    /// Decompose the trace into the D1/D2/D3 areas of Fig. 3.
    ///
    /// # Panics
    ///
    /// Panics if the trace has fewer than three samples.
    pub fn analysis(&self) -> VEdgeAnalysis {
        assert!(self.samples.len() >= 3, "trace too short to analyse");
        let dt = self.samples[1].0 - self.samples[0].0;
        let v_initial = self
            .samples
            .iter()
            .rev()
            .find(|(t, _)| *t <= self.surge_start)
            .map(|&(_, v)| v)
            .unwrap_or(self.samples[0].1);
        let after: Vec<&(f64, f64)> = self
            .samples
            .iter()
            .filter(|(t, _)| *t > self.surge_start)
            .collect();
        let (t_min, v_min) =
            after
                .iter()
                .fold((self.surge_start, f64::INFINITY), |(tm, vm), &&(t, v)| {
                    if v < vm {
                        (t, v)
                    } else {
                        (tm, vm)
                    }
                });
        let v_steady = after.last().map(|&&(_, v)| v).unwrap_or(v_initial);
        let window = after.len() as f64 * dt;

        let mut d1 = 0.0;
        let mut d3 = 0.0;
        for &&(t, v) in &after {
            d1 += (v_steady - v).max(0.0) * dt;
            if t >= t_min {
                d3 += (v - v_min).max(0.0) * dt;
            }
        }
        let d2 = (v_initial - v_steady).max(0.0) * window;
        VEdgeAnalysis {
            v_initial,
            v_min,
            v_steady,
            d1,
            d2,
            d3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chemistry::Chemistry;

    fn probe() -> VEdgeProbe {
        VEdgeProbe::default()
    }

    fn run(chem: Chemistry) -> VEdgeAnalysis {
        let mut cell = Cell::new(chem, 2.5);
        probe().run(&mut cell, 25.0).analysis()
    }

    #[test]
    fn vedge_shape_drop_then_partial_recovery() {
        let a = run(Chemistry::Nca);
        assert!(a.v_min < a.v_initial, "voltage must drop under surge");
        assert!(
            a.v_steady > a.v_min,
            "voltage must recover after the surge: steady={} min={}",
            a.v_steady,
            a.v_min
        );
        assert!(
            a.v_steady < a.v_initial,
            "recovery settles below the initial level"
        );
    }

    #[test]
    fn little_chemistry_minimizes_d1() {
        let lmo = run(Chemistry::Lmo);
        let nca = run(Chemistry::Nca);
        assert!(
            lmo.d1 < nca.d1,
            "LITTLE dip area must be smaller: LMO={} NCA={}",
            lmo.d1,
            nca.d1
        );
    }

    #[test]
    fn areas_are_non_negative() {
        for chem in Chemistry::ALL {
            let a = run(chem);
            assert!(a.d1 >= 0.0 && a.d2 >= 0.0 && a.d3 >= 0.0, "{chem}: {a:?}");
        }
    }

    #[test]
    fn deeper_dips_for_bigger_surges() {
        let mut small = Cell::new(Chemistry::Nca, 2.5);
        let mut large = Cell::new(Chemistry::Nca, 2.5);
        let gentle = VEdgeProbe {
            surge_w: 3.0,
            ..probe()
        }
        .run(&mut small, 25.0)
        .analysis();
        let harsh = VEdgeProbe {
            surge_w: 9.0,
            ..probe()
        }
        .run(&mut large, 25.0)
        .analysis();
        assert!(harsh.v_min < gentle.v_min);
    }

    #[test]
    fn saving_potential_is_d3_minus_d1() {
        let a = run(Chemistry::Lmo);
        assert!((a.saving_potential() - (a.d3 - a.d1)).abs() < 1e-12);
    }

    #[test]
    fn trace_sample_count_matches_phases() {
        let p = probe();
        let mut cell = Cell::new(Chemistry::Lmo, 2.5);
        let trace = p.run(&mut cell, 25.0);
        let expected = ((p.lead_s + p.surge_s + p.settle_s) / p.sample_dt).round() as usize;
        assert_eq!(trace.samples.len(), expected);
    }
}
