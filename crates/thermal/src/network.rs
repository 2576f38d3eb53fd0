//! Lumped thermal RC network.
//!
//! The phone is modelled as a handful of thermal masses (nodes) connected
//! by thermal conductances, with the ambient as a fixed-temperature
//! boundary. Heat injected into a node (CPU power, battery I^2 R losses,
//! switch flips, TEC waste heat) diffuses toward the shell and the
//! ambient. The top half of Fig. 6 in the paper shows the corresponding
//! temperature map, with the hot spot above the CPU.

/// The thermal nodes of the phone model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// CPU package (bulk).
    Cpu,
    /// The hot spot on the CPU die surface — where the TEC sits.
    HotSpot,
    /// The battery pack.
    Battery,
    /// The display assembly.
    Screen,
    /// The phone shell / back cover (coupled to ambient).
    Shell,
}

impl NodeId {
    /// All nodes in index order.
    pub const ALL: [NodeId; 5] = [
        NodeId::Cpu,
        NodeId::HotSpot,
        NodeId::Battery,
        NodeId::Screen,
        NodeId::Shell,
    ];

    fn index(self) -> usize {
        match self {
            NodeId::Cpu => 0,
            NodeId::HotSpot => 1,
            NodeId::Battery => 2,
            NodeId::Screen => 3,
            NodeId::Shell => 4,
        }
    }
}

/// A lumped-parameter thermal network over the [`NodeId`] nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalNetwork {
    /// Heat capacity per node, J/K.
    capacity: [f64; 5],
    /// Node temperatures, degC.
    temp: [f64; 5],
    /// Pairwise conductances, W/K (symmetric, diagonal unused).
    conductance: [[f64; 5]; 5],
    /// Conductance of each node to the ambient, W/K.
    to_ambient: [f64; 5],
    /// Ambient temperature, degC.
    ambient_c: f64,
    /// Heat injected since the last step, W per node.
    pending_w: [f64; 5],
}

impl ThermalNetwork {
    /// Maximum internal Euler substep, seconds. Chosen well below the
    /// smallest `C/G` time constant of the phone preset.
    const MAX_SUBSTEP_S: f64 = 0.5;

    /// The phone preset used throughout the evaluation.
    ///
    /// Capacities and conductances are sized so that a saturating workload
    /// (Geekbench-class, ~2.3 W total) drives the CPU hot spot past the
    /// 45 degC threshold within minutes at a 25 degC ambient, matching the
    /// paper's observation that resource-intensive apps create hot spots
    /// that passive cooling cannot remove.
    pub fn phone() -> Self {
        Self::phone_at_ambient(25.0)
    }

    /// The phone preset at a custom ambient temperature.
    pub fn phone_at_ambient(ambient_c: f64) -> Self {
        let mut conductance = [[0.0; 5]; 5];
        let mut set = |a: NodeId, b: NodeId, g: f64| {
            conductance[a.index()][b.index()] = g;
            conductance[b.index()][a.index()] = g;
        };
        set(NodeId::Cpu, NodeId::HotSpot, 0.015);
        set(NodeId::Cpu, NodeId::Shell, 0.05);
        set(NodeId::Cpu, NodeId::Battery, 0.03);
        set(NodeId::Battery, NodeId::Shell, 0.25);
        set(NodeId::Screen, NodeId::Shell, 0.30);
        // The passive cooling plate spreads hot-spot heat into the shell.
        set(NodeId::HotSpot, NodeId::Shell, 0.002);

        let mut to_ambient = [0.0; 5];
        to_ambient[NodeId::Shell.index()] = 0.55;

        ThermalNetwork {
            capacity: [
                8.0,  // CPU package
                0.8,  // hot spot (tiny mass)
                45.0, // battery
                20.0, // screen
                80.0, // shell
            ],
            temp: [ambient_c; 5],
            conductance,
            to_ambient,
            ambient_c,
            pending_w: [0.0; 5],
        }
    }

    /// Inject `power_w` watts of heat into `node` for the next [`step`].
    ///
    /// Multiple injections into the same node accumulate. Negative power
    /// removes heat (that is how the TEC pumps the hot spot).
    ///
    /// [`step`]: ThermalNetwork::step
    pub fn inject(&mut self, node: NodeId, power_w: f64) {
        self.pending_w[node.index()] += power_w;
    }

    /// Advance the network by `dt` seconds, consuming pending injections.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        let n = (dt / Self::MAX_SUBSTEP_S).ceil().max(1.0) as usize;
        let sub = dt / n as f64;
        for _ in 0..n {
            let mut delta = [0.0; 5];
            for (i, d) in delta.iter_mut().enumerate() {
                let mut q = self.pending_w[i];
                for j in 0..5 {
                    if i != j {
                        q += self.conductance[i][j] * (self.temp[j] - self.temp[i]);
                    }
                }
                q += self.to_ambient[i] * (self.ambient_c - self.temp[i]);
                *d = q * sub / self.capacity[i];
            }
            for (t, d) in self.temp.iter_mut().zip(&delta) {
                *t += d;
            }
        }
        self.pending_w = [0.0; 5];
    }

    /// Temperature of a node, degC.
    pub fn temp_c(&self, node: NodeId) -> f64 {
        self.temp[node.index()]
    }

    /// The hottest node and its temperature.
    pub fn hottest(&self) -> (NodeId, f64) {
        NodeId::ALL.iter().map(|&n| (n, self.temp_c(n))).fold(
            (NodeId::Shell, f64::NEG_INFINITY),
            |acc, cur| {
                if cur.1 > acc.1 {
                    cur
                } else {
                    acc
                }
            },
        )
    }

    /// Ambient temperature, degC.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Override a node temperature (for tests and what-if analyses).
    pub fn set_temp_c(&mut self, node: NodeId, temp_c: f64) {
        self.temp[node.index()] = temp_c;
    }

    /// Add extra conductance between a node and the ambient — e.g. a
    /// larger passive cooling plate.
    pub fn add_ambient_path(&mut self, node: NodeId, g_w_per_k: f64) {
        assert!(g_w_per_k >= 0.0, "conductance must be non-negative");
        self.to_ambient[node.index()] += g_w_per_k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient_everywhere() {
        let n = ThermalNetwork::phone();
        for node in NodeId::ALL {
            assert!((n.temp_c(node) - 25.0).abs() < 1e-12);
        }
    }

    #[test]
    fn injected_heat_raises_the_node() {
        let mut n = ThermalNetwork::phone();
        n.inject(NodeId::Cpu, 2.0);
        n.step(1.0);
        assert!(n.temp_c(NodeId::Cpu) > 25.0);
    }

    #[test]
    fn heat_diffuses_toward_the_shell() {
        let mut n = ThermalNetwork::phone();
        for _ in 0..600 {
            n.inject(NodeId::Cpu, 2.0);
            n.step(1.0);
        }
        assert!(n.temp_c(NodeId::Shell) > 25.5);
        assert!(n.temp_c(NodeId::Cpu) > n.temp_c(NodeId::Shell));
    }

    #[test]
    fn geekbench_class_load_creates_a_hot_spot_past_45c() {
        let mut n = ThermalNetwork::phone();
        // Saturating load: 2.0 W CPU body + 0.8 W concentrated on the spot.
        for _ in 0..1800 {
            n.inject(NodeId::Cpu, 2.0);
            n.inject(NodeId::HotSpot, 0.8);
            n.step(1.0);
        }
        let (node, t) = n.hottest();
        assert_eq!(node, NodeId::HotSpot);
        assert!(t > 45.0, "hot spot should pass the threshold, got {t}");
        // But the shell (skin) stays well below the spot.
        assert!(n.temp_c(NodeId::Shell) < t - 5.0);
    }

    #[test]
    fn idle_phone_returns_to_ambient() {
        let mut n = ThermalNetwork::phone();
        n.set_temp_c(NodeId::Cpu, 60.0);
        n.set_temp_c(NodeId::HotSpot, 70.0);
        for _ in 0..7200 {
            n.step(1.0);
        }
        for node in NodeId::ALL {
            assert!(
                (n.temp_c(node) - 25.0).abs() < 0.5,
                "{node:?} should cool to ambient"
            );
        }
    }

    #[test]
    fn negative_injection_cools_a_node() {
        let mut n = ThermalNetwork::phone();
        n.set_temp_c(NodeId::HotSpot, 50.0);
        let before = n.temp_c(NodeId::HotSpot);
        n.inject(NodeId::HotSpot, -0.5);
        n.step(1.0);
        // Cooling plus diffusion both pull the spot down.
        assert!(n.temp_c(NodeId::HotSpot) < before);
    }

    #[test]
    fn bigger_cooling_plate_lowers_steady_temperature() {
        let run = |extra_plate: f64| -> f64 {
            let mut n = ThermalNetwork::phone();
            n.add_ambient_path(NodeId::Shell, extra_plate);
            for _ in 0..3600 {
                n.inject(NodeId::Cpu, 2.0);
                n.step(1.0);
            }
            n.temp_c(NodeId::Cpu)
        };
        assert!(run(0.5) < run(0.0));
    }

    #[test]
    fn energy_conservation_adiabatic() {
        // With no ambient path, injected energy must equal the heat stored.
        let mut n = ThermalNetwork::phone();
        // Remove ambient coupling.
        n.to_ambient = [0.0; 5];
        let injected = 3.0 * 100.0; // 3 W for 100 s
        for _ in 0..100 {
            n.inject(NodeId::Cpu, 3.0);
            n.step(1.0);
        }
        let stored: f64 = NodeId::ALL
            .iter()
            .map(|&node| n.capacity[node.index()] * (n.temp_c(node) - 25.0))
            .sum();
        assert!(
            (stored - injected).abs() < injected * 0.01,
            "stored {stored} J vs injected {injected} J"
        );
    }

    #[test]
    fn ambient_preset_is_respected() {
        let n = ThermalNetwork::phone_at_ambient(30.0);
        assert_eq!(n.ambient_c(), 30.0);
        assert_eq!(n.temp_c(NodeId::Cpu), 30.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn step_rejects_zero_dt() {
        ThermalNetwork::phone().step(0.0);
    }
}
