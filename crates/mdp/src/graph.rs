//! The bipartite MDP graph `G_M = {V, Lambda, E, Psi, p, r}`.
//!
//! State nodes `V` connect through unweighted *decision edges* `E` to
//! action nodes `Lambda`, which connect back through *transition edges*
//! `Psi` weighted by probability `p` and reward `r` (Section III-B).
//! The graph corresponds one-to-one with the MDP, so solving the graph
//! solves the MDP; the structural-similarity recursion of Algorithm 1
//! operates on this representation.
//!
//! CAPMAN additionally prunes the graph: it "only generates" action nodes
//! that connect state nodes with *different battery states*, reducing the
//! node count the similarity recursion must handle. The pruning predicate
//! is supplied by the caller via [`MdpGraph::filtered`].

use crate::mdp::Mdp;

/// An action node: a `(state, action)` pair with its transition edges.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionNode {
    /// The state node this action departs from.
    pub state: usize,
    /// The MDP action index.
    pub action: usize,
    /// Transition edges `Psi`: `(successor state, probability, reward)`.
    pub edges: Vec<(usize, f64, f64)>,
}

impl ActionNode {
    /// Expected immediate reward over the transition edges.
    pub fn expected_reward(&self) -> f64 {
        self.edges.iter().map(|&(_, p, r)| p * r).sum()
    }
}

/// The bipartite graph representation of an MDP.
#[derive(Debug, Clone, PartialEq)]
pub struct MdpGraph {
    n_states: usize,
    action_nodes: Vec<ActionNode>,
    /// Decision edges `E`: action-node ids leaving each state node.
    state_out: Vec<Vec<usize>>,
}

impl MdpGraph {
    /// Build the full graph of an MDP (every available action becomes an
    /// action node).
    pub fn from_mdp(mdp: &Mdp) -> Self {
        Self::filtered(mdp, |_, _| true)
    }

    /// Build a pruned graph containing only the action nodes for which
    /// `keep(state, action)` holds — CAPMAN keeps the actions that switch
    /// the battery state.
    pub fn filtered(mdp: &Mdp, mut keep: impl FnMut(usize, usize) -> bool) -> Self {
        let n_states = mdp.n_states();
        let mut action_nodes = Vec::new();
        let mut state_out = vec![Vec::new(); n_states];
        for (s, out) in state_out.iter_mut().enumerate() {
            for a in mdp.available_actions(s) {
                if !keep(s, a) {
                    continue;
                }
                let edges = mdp
                    .outcomes(s, a)
                    .iter()
                    .map(|o| (o.next, o.prob, o.reward))
                    .collect();
                out.push(action_nodes.len());
                action_nodes.push(ActionNode {
                    state: s,
                    action: a,
                    edges,
                });
            }
        }
        MdpGraph {
            n_states,
            action_nodes,
            state_out,
        }
    }

    /// Number of state nodes `|V|`.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of action nodes `|Lambda|`.
    pub fn n_action_nodes(&self) -> usize {
        self.action_nodes.len()
    }

    /// The action node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn action_node(&self, id: usize) -> &ActionNode {
        &self.action_nodes[id]
    }

    /// All action nodes.
    pub fn action_nodes(&self) -> &[ActionNode] {
        &self.action_nodes
    }

    /// Decision edges of a state node: ids of its out-neighbour action
    /// nodes (`N_u` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn neighbors(&self, state: usize) -> &[usize] {
        &self.state_out[state]
    }

    /// Whether a state node is absorbing (out-degree zero) — the target
    /// states of battery scheduling.
    pub fn is_absorbing(&self, state: usize) -> bool {
        self.state_out[state].is_empty()
    }

    /// Maximum out-degree of action nodes (`K_max` in the complexity
    /// analysis).
    pub fn k_max(&self) -> usize {
        self.action_nodes
            .iter()
            .map(|a| a.edges.len())
            .max()
            .unwrap_or(0)
    }

    /// Maximum out-degree of state nodes (`L_max`).
    pub fn l_max(&self) -> usize {
        self.state_out.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;

    fn diamond() -> Mdp {
        // 0 -(a0)-> {1: 0.5, 2: 0.5}; 1 -(a1)-> 3; 2 -(a0)-> 3.
        let mut b = MdpBuilder::new(4, 2);
        b.transition(0, 0, 1, 0.5, 0.3);
        b.transition(0, 0, 2, 0.5, 0.6);
        b.transition(1, 1, 3, 1.0, 1.0);
        b.transition(2, 0, 3, 1.0, 0.0);
        b.build()
    }

    #[test]
    fn graph_mirrors_the_mdp() {
        let m = diamond();
        let g = MdpGraph::from_mdp(&m);
        assert_eq!(g.n_states(), 4);
        assert_eq!(g.n_action_nodes(), m.n_action_nodes());
        assert_eq!(g.neighbors(0).len(), 1);
        assert!(g.is_absorbing(3));
        assert!(!g.is_absorbing(0));
    }

    #[test]
    fn transition_edges_carry_p_and_r() {
        let g = MdpGraph::from_mdp(&diamond());
        let node = g.action_node(g.neighbors(0)[0]);
        assert_eq!(node.edges.len(), 2);
        let total_p: f64 = node.edges.iter().map(|&(_, p, _)| p).sum();
        assert!((total_p - 1.0).abs() < 1e-12);
        assert!((node.expected_reward() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn filtering_prunes_action_nodes() {
        let m = diamond();
        // Keep only action 0 nodes (CAPMAN's battery-switch pruning
        // analog).
        let g = MdpGraph::filtered(&m, |_, a| a == 0);
        assert_eq!(g.n_action_nodes(), 2);
        assert!(g.neighbors(1).is_empty());
        assert!(g.is_absorbing(1), "pruned state loses its out-edges");
    }

    #[test]
    fn degree_statistics() {
        let g = MdpGraph::from_mdp(&diamond());
        assert_eq!(g.k_max(), 2);
        assert_eq!(g.l_max(), 1);
    }

    #[test]
    fn one_to_one_correspondence_with_mdp() {
        // Every (state, action) pair with outcomes appears exactly once.
        let m = diamond();
        let g = MdpGraph::from_mdp(&m);
        for s in 0..m.n_states() {
            for a in m.available_actions(s) {
                let found = g
                    .action_nodes()
                    .iter()
                    .filter(|n| n.state == s && n.action == a)
                    .count();
                assert_eq!(found, 1, "({s}, {a}) should appear once");
            }
        }
    }
}
