//! The finite Markov decision process `M = {S, A, T, R}`.
//!
//! States and actions are dense indices; the transition function `T` and
//! reward function `R` are stored per `(state, action)` pair as a sparse
//! list of `(successor, probability, reward)` entries, with rewards
//! normalised to `[0, 1]` as in the paper.
//!
//! # Storage layout
//!
//! Internally the MDP is a CSR (compressed sparse row) structure: every
//! outcome lives in one contiguous arena, indexed by a `row_ptr` table
//! with one row per `(state, action)` pair, and the available actions of
//! each state are packed into a second arena indexed per state. The
//! Bellman solvers, the q-learning driver and the similarity engine all
//! sweep these rows millions of times per calibration, so the layout
//! buys three things over the naive `Vec<Vec<Vec<Outcome>>>` nesting:
//!
//! * `outcomes(s, a)` is two loads into one flat allocation instead of a
//!   three-level pointer chase through per-pair heap vectors;
//! * `available_actions(s)` walks a packed slice instead of filtering
//!   all `|A|` actions through `Vec::is_empty` on every sweep;
//! * `is_absorbing(s)` and `n_action_nodes()` are O(1) pointer
//!   arithmetic.
//!
//! On top of the arena the builder lays out a structure-of-arrays mirror
//! for the Bellman sweep itself ([`SolverView`]): successor indices and
//! probabilities in two dense arrays (12 bytes per outcome instead of
//! the 24-byte [`Outcome`]), plus the expected immediate reward of every
//! action node precomputed once. A sweep then reduces to the SpMV-shaped
//! `R(a) + rho * sum_i p_i * V[succ_i]` with no reward loads at all.
//!
//! The public API is unchanged from the nested layout;
//! [`crate::reference::NestedMdp`] keeps the old representation alive as
//! a test/bench oracle.

/// One probabilistic outcome of taking an action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Successor state index.
    pub next: usize,
    /// Transition probability.
    pub prob: f64,
    /// Reward in `[0, 1]`.
    pub reward: f64,
}

/// A finite MDP with dense state/action indices, stored in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Mdp {
    n_states: usize,
    n_actions: usize,
    /// All outcomes, contiguous, rows ordered by `(state, action)`.
    arena: Vec<Outcome>,
    /// Row bounds: the outcomes of `(s, a)` live in
    /// `arena[row_ptr[s * n_actions + a]..row_ptr[s * n_actions + a + 1]]`.
    row_ptr: Vec<usize>,
    /// Packed available actions, rows ordered by state.
    actions: Vec<u32>,
    /// State bounds: the available actions of `s` live in
    /// `actions[action_ptr[s]..action_ptr[s + 1]]`.
    action_ptr: Vec<usize>,
    /// Successor per outcome, arena order (structure-of-arrays mirror).
    succ: Vec<u32>,
    /// Probability per outcome, arena order (structure-of-arrays mirror).
    prob: Vec<f64>,
    /// Arena offsets per action node: the outcomes of the `k`-th packed
    /// action node live in `arena[node_ptr[k]..node_ptr[k + 1]]`. Valid
    /// because empty rows contribute nothing to the arena, so non-empty
    /// rows are contiguous in packed-action order.
    node_ptr: Vec<usize>,
    /// Expected immediate reward per action node, precomputed from the
    /// normalised probabilities in arena order.
    node_reward: Vec<f64>,
}

/// Borrowed structure-of-arrays view of the Bellman hot path, indexed by
/// packed action node: the `k`-th node of state `s` (for `k` in
/// `action_ptr[s]..action_ptr[s + 1]`) has outcomes
/// `(succ[i], prob[i])` for `i` in `node_ptr[k]..node_ptr[k + 1]` and
/// expected immediate reward `node_reward[k]`.
pub(crate) struct SolverView<'a> {
    pub succ: &'a [u32],
    pub prob: &'a [f64],
    pub node_ptr: &'a [usize],
    pub node_reward: &'a [f64],
    pub action_ptr: &'a [usize],
}

impl Mdp {
    /// Number of states `|S|`.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions `|A|`.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// The outcomes of taking `action` in `state` (empty if unavailable).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn outcomes(&self, state: usize, action: usize) -> &[Outcome] {
        assert!(state < self.n_states, "state out of range");
        assert!(action < self.n_actions, "action out of range");
        let row = state * self.n_actions + action;
        &self.arena[self.row_ptr[row]..self.row_ptr[row + 1]]
    }

    /// Actions available in `state`, ascending.
    pub fn available_actions(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        self.action_list(state).iter().map(|&a| a as usize)
    }

    /// The packed list of actions available in `state`, ascending — the
    /// zero-cost form of [`available_actions`](Mdp::available_actions)
    /// for hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn action_list(&self, state: usize) -> &[u32] {
        assert!(state < self.n_states, "state out of range");
        &self.actions[self.action_ptr[state]..self.action_ptr[state + 1]]
    }

    /// A state with no available actions is *absorbing* (the paper's
    /// target states for battery scheduling). O(1).
    pub fn is_absorbing(&self, state: usize) -> bool {
        assert!(state < self.n_states, "state out of range");
        self.action_ptr[state] == self.action_ptr[state + 1]
    }

    /// Expected immediate reward of `(state, action)`.
    pub fn expected_reward(&self, state: usize, action: usize) -> f64 {
        self.outcomes(state, action)
            .iter()
            .map(|o| o.prob * o.reward)
            .sum()
    }

    /// Total number of `(state, action)` pairs with outcomes — the number
    /// of action nodes in the graph representation. O(1).
    pub fn n_action_nodes(&self) -> usize {
        self.actions.len()
    }

    /// Total number of outcomes (transition edges) across all pairs. O(1).
    pub fn n_outcomes(&self) -> usize {
        self.arena.len()
    }

    /// The structure-of-arrays view the Bellman sweep iterates.
    pub(crate) fn solver_view(&self) -> SolverView<'_> {
        SolverView {
            succ: &self.succ,
            prob: &self.prob,
            node_ptr: &self.node_ptr,
            node_reward: &self.node_reward,
            action_ptr: &self.action_ptr,
        }
    }
}

/// A full replacement for one `(state, action)` row, consumed by
/// [`Mdp::patch_rows`]. `outcomes` carries raw weights exactly like
/// [`MdpBuilder::transition`] — visit counts or probabilities — and is
/// normalised inside the patch with the same arithmetic the builder
/// uses, so a patched MDP is bitwise identical to a full rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPatch {
    /// Owning state of the row.
    pub state: usize,
    /// Action of the row.
    pub action: usize,
    /// The complete new outcome list (raw weights, insertion order).
    /// An empty list deletes the row (the action becomes unavailable).
    pub outcomes: Vec<Outcome>,
}

impl Mdp {
    /// Rebuild only the given rows in place, leaving every other row's
    /// storage untouched.
    ///
    /// When every patched row keeps its outcome count (and no row
    /// appears or disappears), the arena, the SoA mirrors and the
    /// per-node expected rewards are overwritten in place — the
    /// steady-state recalibration path allocates nothing. Otherwise the
    /// CSR arrays are spliced: clean rows are copied bitwise and dirty
    /// rows are laid out exactly as [`MdpBuilder::build`] would.
    ///
    /// Either way the result is bitwise equal (`==`) to rebuilding the
    /// whole MDP from scratch with the patched transition table, because
    /// per-row normalisation (`w_i / sum w`) and the expected-reward
    /// reduction run in the same order with the same operations.
    ///
    /// Returns `true` when the zero-allocation in-place path was taken.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, duplicate `(state, action)` rows
    /// in `patches`, non-positive/non-finite weights, or rewards outside
    /// `[0, 1]` — the same validation the builder applies.
    pub fn patch_rows(&mut self, patches: &[RowPatch]) -> bool {
        for p in patches {
            assert!(p.state < self.n_states, "patch state out of range");
            assert!(p.action < self.n_actions, "patch action out of range");
            for o in &p.outcomes {
                assert!(o.next < self.n_states, "successor out of range");
                assert!(
                    o.prob > 0.0 && o.prob.is_finite(),
                    "probability/count weight must be positive and finite"
                );
                assert!(
                    (0.0..=1.0).contains(&o.reward),
                    "reward must be normalised to [0, 1]"
                );
            }
        }
        let mut order: Vec<usize> = (0..patches.len()).collect();
        order.sort_by_key(|&i| (patches[i].state, patches[i].action));
        for w in order.windows(2) {
            let (a, b) = (&patches[w[0]], &patches[w[1]]);
            assert!(
                (a.state, a.action) != (b.state, b.action),
                "duplicate patch for row ({}, {})",
                a.state,
                a.action
            );
        }
        let in_place = patches.iter().all(|p| {
            let row = p.state * self.n_actions + p.action;
            self.row_ptr[row + 1] - self.row_ptr[row] == p.outcomes.len()
        });
        if in_place {
            for p in patches {
                if p.outcomes.is_empty() {
                    continue; // empty row replaced by empty row: no-op
                }
                let row = p.state * self.n_actions + p.action;
                let lo = self.row_ptr[row];
                let total: f64 = p.outcomes.iter().map(|o| o.prob).sum();
                for (i, o) in p.outcomes.iter().enumerate() {
                    let prob = o.prob / total;
                    self.arena[lo + i] = Outcome { prob, ..*o };
                    self.succ[lo + i] = o.next as u32;
                    self.prob[lo + i] = prob;
                }
                let hi = lo + p.outcomes.len();
                let base = self.action_ptr[p.state];
                let k = base
                    + self.actions[base..self.action_ptr[p.state + 1]]
                        .binary_search(&(p.action as u32))
                        .expect("non-empty row must have a packed action node");
                self.node_reward[k] = self.arena[lo..hi].iter().map(|o| o.prob * o.reward).sum();
            }
            return true;
        }
        self.splice_rows(patches, &order);
        false
    }

    /// The slow patch path: re-lay the CSR arrays, copying clean rows
    /// bitwise and normalising dirty rows exactly like the builder.
    fn splice_rows(&mut self, patches: &[RowPatch], order: &[usize]) {
        let dirty_edges: usize = order.iter().map(|&i| patches[i].outcomes.len()).sum();
        let clean_edges: usize = order
            .iter()
            .map(|&i| {
                let p = &patches[i];
                let row = p.state * self.n_actions + p.action;
                self.row_ptr[row + 1] - self.row_ptr[row]
            })
            .sum();
        let n_edges = self.arena.len() - clean_edges + dirty_edges;
        let mut arena = Vec::with_capacity(n_edges);
        let mut row_ptr = Vec::with_capacity(self.n_states * self.n_actions + 1);
        let mut actions = Vec::with_capacity(self.actions.len());
        let mut action_ptr = Vec::with_capacity(self.n_states + 1);
        let mut succ = Vec::with_capacity(n_edges);
        let mut prob = Vec::with_capacity(n_edges);
        let mut node_ptr = Vec::with_capacity(self.node_ptr.len());
        let mut node_reward = Vec::with_capacity(self.node_reward.len());
        row_ptr.push(0);
        action_ptr.push(0);
        let mut pending = order.iter().map(|&i| &patches[i]).peekable();
        let mut scratch: Vec<Outcome> = Vec::new();
        for s in 0..self.n_states {
            let mut old_k = self.action_ptr[s];
            for a in 0..self.n_actions {
                let row = s * self.n_actions + a;
                let old = &self.arena[self.row_ptr[row]..self.row_ptr[row + 1]];
                let patched = match pending.next_if(|p| (p.state, p.action) == (s, a)) {
                    Some(p) => {
                        // Normalise into scratch with the builder's
                        // exact per-row arithmetic.
                        scratch.clear();
                        scratch.extend_from_slice(&p.outcomes);
                        let total: f64 = scratch.iter().map(|o| o.prob).sum();
                        if total > 0.0 {
                            for o in scratch.iter_mut() {
                                o.prob /= total;
                            }
                        }
                        true
                    }
                    None => false,
                };
                let was_occupied = !old.is_empty();
                let outs: &[Outcome] = if patched { &scratch } else { old };
                if !outs.is_empty() {
                    actions.push(a as u32);
                    node_ptr.push(arena.len());
                    // A clean row keeps its precomputed expected reward
                    // bit-for-bit; a dirty row recomputes it the way the
                    // builder does.
                    node_reward.push(if patched {
                        outs.iter().map(|o| o.prob * o.reward).sum()
                    } else {
                        self.node_reward[old_k]
                    });
                }
                if was_occupied {
                    old_k += 1;
                }
                arena.extend_from_slice(outs);
                succ.extend(outs.iter().map(|o| o.next as u32));
                prob.extend(outs.iter().map(|o| o.prob));
                row_ptr.push(arena.len());
            }
            action_ptr.push(actions.len());
        }
        node_ptr.push(arena.len());
        self.arena = arena;
        self.row_ptr = row_ptr;
        self.actions = actions;
        self.action_ptr = action_ptr;
        self.succ = succ;
        self.prob = prob;
        self.node_ptr = node_ptr;
        self.node_reward = node_reward;
    }
}

/// A validating builder for [`Mdp`].
#[derive(Debug, Clone)]
pub struct MdpBuilder {
    n_states: usize,
    n_actions: usize,
    outcomes: Vec<Vec<Vec<Outcome>>>,
}

impl MdpBuilder {
    /// Start a builder for `n_states` states and `n_actions` actions.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(n_states: usize, n_actions: usize) -> Self {
        assert!(n_states > 0, "need at least one state");
        assert!(n_actions > 0, "need at least one action");
        MdpBuilder {
            n_states,
            n_actions,
            outcomes: vec![vec![Vec::new(); n_actions]; n_states],
        }
    }

    /// Add an outcome: taking `action` in `state` reaches `next` with
    /// weight `prob` (a probability or a raw visit count — weights are
    /// normalised per `(state, action)` at [`build`](MdpBuilder::build))
    /// and reward `reward`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, `prob` is not positive and
    /// finite, or `reward` is not in `[0, 1]`.
    pub fn transition(
        &mut self,
        state: usize,
        action: usize,
        next: usize,
        prob: f64,
        reward: f64,
    ) -> &mut Self {
        assert!(state < self.n_states, "state out of range");
        assert!(action < self.n_actions, "action out of range");
        assert!(next < self.n_states, "successor out of range");
        assert!(
            prob > 0.0 && prob.is_finite(),
            "probability/count weight must be positive and finite"
        );
        assert!(
            (0.0..=1.0).contains(&reward),
            "reward must be normalised to [0, 1]"
        );
        self.outcomes[state][action].push(Outcome { next, prob, reward });
        self
    }

    /// Finish the MDP, flattening the accumulated nesting into CSR form.
    ///
    /// Outcome probabilities of each `(state, action)` are normalised to
    /// sum to one, so callers may supply raw visit counts (this is how the
    /// profiler feeds observed transition statistics in). Normalisation
    /// happens per pair in insertion order, so the stored probabilities
    /// are bitwise identical to what the nested layout produced.
    pub fn build(mut self) -> Mdp {
        assert!(
            u32::try_from(self.n_states).is_ok(),
            "state indices must fit in u32 for the packed successor array"
        );
        for per_state in &mut self.outcomes {
            for outs in per_state {
                let total: f64 = outs.iter().map(|o| o.prob).sum();
                if total > 0.0 {
                    for o in outs.iter_mut() {
                        o.prob /= total;
                    }
                }
            }
        }
        let n_edges: usize = self
            .outcomes
            .iter()
            .flat_map(|per_state| per_state.iter().map(Vec::len))
            .sum();
        let mut arena = Vec::with_capacity(n_edges);
        let mut row_ptr = Vec::with_capacity(self.n_states * self.n_actions + 1);
        let mut actions = Vec::new();
        let mut action_ptr = Vec::with_capacity(self.n_states + 1);
        let mut succ = Vec::with_capacity(n_edges);
        let mut prob = Vec::with_capacity(n_edges);
        let mut node_ptr = Vec::new();
        let mut node_reward = Vec::new();
        row_ptr.push(0);
        action_ptr.push(0);
        for per_state in &self.outcomes {
            for (a, outs) in per_state.iter().enumerate() {
                if !outs.is_empty() {
                    actions.push(a as u32);
                    node_ptr.push(arena.len());
                    node_reward.push(outs.iter().map(|o| o.prob * o.reward).sum());
                }
                arena.extend_from_slice(outs);
                succ.extend(outs.iter().map(|o| o.next as u32));
                prob.extend(outs.iter().map(|o| o.prob));
                row_ptr.push(arena.len());
            }
            action_ptr.push(actions.len());
        }
        node_ptr.push(arena.len());
        Mdp {
            n_states: self.n_states,
            n_actions: self.n_actions,
            arena,
            row_ptr,
            actions,
            action_ptr,
            succ,
            prob,
            node_ptr,
            node_reward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Mdp {
        // 0 --a0--> 1 --a0--> 2 (absorbing)
        let mut b = MdpBuilder::new(3, 2);
        b.transition(0, 0, 1, 1.0, 0.5);
        b.transition(1, 0, 2, 1.0, 1.0);
        b.build()
    }

    #[test]
    fn absorbing_detection() {
        let m = chain();
        assert!(!m.is_absorbing(0));
        assert!(!m.is_absorbing(1));
        assert!(m.is_absorbing(2));
    }

    #[test]
    fn available_actions_are_sparse() {
        let m = chain();
        assert_eq!(m.available_actions(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.available_actions(2).count(), 0);
    }

    #[test]
    fn probabilities_are_normalised_from_counts() {
        let mut b = MdpBuilder::new(2, 1);
        // Raw counts: 3 visits to state 0, 1 to state 1.
        b.transition(0, 0, 0, 0.75, 0.0);
        b.transition(0, 0, 1, 0.25, 1.0);
        let m = b.build();
        let total: f64 = m.outcomes(0, 0).iter().map(|o| o.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_reward_weighs_probabilities() {
        let mut b = MdpBuilder::new(2, 1);
        b.transition(0, 0, 0, 0.5, 0.0);
        b.transition(0, 0, 1, 0.5, 1.0);
        let m = b.build();
        assert!((m.expected_reward(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn action_node_count() {
        assert_eq!(chain().n_action_nodes(), 2);
    }

    #[test]
    fn packed_action_lists_mirror_the_iterator() {
        let m = chain();
        for s in 0..m.n_states() {
            let packed: Vec<usize> = m.action_list(s).iter().map(|&a| a as usize).collect();
            let iterated: Vec<usize> = m.available_actions(s).collect();
            assert_eq!(packed, iterated, "state {s}");
        }
        assert_eq!(m.n_outcomes(), 2);
    }

    #[test]
    fn empty_rows_are_empty_slices() {
        let m = chain();
        assert!(m.outcomes(0, 1).is_empty());
        assert!(m.outcomes(2, 0).is_empty());
        assert!(m.outcomes(2, 1).is_empty());
    }

    #[test]
    fn solver_view_mirrors_the_arena() {
        let mut b = MdpBuilder::new(4, 3);
        b.transition(0, 0, 1, 2.0, 0.5);
        b.transition(0, 0, 2, 1.0, 0.25);
        b.transition(0, 2, 3, 1.0, 1.0);
        b.transition(1, 1, 3, 1.0, 0.75);
        b.transition(2, 0, 3, 1.0, 0.0);
        let m = b.build();
        let v = m.solver_view();
        assert_eq!(v.succ.len(), m.n_outcomes());
        assert_eq!(v.prob.len(), m.n_outcomes());
        assert_eq!(v.node_ptr.len(), m.n_action_nodes() + 1);
        for s in 0..m.n_states() {
            for (k, &a) in (v.action_ptr[s]..v.action_ptr[s + 1]).zip(m.action_list(s)) {
                let outs = m.outcomes(s, a as usize);
                assert_eq!(v.node_ptr[k + 1] - v.node_ptr[k], outs.len());
                for (i, o) in (v.node_ptr[k]..v.node_ptr[k + 1]).zip(outs) {
                    assert_eq!(v.succ[i] as usize, o.next);
                    assert_eq!(v.prob[i], o.prob);
                }
                let r: f64 = outs.iter().map(|o| o.prob * o.reward).sum();
                assert_eq!(v.node_reward[k], r);
            }
        }
    }

    #[test]
    #[should_panic(expected = "reward")]
    fn rejects_unnormalised_reward() {
        let mut b = MdpBuilder::new(2, 1);
        b.transition(0, 0, 1, 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_zero_probability() {
        let mut b = MdpBuilder::new(2, 1);
        b.transition(0, 0, 1, 0.0, 0.5);
    }

    type Tx = (usize, usize, usize, f64, f64);

    fn fixture_txs() -> Vec<Tx> {
        vec![
            (0, 0, 1, 2.0, 0.5),
            (0, 0, 2, 1.0, 0.25),
            (0, 2, 3, 1.0, 1.0),
            (1, 1, 3, 3.0, 0.75),
            (1, 1, 0, 1.0, 0.5),
            (2, 0, 3, 1.0, 0.0),
        ]
    }

    fn build_from(n_states: usize, n_actions: usize, txs: &[Tx]) -> Mdp {
        let mut b = MdpBuilder::new(n_states, n_actions);
        for &(s, a, to, w, r) in txs {
            b.transition(s, a, to, w, r);
        }
        b.build()
    }

    /// Apply a patch to the raw transition table the way the profiler's
    /// full rebuild would see it: replace the row's entries in place
    /// (keeping table order), append brand-new rows at the end.
    fn patch_txs(txs: &[Tx], patch: &RowPatch) -> Vec<Tx> {
        let mut out: Vec<Tx> = Vec::new();
        let mut emitted = false;
        for &(s, a, to, w, r) in txs {
            if (s, a) == (patch.state, patch.action) {
                if !emitted {
                    emitted = true;
                    for o in &patch.outcomes {
                        out.push((patch.state, patch.action, o.next, o.prob, o.reward));
                    }
                }
            } else {
                out.push((s, a, to, w, r));
            }
        }
        if !emitted {
            for o in &patch.outcomes {
                out.push((patch.state, patch.action, o.next, o.prob, o.reward));
            }
        }
        out
    }

    #[test]
    fn same_shape_patch_runs_in_place_and_matches_a_full_rebuild() {
        let txs = fixture_txs();
        let mut patched = build_from(4, 3, &txs);
        // Same successors, new raw counts/rewards: the row keeps its
        // width, so the patch must take the zero-allocation path.
        let patch = RowPatch {
            state: 0,
            action: 0,
            outcomes: vec![
                Outcome {
                    next: 1,
                    prob: 5.0,
                    reward: 0.625,
                },
                Outcome {
                    next: 2,
                    prob: 3.0,
                    reward: 0.125,
                },
            ],
        };
        assert!(patched.patch_rows(std::slice::from_ref(&patch)));
        let rebuilt = build_from(4, 3, &patch_txs(&txs, &patch));
        assert_eq!(patched, rebuilt);
    }

    #[test]
    fn widened_row_splices_and_matches_a_full_rebuild() {
        let txs = fixture_txs();
        let mut patched = build_from(4, 3, &txs);
        let patch = RowPatch {
            state: 0,
            action: 0,
            outcomes: vec![
                Outcome {
                    next: 1,
                    prob: 2.0,
                    reward: 0.5,
                },
                Outcome {
                    next: 2,
                    prob: 1.0,
                    reward: 0.25,
                },
                Outcome {
                    next: 3,
                    prob: 1.0,
                    reward: 0.75,
                },
            ],
        };
        assert!(!patched.patch_rows(std::slice::from_ref(&patch)));
        let rebuilt = build_from(4, 3, &patch_txs(&txs, &patch));
        assert_eq!(patched, rebuilt);
    }

    #[test]
    fn new_and_deleted_rows_splice_and_match_a_full_rebuild() {
        let txs = fixture_txs();
        let mut patched = build_from(4, 3, &txs);
        // One brand-new action node on state 3 (previously absorbing),
        // one deleted row on state 2, applied together.
        let fresh = RowPatch {
            state: 3,
            action: 1,
            outcomes: vec![Outcome {
                next: 0,
                prob: 1.0,
                reward: 0.5,
            }],
        };
        let gone = RowPatch {
            state: 2,
            action: 0,
            outcomes: Vec::new(),
        };
        assert!(!patched.patch_rows(&[fresh.clone(), gone.clone()]));
        let rebuilt = build_from(4, 3, &patch_txs(&patch_txs(&txs, &fresh), &gone));
        assert_eq!(patched, rebuilt);
        assert!(!patched.is_absorbing(3));
        assert!(patched.outcomes(2, 0).is_empty());
    }

    #[test]
    fn patch_normalises_raw_visit_counts() {
        let mut m = build_from(4, 3, &fixture_txs());
        m.patch_rows(&[RowPatch {
            state: 1,
            action: 1,
            outcomes: vec![
                Outcome {
                    next: 3,
                    prob: 9.0,
                    reward: 1.0,
                },
                Outcome {
                    next: 0,
                    prob: 1.0,
                    reward: 0.0,
                },
            ],
        }]);
        let total: f64 = m.outcomes(1, 1).iter().map(|o| o.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((m.expected_reward(1, 1) - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate patch")]
    fn rejects_duplicate_patch_rows() {
        let mut m = chain();
        let p = RowPatch {
            state: 0,
            action: 0,
            outcomes: vec![Outcome {
                next: 1,
                prob: 1.0,
                reward: 0.5,
            }],
        };
        m.patch_rows(&[p.clone(), p]);
    }

    #[test]
    #[should_panic(expected = "reward")]
    fn patch_rejects_unnormalised_reward() {
        let mut m = chain();
        m.patch_rows(&[RowPatch {
            state: 0,
            action: 0,
            outcomes: vec![Outcome {
                next: 1,
                prob: 1.0,
                reward: 2.0,
            }],
        }]);
    }
}
