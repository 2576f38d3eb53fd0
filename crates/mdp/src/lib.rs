//! Markov decision processes and the structural-similarity machinery of
//! CAPMAN (Section III).
//!
//! The paper casts battery scheduling as a finite MDP
//! `M = {S, A, T, R}`, represents it as a directed bipartite graph
//! `G_M = {V, Lambda, E, Psi, p, r}` of *state* and *action* nodes, and
//! accelerates solving with a structural-similarity recursion
//! (Algorithm 1): action similarity via the Earth Mover's Distance
//! between transition distributions, state similarity via the Hausdorff
//! distance between action-neighbourhood similarity sets. Similar states
//! can reuse each other's decisions, with the value gap bounded by
//! `delta_S(u, v) / (1 - rho)` — the paper's
//! `O(1/(1-rho))`-competitiveness.
//!
//! Modules:
//!
//! * [`mdp`] — the finite MDP with a validating builder; transition
//!   storage is a flat CSR arena with packed per-state action lists.
//! * [`graph`] — the bipartite MDP graph `G_M`.
//! * [`value_iteration`] — exact Bellman solving (the Oracle's engine):
//!   Jacobi sweeps with a parallel schedule that is bit-identical to the
//!   serial one.
//! * [`reference`] — the nested-Vec layout and pre-CSR Gauss–Seidel
//!   solver, kept as test/bench oracles.
//! * [`emd`] — Earth Mover's Distance via a successive-shortest-path
//!   min-cost flow (the paper's SSP subroutine).
//! * [`hausdorff`] — Hausdorff distance between node sets.
//! * [`similarity`] — Algorithm 1 and the value-difference bound.
//! * [`engine`] — the parallel, memoized similarity engine: the same
//!   fixpoint with row-parallel sweeps, an EMD memo cache, and
//!   bound-based pruning of exact EMD solves.
//! * [`abstraction`] — similarity-threshold state aggregation used by the
//!   online scheduler to reuse decisions.
//! * [`pipeline`] — coarse-to-fine recalibration: quotient MDPs built
//!   directly in CSR form from an abstraction ladder, each level's
//!   Bellman solve warm-started from the previous one.
//!
//! # Example
//!
//! ```
//! use capman_mdp::mdp::MdpBuilder;
//! use capman_mdp::value_iteration::solve;
//!
//! let mut b = MdpBuilder::new(3, 2);
//! b.transition(0, 0, 1, 1.0, 0.2);
//! b.transition(0, 1, 2, 1.0, 0.9);
//! let mdp = b.build();
//! let sol = solve(&mdp, 0.9, 1e-9);
//! assert_eq!(sol.policy[0], Some(1)); // the rewarding action wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod emd;
pub mod engine;
pub mod graph;
pub mod hausdorff;
pub mod matrix;
pub mod mdp;
pub mod pipeline;
pub mod policy_iteration;
pub mod reference;
pub mod similarity;
pub mod value_iteration;

pub use engine::{EngineStats, ExecutionMode, RunStats, SimilarityEngine};
pub use graph::MdpGraph;
pub use matrix::SquareMatrix;
pub use mdp::{Mdp, MdpBuilder};
pub use pipeline::{LevelStats, PipelineOutcome, QuotientScratch, RecalibrationPipeline};
pub use similarity::{SimilarityParams, SimilarityResult};
pub use value_iteration::{solve_warm, solve_warm_with, solve_with_mode, Precision, Solution};
