//! The parallel, memoized similarity engine.
//!
//! [`SimilarityEngine`] computes the same `(sigma_S*, sigma_A*)` fixpoint
//! as [`crate::similarity::structural_similarity`] — that function stays
//! as the reference implementation — but restructures each sweep for
//! speed:
//!
//! * **Row-parallel sweeps of the live block.** Each iteration is a
//!   Jacobi sweep: every pair reads only the *previous* matrices, so the
//!   upper triangle can be filled row-by-row in parallel. Every `S` entry
//!   that touches an absorbing state is an Eq. (3) base case, set once
//!   per run, so the state sweep fills only the live block (the states
//!   with action nodes), writes it and its mirror into `S`, and diffs only
//!   that block. `A` is double-buffered and its whole upper triangle is
//!   rewritten each sweep. Rows are written through disjoint row chunks
//!   and mirrored afterwards, which makes the serial and parallel
//!   schedules produce bit-identical matrices.
//! * **One reusable SSP solver per thread.** Exact solves run on a
//!   thread-local min-cost-flow solver whose graph, potentials and
//!   Dijkstra buffers are cleared rather than reallocated, fed the
//!   supports and masses computed once per run. Node numbering, edge
//!   order and heap order are those of [`crate::emd::emd_detailed`], so
//!   every distance and augmentation count is bit-identical.
//! * **EMD memoization.** An EMD solve is a pure function of the two
//!   successor distributions and the ground-distance entries they touch.
//!   Solutions are cached under a 128-bit fingerprint of exactly those
//!   inputs, so duplicate distribution pairs within a sweep, unchanged
//!   pairs across sweeps, and repeated recalibrations on a slowly
//!   changing graph all skip the successive-shortest-path solver.
//! * **Bound pruning.** Cheap EMD bounds ([`crate::emd::emd_bounds`])
//!   decide many pairs outright: when the upper bound is zero the
//!   transport is free and `sigma` needs no solve; when even the lower
//!   bound already drives `sigma` to the clamp at zero, the exact
//!   distance is irrelevant. Both shortcuts reproduce the exact clamped
//!   value, so pruning does not perturb the fixpoint.
//!
//! Determinism contract: for a fixed configuration, `compute` is a pure
//! function of the graph and parameters. Serial and parallel modes return
//! bit-identical matrices, and a warm cache returns bit-identical results
//! to a cold one (cached values are exactly the values a solve would
//! recompute).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

use crate::emd::{emd_bounds_on_support, emd_on_support, Marginal};
use crate::graph::MdpGraph;
use crate::hausdorff::hausdorff;
use crate::matrix::SquareMatrix;
use crate::similarity::{apply_base_cases, SimilarityParams, SimilarityResult};

/// How sweeps are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One thread fills every row in order.
    Serial,
    /// Rows are dealt across the available cores.
    Parallel,
}

/// Counters and timings from the most recent [`SimilarityEngine::compute`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Fixpoint sweeps executed (equals `SimilarityResult::iterations`).
    pub sweeps: usize,
    /// Action-node pairs evaluated across all sweeps.
    pub pair_evaluations: usize,
    /// Exact SSP solves performed (cache misses that survived pruning).
    pub emd_solves: usize,
    /// Pairs answered from the memo cache.
    pub cache_hits: usize,
    /// Pairs decided by the EMD bounds without a solve or cache lookup.
    pub bound_pruned: usize,
    /// Wall time of each sweep, in microseconds.
    pub sweep_us: Vec<f64>,
    /// Total wall time of the run, in microseconds.
    pub wall_us: f64,
}

impl RunStats {
    /// Fraction of non-pruned pair evaluations served by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let looked_up = self.cache_hits + self.emd_solves;
        if looked_up == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked_up as f64
        }
    }

    /// Mean sweep wall time in microseconds (zero before any sweep).
    pub fn mean_sweep_us(&self) -> f64 {
        if self.sweep_us.is_empty() {
            0.0
        } else {
            self.sweep_us.iter().sum::<f64>() / self.sweep_us.len() as f64
        }
    }
}

/// Lifetime counters for a [`SimilarityEngine`], accumulated across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Completed `compute` runs.
    pub runs: usize,
    /// Action-node pairs evaluated across all runs.
    pub pair_evaluations: usize,
    /// Exact SSP solves across all runs.
    pub emd_solves: usize,
    /// Memo-cache hits across all runs.
    pub cache_hits: usize,
    /// Bound-pruned pairs across all runs.
    pub bound_pruned: usize,
    /// Memo entries evicted by targeted invalidation
    /// ([`SimilarityEngine::invalidate_states`]) across all runs.
    pub cache_evictions: usize,
    /// Targeted-invalidation calls across all runs.
    pub invalidations: usize,
    /// Total wall time across all runs, in microseconds.
    pub wall_us: f64,
    /// Statistics of the most recent run.
    pub last_run: RunStats,
}

impl EngineStats {
    /// Lifetime fraction of non-pruned pair evaluations served by cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let looked_up = self.cache_hits + self.emd_solves;
        if looked_up == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked_up as f64
        }
    }
}

const CACHE_SHARDS: usize = 32;
/// Per-shard entry cap; a full shard is flushed wholesale. Bounds the
/// cache at `CACHE_SHARDS * MAX_ENTRIES_PER_SHARD` entries.
const MAX_ENTRIES_PER_SHARD: usize = 8192;

/// One memoized EMD solution: the exact distance plus the states whose
/// `sigma_S` entries or distribution weights the solve read (the sorted
/// union of both supports). The state list is what makes *targeted*
/// invalidation possible: a profiler drift that dirties state `d` can
/// evict exactly the entries with `d` in their support instead of
/// flushing the whole cache.
#[derive(Debug, Clone)]
struct CacheEntry {
    distance: f64,
    states: Box<[u32]>,
}

/// Sharded memo cache from EMD-problem fingerprints to exact distances.
#[derive(Debug)]
struct EmdCache {
    shards: Vec<Mutex<HashMap<u128, CacheEntry>>>,
}

impl EmdCache {
    fn new() -> Self {
        EmdCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, CacheEntry>> {
        &self.shards[(key as u64 ^ (key >> 64) as u64) as usize % CACHE_SHARDS]
    }

    fn get(&self, key: u128) -> Option<f64> {
        self.shard(key)
            .lock()
            .unwrap()
            .get(&key)
            .map(|e| e.distance)
    }

    /// Memoize `key` unless another row already has. Returns whether
    /// this call inserted: two rows of a parallel sweep can both miss
    /// on the same fingerprint, and only the first to insert counts its
    /// solve.
    fn insert(&self, key: u128, distance: f64, states: Box<[u32]>) -> bool {
        let mut shard = self.shard(key).lock().unwrap();
        if shard.contains_key(&key) {
            return false;
        }
        if shard.len() >= MAX_ENTRIES_PER_SHARD {
            shard.clear();
        }
        shard.insert(key, CacheEntry { distance, states });
        true
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Evict every entry whose involved-state list intersects `dirty`
    /// (ascending, deduplicated). Returns the number evicted.
    fn invalidate(&self, dirty: &[u32]) -> usize {
        if dirty.is_empty() {
            return 0;
        }
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let before = shard.len();
            shard.retain(|_, e| !sorted_intersects(&e.states, dirty));
            evicted += before - shard.len();
        }
        evicted
    }
}

/// Whether two ascending `u32` slices share an element (two-pointer walk).
fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The sorted union of two ascending support lists, as the `u32` state
/// ids a [`CacheEntry`] stores.
fn support_union(supp_p: &[usize], supp_q: &[usize]) -> Box<[u32]> {
    let mut out = Vec::with_capacity(supp_p.len() + supp_q.len());
    let (mut i, mut j) = (0, 0);
    while i < supp_p.len() && j < supp_q.len() {
        match supp_p[i].cmp(&supp_q[j]) {
            std::cmp::Ordering::Less => {
                out.push(supp_p[i] as u32);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(supp_q[j] as u32);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(supp_p[i] as u32);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(supp_p[i..].iter().map(|&x| x as u32));
    out.extend(supp_q[j..].iter().map(|&x| x as u32));
    out.into_boxed_slice()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent FNV-1a lanes giving a 128-bit fingerprint.
struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn mix(&mut self, x: u64) {
        self.a = (self.a ^ x).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ x.rotate_left(29)).wrapping_mul(FNV_PRIME);
    }

    fn value(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// Fingerprint of an EMD problem: both supports with their raw weights,
/// plus the ground-distance entries (as `sigma_S` bits) the solver can
/// read. Equal fingerprint inputs make `emd_detailed` return the same
/// value, so a hit is exact, not approximate.
fn emd_fingerprint(
    p: &[f64],
    q: &[f64],
    supp_p: &[usize],
    supp_q: &[usize],
    s: &SquareMatrix,
) -> u128 {
    let mut fp = Fingerprint::new();
    fp.mix(supp_p.len() as u64);
    for &i in supp_p {
        fp.mix(i as u64);
        fp.mix(p[i].to_bits());
    }
    fp.mix(supp_q.len() as u64);
    for &j in supp_q {
        fp.mix(j as u64);
        fp.mix(q[j].to_bits());
    }
    for &i in supp_p {
        for &j in supp_q {
            fp.mix(s.get(i, j).to_bits());
        }
    }
    fp.value()
}

/// Shared read-only context for one action sweep, plus its counters.
struct ActionSweepCtx<'a> {
    s: &'a SquareMatrix,
    dists: &'a [Vec<f64>],
    supports: &'a [Vec<usize>],
    masses: &'a [f64],
    rewards: &'a [f64],
    params: &'a SimilarityParams,
    cache: Option<&'a EmdCache>,
    prune: bool,
    emd_solves: &'a AtomicUsize,
    cache_hits: &'a AtomicUsize,
    bound_pruned: &'a AtomicUsize,
    ssp_augmentations: &'a AtomicUsize,
}

impl ActionSweepCtx<'_> {
    /// Action node `ai`'s successor distribution as a transport side.
    fn marginal(&self, ai: usize) -> Marginal<'_> {
        Marginal {
            weights: &self.dists[ai],
            support: &self.supports[ai],
            total: self.masses[ai],
        }
    }
}

/// `sigma_A` for one pair, with pruning and memoization. Pure in the
/// context (counters aside), so the schedule cannot change the value.
fn action_pair_sigma(ctx: &ActionSweepCtx<'_>, ai: usize, bi: usize) -> f64 {
    let params = ctx.params;
    let delta_rwd = (ctx.rewards[ai] - ctx.rewards[bi]).abs();
    // sigma = available - C_A * d, clamped to [0, 1].
    let available = 1.0 - (1.0 - params.c_a) * delta_rwd;
    let ground = |u: usize, v: usize| 1.0 - ctx.s.get(u, v);
    let solve = || emd_on_support(ctx.marginal(ai), ctx.marginal(bi), ground);

    if ctx.prune {
        let b = emd_bounds_on_support(
            &ctx.dists[ai],
            &ctx.dists[bi],
            &ctx.supports[ai],
            &ctx.supports[bi],
            ground,
        );
        if b.upper <= 0.0 {
            // The optimal transport is free, so d = 0 exactly.
            ctx.bound_pruned.fetch_add(1, Ordering::Relaxed);
            return available.clamp(0.0, 1.0);
        }
        if available - params.c_a * b.lower <= 0.0 {
            // Even the cheapest possible transport clamps sigma to 0.
            ctx.bound_pruned.fetch_add(1, Ordering::Relaxed);
            return 0.0;
        }
    }

    let distance = match ctx.cache {
        Some(cache) => {
            let key = emd_fingerprint(
                &ctx.dists[ai],
                &ctx.dists[bi],
                &ctx.supports[ai],
                &ctx.supports[bi],
                ctx.s,
            );
            match cache.get(key) {
                Some(d) => {
                    ctx.cache_hits.fetch_add(1, Ordering::Relaxed);
                    d
                }
                None => {
                    let r = solve();
                    let states = support_union(&ctx.supports[ai], &ctx.supports[bi]);
                    if cache.insert(key, r.distance, states) {
                        ctx.emd_solves.fetch_add(1, Ordering::Relaxed);
                        ctx.ssp_augmentations
                            .fetch_add(r.augmentations, Ordering::Relaxed);
                    } else {
                        // Another row solved this pair first; the serial
                        // schedule would have found its memo, so count
                        // what the serial schedule counts: a hit.
                        ctx.cache_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    r.distance
                }
            }
        }
        None => {
            let r = solve();
            ctx.emd_solves.fetch_add(1, Ordering::Relaxed);
            ctx.ssp_augmentations
                .fetch_add(r.augmentations, Ordering::Relaxed);
            r.distance
        }
    };
    (available - params.c_a * distance).clamp(0.0, 1.0)
}

/// Fill the strict upper triangle of row `ai` of `A_next`.
fn fill_action_row(ctx: &ActionSweepCtx<'_>, ai: usize, row: &mut [f64]) {
    for (bi, cell) in row.iter_mut().enumerate().skip(ai + 1) {
        *cell = action_pair_sigma(ctx, ai, bi);
    }
}

/// Fill the strict upper triangle of row `i` of the live block of
/// `S_next`: entry `j` is `sigma_S(live[i], live[j])`.
fn fill_state_row(
    graph: &MdpGraph,
    params: &SimilarityParams,
    a_next: &SquareMatrix,
    live: &[usize],
    i: usize,
    row: &mut [f64],
) {
    let u = live[i];
    for (cell, &v) in row.iter_mut().zip(live).skip(i + 1) {
        let h = hausdorff(graph.neighbors(u), graph.neighbors(v), |x, y| {
            1.0 - a_next.get(x, y)
        });
        *cell = (params.c_s * (1.0 - h)).clamp(0.0, 1.0);
    }
}

/// Write the live block's strict upper triangle and its mirror into `s`
/// and return the largest absolute change. Every entry outside the block
/// is a base case that no sweep changes, so this equals the full
/// `max_abs_diff` between the old and the new `S`.
fn write_live_block(s: &mut SquareMatrix, live: &[usize], block: &[f64]) -> f64 {
    let nl = live.len();
    let mut change = 0.0_f64;
    for (i, &u) in live.iter().enumerate() {
        for (j, &v) in live.iter().enumerate().skip(i + 1) {
            let sigma = block[i * nl + j];
            change = change.max((s.get(u, v) - sigma).abs());
            s.set(u, v, sigma);
            s.set(v, u, sigma);
        }
    }
    change
}

/// A reusable Algorithm 1 solver with scheduling, memoization, and
/// pruning knobs. See the module docs for the determinism contract.
#[derive(Debug)]
pub struct SimilarityEngine {
    mode: ExecutionMode,
    memoize: bool,
    prune: bool,
    cache: EmdCache,
    stats: EngineStats,
}

impl SimilarityEngine {
    /// A single-threaded engine with memoization and pruning off — the
    /// engine-scheduled equivalent of the reference
    /// [`crate::similarity::structural_similarity`] path.
    pub fn serial() -> Self {
        SimilarityEngine::with_options(ExecutionMode::Serial, false, false)
    }

    /// The full engine: parallel sweeps, memoization, and bound pruning.
    pub fn parallel() -> Self {
        SimilarityEngine::with_options(ExecutionMode::Parallel, true, true)
    }

    /// An engine with every knob explicit (used by tests and benches to
    /// isolate the contribution of each optimisation).
    pub fn with_options(mode: ExecutionMode, memoize: bool, prune: bool) -> Self {
        SimilarityEngine {
            mode,
            memoize,
            prune,
            cache: EmdCache::new(),
            stats: EngineStats::default(),
        }
    }

    /// The configured scheduling mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Whether EMD solutions are memoized.
    pub fn is_memoizing(&self) -> bool {
        self.memoize
    }

    /// Whether EMD bound pruning is enabled.
    pub fn is_pruning(&self) -> bool {
        self.prune
    }

    /// Lifetime statistics, including the most recent run.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of memoized EMD solutions currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drop every memoized EMD solution (statistics are kept).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Evict only the memoized EMD solutions whose fingerprint involves
    /// one of `dirty_states` — i.e. entries whose support union contains
    /// a state whose successor distribution or similarity row may have
    /// drifted. Everything else stays warm for the next `compute`.
    ///
    /// This is a hit-rate optimisation, not a correctness requirement:
    /// fingerprints cover every input of a solve, so a stale entry can
    /// never be *returned* for a changed problem — it would merely rot
    /// in the shard until displaced. Targeted eviction reclaims that
    /// memory and keeps the shards from flushing wholesale at the cap.
    ///
    /// Returns the number of entries evicted; the running totals land in
    /// [`EngineStats::cache_evictions`] and, with `obs` enabled, on the
    /// `emd_cache_evictions_total` counter.
    pub fn invalidate_states(&mut self, dirty_states: &[usize]) -> usize {
        let mut dirty: Vec<u32> = dirty_states.iter().map(|&s| s as u32).collect();
        dirty.sort_unstable();
        dirty.dedup();
        let evicted = self.cache.invalidate(&dirty);
        self.stats.cache_evictions += evicted;
        self.stats.invalidations += 1;
        if capman_obs::enabled() {
            capman_obs::counter!(
                "emd_cache_invalidations_total",
                "Targeted EMD-cache invalidation passes"
            )
            .inc();
            capman_obs::counter!(
                "emd_cache_evictions_total",
                "EMD memo entries evicted by targeted invalidation"
            )
            .add(evicted as u64);
        }
        evicted
    }

    /// Run Algorithm 1. Matrices match the reference implementation (the
    /// pruning shortcuts reproduce the exact clamped values), and the
    /// run's counters land in [`SimilarityEngine::stats`].
    ///
    /// `SimilarityResult::emd_calls` counts exact SSP solves only; pairs
    /// served by the cache or the bounds are in the engine statistics.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are out of their domains.
    pub fn compute(&mut self, graph: &MdpGraph, params: &SimilarityParams) -> SimilarityResult {
        params.validate();
        let t_run = Instant::now();
        let nv = graph.n_states();
        let na = graph.n_action_nodes();

        // Every S entry that touches an absorbing state is an Eq. (3) base
        // case, fixed for the whole run; sweeps rewrite only the live
        // block, the pairs of states that have action nodes.
        let mut s = SquareMatrix::identity(nv);
        apply_base_cases(graph, params, &mut s);
        let live: Vec<usize> = (0..nv).filter(|&u| !graph.is_absorbing(u)).collect();
        let nl = live.len();
        let mut block = vec![0.0; nl * nl];
        // A is double-buffered: each action sweep rewrites the whole
        // strict upper triangle of `a_next` and its mirror.
        let mut a_m = SquareMatrix::identity(na);
        let mut a_next = SquareMatrix::identity(na);

        // Successor distributions, their supports, their total masses
        // (the dense sums `emd_detailed` takes), and expected rewards.
        let dists: Vec<Vec<f64>> = (0..na)
            .map(|ai| {
                let mut p = vec![0.0; nv];
                for &(next, prob, _) in &graph.action_node(ai).edges {
                    p[next] += prob;
                }
                p
            })
            .collect();
        let supports: Vec<Vec<usize>> = dists
            .iter()
            .map(|p| (0..nv).filter(|&i| p[i] > 0.0).collect())
            .collect();
        let masses: Vec<f64> = dists.iter().map(|p| p.iter().sum()).collect();
        let rewards: Vec<f64> = (0..na)
            .map(|ai| graph.action_node(ai).expected_reward())
            .collect();

        let emd_solves = AtomicUsize::new(0);
        let cache_hits = AtomicUsize::new(0);
        let bound_pruned = AtomicUsize::new(0);
        let ssp_augmentations = AtomicUsize::new(0);

        let mut run = RunStats::default();
        let mut iterations = 0;
        let mut converged = false;

        while iterations < params.max_iterations {
            iterations += 1;
            let t_sweep = Instant::now();

            // Action sweep: reads the previous S only.
            {
                let ctx = ActionSweepCtx {
                    s: &s,
                    dists: &dists,
                    supports: &supports,
                    masses: &masses,
                    rewards: &rewards,
                    params,
                    cache: if self.memoize {
                        Some(&self.cache)
                    } else {
                        None
                    },
                    prune: self.prune,
                    emd_solves: &emd_solves,
                    cache_hits: &cache_hits,
                    bound_pruned: &bound_pruned,
                    ssp_augmentations: &ssp_augmentations,
                };
                match self.mode {
                    ExecutionMode::Serial => {
                        for (ai, row) in a_next.as_mut_slice().chunks_mut(na.max(1)).enumerate() {
                            fill_action_row(&ctx, ai, row);
                        }
                    }
                    ExecutionMode::Parallel => {
                        a_next
                            .as_mut_slice()
                            .par_chunks_mut(na.max(1))
                            .enumerate()
                            .for_each(|ai, row| fill_action_row(&ctx, ai, row));
                    }
                }
            }
            a_next.mirror_upper_to_lower();
            run.pair_evaluations += na.saturating_sub(1) * na / 2;

            // State sweep: reads the new A only, so S can take the new
            // live block in place once the block is complete.
            match self.mode {
                ExecutionMode::Serial => {
                    for (i, row) in block.chunks_mut(nl.max(1)).enumerate() {
                        fill_state_row(graph, params, &a_next, &live, i, row);
                    }
                }
                ExecutionMode::Parallel => {
                    block
                        .par_chunks_mut(nl.max(1))
                        .enumerate()
                        .for_each(|i, row| fill_state_row(graph, params, &a_next, &live, i, row));
                }
            }
            let s_change = write_live_block(&mut s, &live, &block);

            let change = s_change.max(a_m.max_abs_diff(&a_next));
            std::mem::swap(&mut a_m, &mut a_next);
            run.sweep_us.push(t_sweep.elapsed().as_secs_f64() * 1e6);
            if change < params.tolerance {
                converged = true;
                break;
            }
        }

        run.sweeps = iterations;
        run.emd_solves = emd_solves.load(Ordering::Relaxed);
        run.cache_hits = cache_hits.load(Ordering::Relaxed);
        run.bound_pruned = bound_pruned.load(Ordering::Relaxed);
        run.wall_us = t_run.elapsed().as_secs_f64() * 1e6;
        if capman_obs::enabled() {
            capman_obs::counter!("similarity_runs_total", "Similarity-engine runs").inc();
            capman_obs::counter!("emd_solves_total", "EMD transport problems solved")
                .add(run.emd_solves as u64);
            capman_obs::counter!(
                "emd_cache_hits_total",
                "EMD results served from the memo table"
            )
            .add(run.cache_hits as u64);
            capman_obs::counter!(
                "emd_bound_pruned_total",
                "EMD solves skipped by the Hausdorff bound"
            )
            .add(run.bound_pruned as u64);
        }

        self.stats.runs += 1;
        self.stats.pair_evaluations += run.pair_evaluations;
        self.stats.emd_solves += run.emd_solves;
        self.stats.cache_hits += run.cache_hits;
        self.stats.bound_pruned += run.bound_pruned;
        self.stats.wall_us += run.wall_us;
        self.stats.last_run = run;

        SimilarityResult {
            sigma_s: s,
            sigma_a: a_m,
            iterations,
            converged,
            emd_calls: self.stats.last_run.emd_solves,
            ssp_augmentations: ssp_augmentations.load(Ordering::Relaxed),
        }
    }
}

impl Default for SimilarityEngine {
    /// The full engine, as [`SimilarityEngine::parallel`].
    fn default() -> Self {
        SimilarityEngine::parallel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;
    use crate::similarity::structural_similarity;

    fn twin_graph() -> MdpGraph {
        let mut b = MdpBuilder::new(5, 2);
        b.transition(0, 0, 1, 1.0, 0.4);
        b.transition(0, 1, 2, 1.0, 0.4);
        b.transition(1, 0, 3, 1.0, 0.8);
        b.transition(2, 0, 4, 1.0, 0.8);
        MdpGraph::from_mdp(&b.build())
    }

    #[test]
    fn plain_serial_engine_matches_reference_bitwise() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let seed = structural_similarity(&g, &p);
        let r = SimilarityEngine::serial().compute(&g, &p);
        assert_eq!(r.sigma_s, seed.sigma_s);
        assert_eq!(r.sigma_a, seed.sigma_a);
        assert_eq!(r.iterations, seed.iterations);
        assert_eq!(r.converged, seed.converged);
        assert_eq!(r.emd_calls, seed.emd_calls);
        assert_eq!(r.ssp_augmentations, seed.ssp_augmentations);
    }

    #[test]
    fn full_engine_matches_reference_closely() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let seed = structural_similarity(&g, &p);
        let r = SimilarityEngine::parallel().compute(&g, &p);
        assert!(r.converged);
        assert!(r.sigma_s.max_abs_diff(&seed.sigma_s) < 1e-12);
        assert!(r.sigma_a.max_abs_diff(&seed.sigma_a) < 1e-12);
    }

    #[test]
    fn serial_and_parallel_full_engines_agree_bitwise() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let a = SimilarityEngine::with_options(ExecutionMode::Serial, true, true).compute(&g, &p);
        let b = SimilarityEngine::with_options(ExecutionMode::Parallel, true, true).compute(&g, &p);
        assert_eq!(a.sigma_s, b.sigma_s);
        assert_eq!(a.sigma_a, b.sigma_a);
    }

    #[test]
    fn warm_cache_reproduces_cold_results_bitwise() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let mut engine = SimilarityEngine::parallel();
        let cold = engine.compute(&g, &p);
        let warm = engine.compute(&g, &p);
        assert_eq!(cold.sigma_s, warm.sigma_s);
        assert_eq!(cold.sigma_a, warm.sigma_a);
        assert!(
            engine.stats().last_run.emd_solves < cold.emd_calls || cold.emd_calls == 0,
            "warm run should re-solve less: warm {} vs cold {}",
            engine.stats().last_run.emd_solves,
            cold.emd_calls
        );
    }

    #[test]
    fn memoization_records_hits_on_duplicate_pairs() {
        // Two states with two identical-successor actions each, plus a
        // distinct branch: duplicate EMD problems within one sweep.
        let mut b = MdpBuilder::new(4, 2);
        b.transition(0, 0, 2, 1.0, 0.2);
        b.transition(0, 1, 2, 1.0, 0.7);
        b.transition(1, 0, 3, 1.0, 0.2);
        b.transition(1, 1, 3, 1.0, 0.7);
        let g = MdpGraph::from_mdp(&b.build());
        let p = SimilarityParams::paper(0.5);
        let mut engine = SimilarityEngine::with_options(ExecutionMode::Serial, true, false);
        let _ = engine.compute(&g, &p);
        let stats = engine.stats();
        assert!(
            stats.cache_hits > 0,
            "duplicate distribution pairs must hit the cache"
        );
        assert_eq!(
            stats.cache_hits + stats.emd_solves,
            stats.pair_evaluations,
            "without pruning every pair is either solved or served"
        );
    }

    #[test]
    fn pruning_skips_identical_distribution_pairs() {
        let mut b = MdpBuilder::new(3, 2);
        // Same state, two actions with identical successor distributions
        // but different rewards: EMD is zero by the upper bound.
        b.transition(0, 0, 2, 1.0, 0.1);
        b.transition(0, 1, 2, 1.0, 0.9);
        b.transition(1, 0, 2, 1.0, 0.5);
        let g = MdpGraph::from_mdp(&b.build());
        let p = SimilarityParams::paper(0.5);
        let mut engine = SimilarityEngine::parallel();
        let seed = structural_similarity(&g, &p);
        let r = engine.compute(&g, &p);
        assert!(engine.stats().bound_pruned > 0, "bounds should fire");
        assert_eq!(r.sigma_s, seed.sigma_s, "pruning must not change S");
        assert_eq!(r.sigma_a, seed.sigma_a, "pruning must not change A");
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let mut engine = SimilarityEngine::parallel();
        let _ = engine.compute(&g, &p);
        let after_one = engine.stats().clone();
        let _ = engine.compute(&g, &p);
        let after_two = engine.stats();
        assert_eq!(after_two.runs, 2);
        assert_eq!(
            after_two.pair_evaluations,
            after_one.pair_evaluations + after_two.last_run.pair_evaluations
        );
        assert!(after_two.wall_us >= after_one.wall_us);
        assert!(after_two.last_run.sweeps > 0);
        assert_eq!(after_two.last_run.sweep_us.len(), after_two.last_run.sweeps);
    }

    #[test]
    fn cache_can_be_cleared() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let mut engine = SimilarityEngine::parallel();
        let _ = engine.compute(&g, &p);
        assert!(engine.cache_len() > 0);
        engine.clear_cache();
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn cache_shard_flushes_when_full() {
        let cache = EmdCache::new();
        // Hammer one shard far past its cap; len must stay bounded.
        for i in 0..(3 * MAX_ENTRIES_PER_SHARD as u128) {
            cache.insert(i * CACHE_SHARDS as u128, i as f64, Box::new([]));
        }
        assert!(cache.len() <= CACHE_SHARDS * MAX_ENTRIES_PER_SHARD);
        assert!(cache.len() > 0);
    }

    #[test]
    fn cache_invalidation_evicts_exactly_the_intersecting_entries() {
        let cache = EmdCache::new();
        cache.insert(1, 0.1, Box::new([0, 2, 5]));
        cache.insert(2, 0.2, Box::new([1, 3]));
        cache.insert(3, 0.3, Box::new([5, 9]));
        cache.insert(4, 0.4, Box::new([]));
        assert_eq!(cache.invalidate(&[5]), 2, "entries 1 and 3 involve state 5");
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.get(2), Some(0.2));
        assert!(cache.get(3).is_none());
        assert_eq!(cache.get(4), Some(0.4));
        assert_eq!(cache.invalidate(&[]), 0, "no dirt, no evictions");
        assert_eq!(cache.invalidate(&[7]), 0, "uninvolved state evicts nothing");
    }

    #[test]
    fn engine_invalidation_counts_and_keeps_uninvolved_entries() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let mut engine = SimilarityEngine::with_options(ExecutionMode::Serial, true, false);
        let _ = engine.compute(&g, &p);
        let full = engine.cache_len();
        assert!(full > 0);
        // A state id outside every support evicts nothing.
        assert_eq!(engine.invalidate_states(&[99]), 0);
        assert_eq!(engine.cache_len(), full);
        // State 3 is the successor of exactly one action node (1 -> 3),
        // so only entries pairing that node can go.
        let evicted = engine.invalidate_states(&[3]);
        assert!(evicted > 0, "state 3 appears in cached supports");
        assert!(evicted < full, "uninvolved entries must survive");
        assert_eq!(engine.cache_len(), full - evicted);
        assert_eq!(engine.stats().cache_evictions, evicted);
        assert_eq!(engine.stats().invalidations, 2);
    }

    #[test]
    fn recompute_after_invalidation_is_bitwise_the_cold_result() {
        let g = twin_graph();
        let p = SimilarityParams::paper(0.5);
        let cold =
            SimilarityEngine::with_options(ExecutionMode::Serial, true, false).compute(&g, &p);
        let mut engine = SimilarityEngine::with_options(ExecutionMode::Serial, true, false);
        let _ = engine.compute(&g, &p);
        engine.invalidate_states(&[0, 3]);
        let hits_before = engine.stats().cache_hits;
        let warm = engine.compute(&g, &p);
        assert_eq!(warm.sigma_s, cold.sigma_s);
        assert_eq!(warm.sigma_a, cold.sigma_a);
        assert_eq!(warm.iterations, cold.iterations);
        // Entries whose supports avoided the dirty states survived the
        // invalidation and still serve the recompute.
        assert!(
            engine.stats().cache_hits > hits_before,
            "untouched-pair entries must still hit the cache"
        );
    }

    #[test]
    fn support_union_merges_sorted_supports() {
        assert_eq!(
            support_union(&[0, 2, 5], &[1, 2, 9]).as_ref(),
            &[0, 1, 2, 5, 9]
        );
        assert_eq!(support_union(&[], &[4]).as_ref(), &[4]);
        assert_eq!(support_union(&[], &[]).as_ref(), &[] as &[u32]);
    }

    #[test]
    fn fingerprint_distinguishes_swapped_supports() {
        let p = [0.5, 0.5, 0.0];
        let q = [0.0, 0.5, 0.5];
        let s = SquareMatrix::identity(3);
        let fp_pq = emd_fingerprint(&p, &q, &[0, 1], &[1, 2], &s);
        let fp_qp = emd_fingerprint(&q, &p, &[1, 2], &[0, 1], &s);
        assert_ne!(fp_pq, fp_qp);
    }

    #[test]
    fn engine_handles_graph_with_single_state() {
        let b = MdpBuilder::new(1, 1);
        let g = MdpGraph::from_mdp(&b.build());
        let p = SimilarityParams::paper(0.5);
        let r = SimilarityEngine::parallel().compute(&g, &p);
        assert!(r.converged);
        assert_eq!(r.sigma_s.n(), 1);
    }
}
