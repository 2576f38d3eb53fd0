//! Earth Mover's Distance via successive shortest paths (SSP).
//!
//! Algorithm 1 measures how differently two action nodes distribute
//! probability over state nodes, using the state-similarity matrix as the
//! ground distance. Following the paper (and its citation of Jewell's
//! optimal-flow formulation), the transportation problem is solved with a
//! successive-shortest-path min-cost flow using Dijkstra over reduced
//! costs (Johnson potentials).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of an EMD computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmdResult {
    /// The Earth Mover's Distance (total transport cost).
    pub distance: f64,
    /// Number of augmenting paths used (the SSP iteration count).
    pub augmentations: usize,
}

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: f64,
    cost: f64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// A small successive-shortest-path min-cost-flow solver.
///
/// Every buffer outlives a solve: [`MinCostFlow::reset`] clears the
/// adjacency lists and the Dijkstra state instead of reallocating them,
/// so a reused solver stops allocating once it has seen its largest
/// problem. A reset solver is indistinguishable from a fresh one.
#[derive(Debug, Default)]
struct MinCostFlow {
    /// Adjacency lists; only the first `n` belong to the current problem.
    graph: Vec<Vec<Edge>>,
    n: usize,
    potential: Vec<f64>,
    dist: Vec<f64>,
    prev: Vec<Option<(usize, usize)>>,
    heap: BinaryHeap<Reverse<(OrderedF64, usize)>>,
}

thread_local! {
    /// The engine's per-thread solver, reused across every solve the
    /// thread runs.
    static SOLVER: RefCell<MinCostFlow> = RefCell::new(MinCostFlow::default());
}

impl MinCostFlow {
    /// Start a new problem on `n` nodes with no edges.
    fn reset(&mut self, n: usize) {
        if self.graph.len() < n {
            self.graph.resize_with(n, Vec::new);
        }
        for adj in &mut self.graph[..n] {
            adj.clear();
        }
        self.n = n;
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: f64, cost: f64) {
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(Edge {
            to,
            cap,
            cost,
            rev: rev_from,
        });
        self.graph[to].push(Edge {
            to: from,
            cap: 0.0,
            cost: -cost,
            rev: rev_to,
        });
    }

    /// Push `target_flow` from `s` to `t`; returns (cost, augmentations).
    fn solve(&mut self, s: usize, t: usize, target_flow: f64) -> (f64, usize) {
        const EPS: f64 = 1e-12;
        let MinCostFlow {
            graph,
            n,
            potential,
            dist,
            prev,
            heap,
        } = self;
        let n = *n;
        potential.clear();
        potential.resize(n, 0.0);
        let mut total_cost = 0.0;
        let mut remaining = target_flow;
        let mut augmentations = 0;

        while remaining > EPS {
            // Dijkstra over reduced costs.
            dist.clear();
            dist.resize(n, f64::INFINITY);
            prev.clear();
            prev.resize(n, None);
            heap.clear();
            dist[s] = 0.0;
            heap.push(Reverse((OrderedF64(0.0), s)));
            while let Some(Reverse((OrderedF64(d), u))) = heap.pop() {
                if d > dist[u] + EPS {
                    continue;
                }
                for (ei, e) in graph[u].iter().enumerate() {
                    if e.cap <= EPS {
                        continue;
                    }
                    let nd = d + e.cost + potential[u] - potential[e.to];
                    if nd + EPS < dist[e.to] {
                        dist[e.to] = nd;
                        prev[e.to] = Some((u, ei));
                        heap.push(Reverse((OrderedF64(nd), e.to)));
                    }
                }
            }
            if !dist[t].is_finite() {
                break; // no more augmenting paths
            }
            for v in 0..n {
                if dist[v].is_finite() {
                    potential[v] += dist[v];
                }
            }
            // Find the bottleneck along the path.
            let mut bottleneck = remaining;
            let mut v = t;
            while let Some((u, ei)) = prev[v] {
                bottleneck = bottleneck.min(graph[u][ei].cap);
                v = u;
            }
            // Apply the flow.
            let mut v = t;
            while let Some((u, ei)) = prev[v] {
                let rev = graph[u][ei].rev;
                graph[u][ei].cap -= bottleneck;
                total_cost += bottleneck * graph[u][ei].cost;
                graph[v][rev].cap += bottleneck;
                v = u;
            }
            remaining -= bottleneck;
            augmentations += 1;
        }
        (total_cost, augmentations)
    }
}

/// Total-order wrapper for finite `f64` keys in the Dijkstra heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Cheap lower/upper bounds on [`emd`], used by the similarity engine to
/// skip exact solves whose outcome is already decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmdBounds {
    /// No transport plan can cost less than this.
    pub lower: f64,
    /// Some feasible transport plan costs at most this.
    pub upper: f64,
}

/// Lower and upper bounds on the EMD without solving the flow problem.
///
/// After normalisation, at least the total-variation mass
/// `tv = sum_i max(p_i - q_i, 0)` must move between distinct indices, so
/// `tv` times the smallest cross-support ground distance is a lower
/// bound. Keeping the overlap `min(p_i, q_i)` in place and shipping the
/// excess to the deficits along the most expensive excess-to-deficit
/// pair is feasible, giving the upper bound. Both bounds are valid for
/// any non-negative ground distance; no metric assumptions are made.
///
/// # Panics
///
/// See [`emd`].
pub fn emd_bounds(p: &[f64], q: &[f64], dist: impl Fn(usize, usize) -> f64) -> EmdBounds {
    let supp_p: Vec<usize> = (0..p.len()).filter(|&i| p[i] > 0.0).collect();
    let supp_q: Vec<usize> = (0..q.len()).filter(|&j| q[j] > 0.0).collect();
    emd_bounds_on_support(p, q, &supp_p, &supp_q, dist)
}

/// Like [`emd_bounds`], with the support index sets precomputed by the
/// caller (the engine computes them once per graph, not once per pair).
///
/// `supp_p` / `supp_q` must list exactly the indices with positive mass.
///
/// # Panics
///
/// See [`emd`].
pub fn emd_bounds_on_support(
    p: &[f64],
    q: &[f64],
    supp_p: &[usize],
    supp_q: &[usize],
    dist: impl Fn(usize, usize) -> f64,
) -> EmdBounds {
    assert_eq!(p.len(), q.len(), "distributions must share an index space");
    let sum_p: f64 = supp_p.iter().map(|&i| p[i]).sum();
    let sum_q: f64 = supp_q.iter().map(|&j| q[j]).sum();
    if sum_p <= 0.0 || sum_q <= 0.0 {
        return EmdBounds {
            lower: 0.0,
            upper: 0.0,
        };
    }

    // Total variation distance and the cost of leaving the overlap in
    // place (free when the ground distance vanishes on the diagonal).
    let mut tv = 0.0;
    let mut diag_cost = 0.0;
    for &i in supp_p {
        let pn = p[i] / sum_p;
        let qn = q[i] / sum_q;
        tv += (pn - qn).max(0.0);
        if qn > 0.0 {
            let d = dist(i, i);
            assert!(d >= 0.0, "ground distance must be non-negative");
            diag_cost += pn.min(qn) * d;
        }
    }

    // Lower bound: tv mass must cross between distinct indices, each
    // step costing at least the cheapest cross-support distance.
    let mut min_cross = f64::INFINITY;
    // Upper bound: ship the excess to the deficits; no pairing costs
    // more than the dearest excess-to-deficit distance.
    let mut max_move = 0.0_f64;
    for &i in supp_p {
        let excess = p[i] / sum_p - q[i] / sum_q;
        for &j in supp_q {
            if i == j {
                continue;
            }
            let d = dist(i, j);
            assert!(d >= 0.0, "ground distance must be non-negative");
            if d < min_cross {
                min_cross = d;
            }
            if excess > 0.0 && q[j] / sum_q > p[j] / sum_p && d > max_move {
                max_move = d;
            }
        }
    }
    if !min_cross.is_finite() {
        min_cross = 0.0;
    }
    EmdBounds {
        lower: tv * min_cross,
        upper: diag_cost + tv * max_move,
    }
}

/// The Earth Mover's Distance between two distributions over the same
/// index space, with `dist(i, j)` as the ground distance.
///
/// Both inputs are normalised internally, so raw weights are accepted.
/// Returns zero when either distribution has no mass.
///
/// # Panics
///
/// Panics if the slices have different lengths, contain negative mass, or
/// if any ground distance is negative.
pub fn emd(p: &[f64], q: &[f64], dist: impl Fn(usize, usize) -> f64) -> f64 {
    emd_detailed(p, q, dist).distance
}

/// Like [`emd`], also reporting the SSP augmentation count.
///
/// # Panics
///
/// See [`emd`].
pub fn emd_detailed(p: &[f64], q: &[f64], dist: impl Fn(usize, usize) -> f64) -> EmdResult {
    assert_eq!(p.len(), q.len(), "distributions must share an index space");
    assert!(
        p.iter().chain(q.iter()).all(|&x| x >= 0.0),
        "mass must be non-negative"
    );
    let sum_p: f64 = p.iter().sum();
    let sum_q: f64 = q.iter().sum();
    if sum_p <= 0.0 || sum_q <= 0.0 {
        return EmdResult {
            distance: 0.0,
            augmentations: 0,
        };
    }

    let sources: Vec<usize> = (0..p.len()).filter(|&i| p[i] > 0.0).collect();
    let sinks: Vec<usize> = (0..q.len()).filter(|&j| q[j] > 0.0).collect();
    let p = Marginal {
        weights: p,
        support: &sources,
        total: sum_p,
    };
    let q = Marginal {
        weights: q,
        support: &sinks,
        total: sum_q,
    };
    transport(&mut MinCostFlow::default(), p, q, dist)
}

/// One side of a transport problem as the similarity engine keeps it:
/// dense raw weights, the indices with positive weight (ascending), and
/// the weights' total `weights.iter().sum()`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Marginal<'a> {
    pub(crate) weights: &'a [f64],
    pub(crate) support: &'a [usize],
    pub(crate) total: f64,
}

/// [`emd_detailed`] for a caller that already holds both supports and
/// totals, solved on this thread's reusable solver. Returns bit for bit
/// what `emd_detailed(p.weights, q.weights, dist)` returns for
/// non-negative weights.
///
/// # Panics
///
/// Panics if any ground distance read is negative.
pub(crate) fn emd_on_support(
    p: Marginal<'_>,
    q: Marginal<'_>,
    dist: impl Fn(usize, usize) -> f64,
) -> EmdResult {
    if p.total <= 0.0 || q.total <= 0.0 {
        return EmdResult {
            distance: 0.0,
            augmentations: 0,
        };
    }
    SOLVER.with(|solver| transport(&mut solver.borrow_mut(), p, q, dist))
}

/// Build the transportation network from `p` to `q` on `flow` and solve
/// it. Node layout: 0 = super source, `1..=m` sources, `m+1..=m+k`
/// sinks, `m+k+1` = super sink. Edges go in source, sink, then
/// source-major cross order, which fixes the Dijkstra visiting order.
fn transport(
    flow: &mut MinCostFlow,
    p: Marginal<'_>,
    q: Marginal<'_>,
    dist: impl Fn(usize, usize) -> f64,
) -> EmdResult {
    let m = p.support.len();
    let k = q.support.len();
    let s = 0;
    let t = m + k + 1;
    flow.reset(t + 1);
    for (si, &i) in p.support.iter().enumerate() {
        flow.add_edge(s, 1 + si, p.weights[i] / p.total, 0.0);
    }
    for (sj, &j) in q.support.iter().enumerate() {
        flow.add_edge(1 + m + sj, t, q.weights[j] / q.total, 0.0);
    }
    for (si, &i) in p.support.iter().enumerate() {
        for (sj, &j) in q.support.iter().enumerate() {
            let d = dist(i, j);
            assert!(d >= 0.0, "ground distance must be non-negative");
            flow.add_edge(1 + si, 1 + m + sj, f64::INFINITY, d);
        }
    }
    let (cost, augmentations) = flow.solve(s, t, 1.0);
    EmdResult {
        distance: cost.max(0.0),
        augmentations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1(i: usize, j: usize) -> f64 {
        (i as f64 - j as f64).abs()
    }

    #[test]
    fn identical_distributions_have_zero_distance() {
        let p = [0.2, 0.5, 0.3];
        assert!(emd(&p, &p, l1) < 1e-12);
    }

    #[test]
    fn point_masses_pay_the_ground_distance() {
        let p = [1.0, 0.0, 0.0, 0.0];
        let q = [0.0, 0.0, 0.0, 1.0];
        assert!((emd(&p, &q, l1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn split_mass_transports_optimally() {
        // Move 0.5 from 0 to 1 (cost 0.5) and keep 0.5 in place.
        let p = [1.0, 0.0];
        let q = [0.5, 0.5];
        assert!((emd(&p, &q, l1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn emd_is_symmetric() {
        let p = [0.7, 0.1, 0.2];
        let q = [0.1, 0.6, 0.3];
        let a = emd(&p, &q, l1);
        let b = emd(&q, &p, l1);
        assert!((a - b).abs() < 1e-10);
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let dists = [
            vec![0.3, 0.3, 0.4],
            vec![0.8, 0.1, 0.1],
            vec![0.2, 0.2, 0.6],
        ];
        for a in &dists {
            for b in &dists {
                for c in &dists {
                    let ab = emd(a, b, l1);
                    let bc = emd(b, c, l1);
                    let ac = emd(a, c, l1);
                    assert!(ac <= ab + bc + 1e-9);
                }
            }
        }
    }

    #[test]
    fn raw_weights_are_normalised() {
        let p = [2.0, 0.0];
        let q = [0.0, 6.0];
        assert!((emd(&p, &q, l1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_gives_zero() {
        let p = [0.0, 0.0];
        let q = [0.5, 0.5];
        assert_eq!(emd(&p, &q, l1), 0.0);
    }

    #[test]
    fn bounded_by_max_ground_distance() {
        let p = [0.25, 0.25, 0.25, 0.25];
        let q = [0.1, 0.2, 0.3, 0.4];
        let d = emd(&p, &q, |i, j| if i == j { 0.0 } else { 1.0 });
        assert!(d <= 1.0 + 1e-12);
        assert!(d >= 0.0);
    }

    #[test]
    fn augmentation_count_is_reported() {
        let p = [1.0, 0.0, 0.0, 0.0];
        let q = [0.0, 0.0, 0.0, 1.0];
        let r = emd_detailed(&p, &q, l1);
        assert!(r.augmentations >= 1);
    }

    #[test]
    fn uses_cheaper_indirect_reallocations() {
        // Ground distance where direct transport is expensive but the
        // optimal plan must still be found: 2 sources, 2 sinks.
        let p = [0.5, 0.5, 0.0, 0.0];
        let q = [0.0, 0.0, 0.5, 0.5];
        // d(0,2)=1, d(0,3)=10, d(1,2)=10, d(1,3)=1 -> optimal pairs.
        let d = |i: usize, j: usize| -> f64 {
            match (i, j) {
                (0, 2) | (1, 3) => 1.0,
                _ => 10.0,
            }
        };
        assert!((emd(&p, &q, d) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_bracket_exact_distance() {
        let cases: [(&[f64], &[f64]); 4] = [
            (&[0.2, 0.5, 0.3], &[0.1, 0.6, 0.3]),
            (&[1.0, 0.0, 0.0, 0.0], &[0.0, 0.0, 0.0, 1.0]),
            (&[0.5, 0.5, 0.0], &[0.0, 0.5, 0.5]),
            (&[2.0, 0.0, 1.0], &[0.0, 6.0, 0.0]),
        ];
        for (p, q) in cases {
            let exact = emd(p, q, l1);
            let b = emd_bounds(p, q, l1);
            assert!(
                b.lower <= exact + 1e-12 && exact <= b.upper + 1e-12,
                "bounds [{}, {}] must bracket {exact}",
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn bounds_are_tight_for_point_masses() {
        let p = [1.0, 0.0, 0.0, 0.0];
        let q = [0.0, 0.0, 0.0, 1.0];
        let b = emd_bounds(&p, &q, l1);
        assert!((b.lower - 3.0).abs() < 1e-12);
        assert!((b.upper - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_collapse_for_identical_distributions() {
        let p = [0.2, 0.5, 0.3];
        let b = emd_bounds(&p, &p, l1);
        assert_eq!(b.lower, 0.0);
        assert!(b.upper < 1e-12);
    }

    #[test]
    fn bounds_handle_empty_distributions() {
        let b = emd_bounds(&[0.0, 0.0], &[0.5, 0.5], l1);
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
    }

    #[test]
    #[should_panic(expected = "index space")]
    fn rejects_mismatched_lengths() {
        let _ = emd(&[1.0], &[0.5, 0.5], l1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_mass() {
        let _ = emd(&[-0.1, 1.1], &[0.5, 0.5], l1);
    }

    #[test]
    fn a_reused_solver_matches_fresh_solves_bitwise() {
        // Problems A, B, A on this thread's one solver, B on fewer
        // nodes. The ground distance is full of ties, so potentials
        // carried over from the last solve break them differently and
        // change the augmentation count; carried-over edges point past
        // B's nodes.
        let ground = |i: usize, j: usize| {
            if i == j {
                0.0
            } else {
                ((i + 2 * j) % 3) as f64 / 2.0
            }
        };
        let a: [&[f64]; 2] = [
            &[2.0, 2.0, 2.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 2.0, 1.0, 0.0],
        ];
        let b: [&[f64]; 2] = [
            &[0.0, 2.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 2.0, 0.0, 0.0, 1.0, 0.0],
        ];
        for [p, q] in [a, b, a] {
            let fresh = emd_detailed(p, q, ground);
            let (supp_p, supp_q) = (support(p), support(q));
            let reused = emd_on_support(marginal(p, &supp_p), marginal(q, &supp_q), ground);
            assert_eq!(reused.distance.to_bits(), fresh.distance.to_bits());
            assert_eq!(reused.augmentations, fresh.augmentations);
        }
    }

    fn support(w: &[f64]) -> Vec<usize> {
        (0..w.len()).filter(|&i| w[i] > 0.0).collect()
    }

    fn marginal<'a>(weights: &'a [f64], support: &'a [usize]) -> Marginal<'a> {
        Marginal {
            weights,
            support,
            total: weights.iter().sum(),
        }
    }
}
