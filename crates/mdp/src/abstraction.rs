//! Similarity-based state abstraction.
//!
//! CAPMAN's runtime calibration "extracts the decision from history
//! patterns without actually recomputing the entire graph": states whose
//! structural distance is below a threshold share a representative whose
//! cached decision they reuse. By the bound of Section III-D, following a
//! representative within distance `theta` costs at most
//! `theta / (1 - rho)` in value — the online algorithm's
//! competitiveness.

use crate::matrix::SquareMatrix;

/// A threshold clustering of states under a similarity matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Abstraction {
    /// Representative state per state.
    representative: Vec<usize>,
    /// The threshold used, on the *distance* scale (`1 - sigma`).
    theta: f64,
}

impl Abstraction {
    /// Greedily cluster states: scan in index order; a state joins the
    /// first earlier representative within distance `theta`, else becomes
    /// a representative itself.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `[0, 1]`.
    pub fn from_similarity(sigma: &SquareMatrix, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
        let n = sigma.n();
        let mut representative = Vec::with_capacity(n);
        let mut reps: Vec<usize> = Vec::new();
        for u in 0..n {
            let found = reps
                .iter()
                .copied()
                .find(|&r| 1.0 - sigma.get(u, r) <= theta);
            match found {
                Some(r) => representative.push(r),
                None => {
                    reps.push(u);
                    representative.push(u);
                }
            }
        }
        Abstraction {
            representative,
            theta,
        }
    }

    /// The representative of state `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn representative(&self, u: usize) -> usize {
        self.representative[u]
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.representative.len()
    }

    /// Number of clusters (distinct representatives).
    pub fn n_clusters(&self) -> usize {
        let mut reps: Vec<usize> = self.representative.clone();
        reps.sort_unstable();
        reps.dedup();
        reps.len()
    }

    /// The clustering threshold on the distance scale.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The worst-case value loss of reusing representatives,
    /// `theta / (1 - rho)`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not in `[0, 1)`.
    pub fn value_loss_bound(&self, rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
        self.theta / (1.0 - rho)
    }

    /// Compression ratio: clusters over states (1.0 = no compression).
    pub fn compression(&self) -> f64 {
        self.n_clusters() as f64 / self.n_states().max(1) as f64
    }

    /// Dense renumbering of the clustering — the form the quotient-MDP
    /// construction consumes. Cluster ids are assigned in representative
    /// index order (the greedy scan makes every state's representative
    /// no larger than the state itself, so this is also first-appearance
    /// order).
    pub fn cluster_map(&self) -> ClusterMap {
        let n = self.representative.len();
        let mut id_of = vec![usize::MAX; n];
        let mut reps = Vec::new();
        for u in 0..n {
            let r = self.representative[u];
            if id_of[r] == usize::MAX {
                id_of[r] = reps.len();
                reps.push(r);
            }
        }
        let cluster_of = self.representative.iter().map(|&r| id_of[r]).collect();
        ClusterMap { cluster_of, reps }
    }
}

/// A dense renumbering of an [`Abstraction`]: cluster ids are contiguous
/// `0..n_clusters`, in representative index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    /// Dense cluster id per state.
    pub cluster_of: Vec<usize>,
    /// Representative state per cluster id (each representative maps to
    /// its own cluster: `cluster_of[reps[c]] == c`).
    pub reps: Vec<usize>,
}

impl ClusterMap {
    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.reps.len()
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.cluster_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_two_groups() -> SquareMatrix {
        // States {0, 1} similar, {2, 3} similar, groups dissimilar.
        let mut m = SquareMatrix::identity(4);
        let mut set = |i: usize, j: usize, v: f64| {
            m.set(i, j, v);
            m.set(j, i, v);
        };
        set(0, 1, 0.95);
        set(2, 3, 0.9);
        set(0, 2, 0.1);
        set(0, 3, 0.1);
        set(1, 2, 0.1);
        set(1, 3, 0.1);
        m
    }

    #[test]
    fn clusters_similar_states() {
        let a = Abstraction::from_similarity(&sim_two_groups(), 0.2);
        assert_eq!(a.n_clusters(), 2);
        assert_eq!(a.representative(0), a.representative(1));
        assert_eq!(a.representative(2), a.representative(3));
        assert_ne!(a.representative(0), a.representative(2));
    }

    #[test]
    fn zero_threshold_keeps_all_states() {
        let a = Abstraction::from_similarity(&sim_two_groups(), 0.0);
        assert_eq!(a.n_clusters(), 4);
        assert!((a.compression() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_threshold_collapses_everything() {
        let a = Abstraction::from_similarity(&sim_two_groups(), 1.0);
        assert_eq!(a.n_clusters(), 1);
        for u in 0..4 {
            assert_eq!(a.representative(u), 0);
        }
    }

    #[test]
    fn representatives_are_their_own_representative() {
        let a = Abstraction::from_similarity(&sim_two_groups(), 0.2);
        for u in 0..a.n_states() {
            let r = a.representative(u);
            assert_eq!(a.representative(r), r);
        }
    }

    #[test]
    fn value_loss_bound_scales_with_rho() {
        let a = Abstraction::from_similarity(&sim_two_groups(), 0.1);
        assert!((a.value_loss_bound(0.0) - 0.1).abs() < 1e-12);
        assert!((a.value_loss_bound(0.9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cluster_map_is_a_dense_consistent_renumbering() {
        let a = Abstraction::from_similarity(&sim_two_groups(), 0.2);
        let cm = a.cluster_map();
        assert_eq!(cm.n_states(), a.n_states());
        assert_eq!(cm.n_clusters(), a.n_clusters());
        for u in 0..a.n_states() {
            let c = cm.cluster_of[u];
            assert!(c < cm.n_clusters());
            // The cluster's representative is the state's representative.
            assert_eq!(cm.reps[c], a.representative(u));
        }
        for (c, &r) in cm.reps.iter().enumerate() {
            assert_eq!(cm.cluster_of[r], c);
        }
        // Ids are assigned in representative index order.
        assert!(cm.reps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_threshold() {
        let _ = Abstraction::from_similarity(&sim_two_groups(), 1.5);
    }
}
