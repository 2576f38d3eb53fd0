//! A dense square matrix of `f64`, used for the similarity matrices
//! `S` and `A` of Algorithm 1.

/// A dense square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// An `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        SquareMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The `n x n` identity matrix (Algorithm 1's initialisation).
    pub fn identity(n: usize) -> Self {
        let mut m = SquareMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// Set element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j] = value;
    }

    /// Largest absolute elementwise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn max_abs_diff(&self, other: &SquareMatrix) -> f64 {
        assert_eq!(self.n, other.n, "dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// The backing row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing row-major storage, for row-chunked
    /// writers (the parallel similarity engine fills disjoint row
    /// slices concurrently).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "index out of bounds");
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Copy every element above the diagonal onto its transpose slot,
    /// making the matrix symmetric from upper-triangle-only writes.
    pub fn mirror_upper_to_lower(&mut self) {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                self.data[j * self.n + i] = self.data[i * self.n + j];
            }
        }
    }

    /// Whether every element lies in `[lo, hi]`.
    pub fn all_within(&self, lo: f64, hi: f64) -> bool {
        self.data.iter().all(|&x| x >= lo && x <= hi)
    }

    /// Whether the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_unit_diagonal() {
        let m = SquareMatrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = SquareMatrix::zeros(3);
        m.set(1, 2, 0.5);
        assert_eq!(m.get(1, 2), 0.5);
        assert_eq!(m.get(2, 1), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = SquareMatrix::identity(3);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(0, 2, 0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }

    #[test]
    fn symmetry_check() {
        let mut m = SquareMatrix::identity(3);
        assert!(m.is_symmetric(0.0));
        m.set(0, 1, 0.3);
        assert!(!m.is_symmetric(1e-12));
        m.set(1, 0, 0.3);
        assert!(m.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let _ = SquareMatrix::zeros(2).get(2, 0);
    }
}
