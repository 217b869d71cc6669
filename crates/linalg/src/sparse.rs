//! Compressed-sparse-column matrices and the FJLT's sparse Gaussian `P`.

use crate::random;

/// A sparse `rows × cols` matrix in compressed-sparse-column layout.
/// Column-major because the FJLT applies `P` to column vectors `HDx`:
/// `y += P[:, j] · x[j]` walks one column per input coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// Start offset of each column in `row_idx`/`values`; length `cols+1`.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds from column-grouped triplets: `entries[j]` lists the
    /// `(row, value)` pairs of column `j` (rows need not be sorted).
    pub fn from_columns(rows: usize, entries: Vec<Vec<(u32, f64)>>) -> Self {
        let cols = entries.len();
        let nnz = entries.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in entries {
            for (r, v) in col {
                assert!((r as usize) < rows, "row index out of range");
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        Self {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(row, value)` pairs of column `j`.
    pub fn column(&self, j: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// `y = A·x` for a dense column vector `x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (r, v) in self.column(j) {
                y[r as usize] += v * xj;
            }
        }
        y
    }
}

/// The FJLT projection matrix `P`: a `k × d` matrix whose entries are 0
/// with probability `1 − q` and `N(0, q⁻¹)` otherwise (paper §5).
///
/// Entries are derived from `(seed, flat index)` counter streams, so any
/// machine holding the seed can derive any column of `P`. The MPC
/// implementation's simulation derives `P` once from the seed and shares
/// it read-only across its machines: `k·d·q` expected entries, the
/// bound Theorem 3 charges for `P`. No part of `P` is ever sent, so
/// sharing it changes no metered word.
pub fn fjlt_projection(k: usize, d: usize, q: f64, seed: u64) -> CscMatrix {
    let mut cols = Vec::with_capacity(d);
    for j in 0..d {
        cols.push(fjlt_projection_column(k, d, q, seed, j));
    }
    CscMatrix::from_columns(k, cols)
}

/// One column of [`fjlt_projection`], regenerable independently.
fn fjlt_projection_column(k: usize, d: usize, q: f64, seed: u64, j: usize) -> Vec<(u32, f64)> {
    assert!(j < d);
    let inv_sqrt_q = (1.0 / q).sqrt();
    let mut col = Vec::new();
    for i in 0..k {
        let flat = (i * d + j) as u64;
        if random::bernoulli(seed, flat, q) {
            // Distinct counter stream for the Gaussian value.
            let g = random::gaussian(seed ^ 0xA5A5_5A5A_DEAD_BEEF, flat);
            col.push((i as u32, g * inv_sqrt_q));
        }
    }
    col
}

/// Expected nonzero count of the FJLT `P` (`k·d·q`), used by space
/// audits (Theorem 3 charges `O(ξ⁻² log³ n)` words for `P`).
pub fn fjlt_expected_nnz(k: usize, d: usize, q: f64) -> f64 {
    k as f64 * d as f64 * q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_round_trip_dense() {
        let m = CscMatrix::from_columns(2, vec![vec![(0, 1.0)], vec![], vec![(1, 2.0), (0, 3.0)]]);
        let columns: Vec<Vec<(u32, f64)>> = (0..m.cols()).map(|j| m.column(j).collect()).collect();
        assert_eq!(
            columns,
            vec![vec![(0, 1.0)], vec![], vec![(1, 2.0), (0, 3.0)]]
        );
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = CscMatrix::from_columns(
            3,
            vec![vec![(0, 2.0), (2, 1.0)], vec![(1, -1.0)], vec![(0, 0.5)]],
        );
        let x = [1.0, 2.0, 4.0];
        let y = m.mul_vec(&x);
        assert_eq!(y, vec![2.0 + 2.0, -2.0, 1.0]);
    }

    #[test]
    fn projection_is_deterministic_per_seed() {
        let a = fjlt_projection(8, 32, 0.5, 7);
        let b = fjlt_projection(8, 32, 0.5, 7);
        let c = fjlt_projection(8, 32, 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn projection_columns_regenerate_independently() {
        let m = fjlt_projection(8, 32, 0.4, 11);
        for j in [0usize, 5, 31] {
            let col: Vec<(u32, f64)> = m.column(j).collect();
            assert_eq!(col, fjlt_projection_column(8, 32, 0.4, 11, j));
        }
    }

    #[test]
    fn projection_density_tracks_q() {
        let (k, d, q) = (64, 512, 0.25);
        let m = fjlt_projection(k, d, q, 3);
        let expect = fjlt_expected_nnz(k, d, q);
        let got = m.nnz() as f64;
        assert!((got - expect).abs() < 0.1 * expect, "nnz {got} vs {expect}");
    }

    #[test]
    fn projection_entries_have_unit_second_moment() {
        // E[P_ij^2] = q * (1/q) = 1, so E||P x||^2 = k ||x||^2 for unit x.
        let (k, d, q) = (32, 256, 0.3);
        let m = fjlt_projection(k, d, q, 5);
        let sum_sq: f64 = (0..d).flat_map(|j| m.column(j).map(|(_, v)| v * v)).sum();
        let expect = (k * d) as f64; // sum over all kd entries of E[P^2] = kd
        assert!(
            (sum_sq - expect).abs() < 0.15 * expect,
            "{sum_sq} vs {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_checks_dims() {
        let m = CscMatrix::from_columns(2, vec![vec![(0, 1.0)]]);
        let _ = m.mul_vec(&[1.0, 2.0]);
    }
}
