//! Sequential Fast Johnson–Lindenstrauss Transform (Ailon–Chazelle).

use treeemb_geom::PointSet;
use treeemb_linalg::random;
use treeemb_linalg::sparse::{fjlt_projection, CscMatrix};
use treeemb_linalg::wht;

/// Domain-separation tags for the two random objects derived from the
/// master seed. Shared with the MPC implementation so both compute the
/// same map.
pub const D_TAG: u64 = 0xD1A6;
/// Tag for the sparse projection `P`.
pub const P_TAG: u64 = 0x50F7;

/// Parameters of an FJLT instance, shared verbatim by the sequential and
/// MPC implementations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FjltParams {
    /// Original dimension.
    pub d: usize,
    /// `d` padded to a power of two (the WHT length).
    pub d_pad: usize,
    /// Target dimension `k = Θ(ξ⁻² log n)`.
    pub k: usize,
    /// Sparsity of `P`: entries are nonzero with probability `q`.
    pub q: f64,
    /// Master seed.
    pub seed: u64,
}

/// Standard JL target dimension for distortion `(1 ± ξ)` over all pairs
/// of `n` points with high probability: `k = ⌈8·ln(max(n,2)) / ξ²⌉`.
/// [`FjltParams::for_dataset`] projects to it, and the pipeline skips the
/// FJLT when the input dimension is not above it.
pub fn target_dimension(n: usize, xi: f64) -> usize {
    assert!(xi > 0.0 && xi < 1.0, "xi must lie in (0,1)");
    let ln_n = (n.max(2) as f64).ln();
    ((8.0 * ln_n) / (xi * xi)).ceil() as usize
}

impl FjltParams {
    /// Derives parameters for `n` points in dimension `d` at distortion
    /// `ξ`: `k = Θ(ξ⁻² log n)`, `q = min(Θ(log² n / d), 1)` (paper §5).
    pub fn for_dataset(n: usize, d: usize, xi: f64, seed: u64) -> Self {
        assert!(n >= 1 && d >= 1);
        assert!(xi > 0.0 && xi < 1.0, "xi must lie in (0,1)");
        let d_pad = wht::next_pow2(d);
        let k = target_dimension(n, xi).min(d_pad);
        let ln_n = (n.max(2) as f64).ln();
        // Constant 2 keeps q-dense enough that sparse-projection noise is
        // small at the bench scales we run (Ailon-Chazelle allow any
        // Θ(log² n / d)).
        let q = (2.0 * ln_n * ln_n / d_pad as f64).min(1.0);
        Self {
            d,
            d_pad,
            k,
            q,
            seed,
        }
    }

    /// Fully explicit parameters (tests, experiments).
    pub fn explicit(d: usize, k: usize, q: f64, seed: u64) -> Self {
        let d_pad = wht::next_pow2(d);
        assert!(k >= 1 && q > 0.0 && q <= 1.0);
        Self {
            d,
            d_pad,
            k,
            q,
            seed,
        }
    }

    /// The random sign `D_{jj}` (shared derivation with MPC).
    #[inline]
    pub fn d_sign(&self, j: usize) -> f64 {
        random::sign(random::mix2(self.seed, D_TAG), j as u64)
    }

    /// The seed from which `P`'s entries are derived.
    #[inline]
    pub fn p_seed(&self) -> u64 {
        random::mix2(self.seed, P_TAG)
    }

    /// Final scale: `1/√k` for norm preservation (`E‖φx‖² = ‖x‖²`) and
    /// `1/√d_pad` normalizing the WHT.
    #[inline]
    pub fn output_scale(&self) -> f64 {
        1.0 / ((self.k as f64).sqrt() * (self.d_pad as f64).sqrt())
    }
}

/// A materialized sequential FJLT.
///
/// ```
/// use treeemb_fjlt::{Fjlt, FjltParams};
/// // 64-dimensional input, 8 output dimensions.
/// let f = Fjlt::new(FjltParams::explicit(64, 8, 0.5, 7));
/// let y = f.apply_vec(&[1.0; 64]);
/// assert_eq!(y.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Fjlt {
    params: FjltParams,
    p: CscMatrix,
}

impl Fjlt {
    /// Materializes `P` and readies the transform.
    pub fn new(params: FjltParams) -> Self {
        let p = fjlt_projection(params.k, params.d_pad, params.q, params.p_seed());
        Self { params, p }
    }

    /// The parameters in force.
    pub fn params(&self) -> &FjltParams {
        &self.params
    }

    /// Nonzero count of `P` — the Theorem-3 space term
    /// `O(ξ⁻² log³ n)`.
    pub fn projection_nnz(&self) -> usize {
        self.p.nnz()
    }

    /// Transforms one vector: `k^{-1/2}·P·H·D·x` (with `H` normalized).
    pub fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.params.d, "input dimension mismatch");
        // D then zero-pad to d_pad.
        let mut buf = vec![0.0; self.params.d_pad];
        for (j, &v) in x.iter().enumerate() {
            buf[j] = v * self.params.d_sign(j);
        }
        // Unnormalized H (normalization folded into output_scale).
        wht::wht_inplace(&mut buf);
        // Sparse P.
        let mut y = self.p.mul_vec(&buf);
        let s = self.params.output_scale();
        for v in &mut y {
            *v *= s;
        }
        y
    }

    /// Transforms a whole point set.
    pub fn apply(&self, ps: &PointSet) -> PointSet {
        let mut out = PointSet::with_capacity(self.params.k, ps.len());
        for p in ps.iter() {
            out.push(&self.apply_vec(p));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_geom::generators;
    use treeemb_geom::metrics::{dist, norm};

    #[test]
    fn target_dimension_shrinks_with_larger_xi() {
        assert!(target_dimension(1000, 0.5) < target_dimension(1000, 0.25));
        assert!(target_dimension(1_000_000, 0.5) > target_dimension(100, 0.5));
    }

    #[test]
    fn params_derivation_is_sane() {
        let p = FjltParams::for_dataset(1024, 500, 0.5, 1);
        assert_eq!(p.d_pad, 512);
        assert!(p.k >= 32);
        assert!(p.q > 0.0 && p.q <= 1.0);
    }

    #[test]
    fn output_dimension_is_k() {
        let params = FjltParams::explicit(10, 6, 0.5, 2);
        let f = Fjlt::new(params);
        let y = f.apply_vec(&[1.0; 10]);
        assert_eq!(y.len(), 6);
    }

    #[test]
    fn transform_is_linear() {
        let params = FjltParams::explicit(8, 4, 0.6, 3);
        let f = Fjlt::new(params);
        let a = [1.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        let b = [0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0];
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = f.apply_vec(&a);
        let fb = f.apply_vec(&b);
        let fsum = f.apply_vec(&sum);
        for i in 0..4 {
            assert!((fa[i] + fb[i] - fsum[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_norm_is_preserved() {
        // Average ||phi(x)||^2 / ||x||^2 over many seeds -> 1.
        let x: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let nx2 = norm(&x).powi(2);
        let trials = 300;
        let mut acc = 0.0;
        for s in 0..trials {
            let f = Fjlt::new(FjltParams::explicit(64, 16, 0.5, s));
            let y = f.apply_vec(&x);
            acc += norm(&y).powi(2) / nx2;
        }
        let mean = acc / trials as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean ratio {mean}");
    }

    #[test]
    fn pairwise_distances_roughly_preserved() {
        let ps = generators::uniform_cube(24, 100, 1 << 10, 9);
        let params = FjltParams::for_dataset(24, 100, 0.45, 11);
        let f = Fjlt::new(params);
        let out = f.apply(&ps);
        let mut worst: f64 = 1.0;
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let ratio = dist(out.point(i), out.point(j)) / dist(ps.point(i), ps.point(j));
                worst = worst.max(ratio.max(1.0 / ratio));
            }
        }
        assert!(worst < 1.8, "worst pairwise distortion {worst}");
    }

    #[test]
    fn deterministic_in_seed() {
        let ps = generators::uniform_cube(5, 20, 256, 4);
        let params = FjltParams::for_dataset(5, 20, 0.5, 77);
        let a = Fjlt::new(params).apply(&ps);
        let b = Fjlt::new(params).apply(&ps);
        assert_eq!(a, b);
    }

    #[test]
    fn nnz_far_below_dense_for_high_dim() {
        // Theorem 3's point: |P| ~ xi^-2 log^3 n << d*k for large d.
        let params = FjltParams::for_dataset(512, 4096, 0.5, 1);
        let f = Fjlt::new(params);
        let dense_entries = params.k * params.d_pad;
        assert!(
            f.projection_nnz() * 10 < dense_entries,
            "nnz {} vs dense {dense_entries}",
            f.projection_nnz()
        );
    }
}
