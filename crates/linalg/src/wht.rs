//! Fast Walsh–Hadamard transform (WHT).
//!
//! The FJLT's `H` is the normalized Walsh–Hadamard matrix
//! `H_{i,j} = d^{-1/2} · (−1)^{⟨i−1, j−1⟩}` (paper §5). The fast
//! transform is the classic in-place butterfly over `log₂ d` stages,
//! `O(d log d)` operations. The same butterfly stages, grouped into
//! `O(1/ε)` super-rounds, drive the distributed WHT in `treeemb-fjlt`.

/// In-place *unnormalized* Walsh–Hadamard transform.
///
/// After the call, `data[i] = Σ_j (−1)^{⟨i,j⟩} input[j]`.
///
/// # Panics
/// Panics unless `data.len()` is a power of two (callers zero-pad; see
/// [`next_pow2`]).
pub fn wht_inplace(data: &mut [f64]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "WHT length must be a power of two, got {n}"
    );
    wht_stages_inplace(data, 0, n.trailing_zeros());
}

/// In-place *normalized* (orthonormal) Walsh–Hadamard transform:
/// multiplies by `H / √d`, which is an involution (applying it twice
/// returns the input).
///
/// ```
/// use treeemb_linalg::wht::wht_normalized_inplace;
/// let mut data = vec![1.0, 2.0, 3.0, 4.0];
/// wht_normalized_inplace(&mut data);
/// wht_normalized_inplace(&mut data); // involution
/// assert!((data[2] - 3.0).abs() < 1e-12);
/// ```
pub fn wht_normalized_inplace(data: &mut [f64]) {
    wht_inplace(data);
    let scale = 1.0 / (data.len() as f64).sqrt();
    for x in data {
        *x *= scale;
    }
}

/// Applies only butterfly stages `[stage_lo, stage_hi)` of the WHT
/// (stage `s` pairs indices that differ in bit `s`). The full transform
/// is the composition of all `log₂ n` stages in any order — this is what
/// lets the MPC implementation group stages into super-rounds.
pub fn wht_stages_inplace(data: &mut [f64], stage_lo: u32, stage_hi: u32) {
    let n = data.len();
    assert!(n.is_power_of_two());
    let total = n.trailing_zeros();
    assert!(
        stage_lo <= stage_hi && stage_hi <= total,
        "invalid stage range"
    );
    for s in stage_lo..stage_hi {
        let h = 1usize << s;
        for block in data.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            for (a, b) in lo.iter_mut().zip(hi) {
                let x = *a;
                let y = *b;
                *a = x + y;
                *b = x - y;
            }
        }
    }
}

/// Single Walsh–Hadamard matrix entry (±1, unnormalized):
/// `(−1)^{popcount(i & j)}`.
#[inline]
pub fn hadamard_entry(i: usize, j: usize) -> f64 {
    if (i & j).count_ones().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// Smallest power of two ≥ `n` (and ≥ 1).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn naive_wht(input: &[f64]) -> Vec<f64> {
        let n = input.len();
        (0..n)
            .map(|i| (0..n).map(|j| hadamard_entry(i, j) * input[j]).sum())
            .collect()
    }

    #[test]
    fn matches_naive_on_small_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        for log_n in 0..7 {
            let n = 1usize << log_n;
            let input: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut fast = input.clone();
            wht_inplace(&mut fast);
            let naive = naive_wht(&input);
            for (a, b) in fast.iter().zip(&naive) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn normalized_transform_is_involution() {
        let mut rng = StdRng::seed_from_u64(2);
        let input: Vec<f64> = (0..256).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut data = input.clone();
        wht_normalized_inplace(&mut data);
        wht_normalized_inplace(&mut data);
        for (a, b) in data.iter().zip(&input) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn normalized_transform_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        let input: Vec<f64> = (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let before: f64 = input.iter().map(|x| x * x).sum();
        let mut data = input;
        wht_normalized_inplace(&mut data);
        let after: f64 = data.iter().map(|x| x * x).sum();
        assert!((before - after).abs() < 1e-9 * before.max(1.0));
    }

    #[test]
    fn staged_composition_equals_full_transform() {
        let mut rng = StdRng::seed_from_u64(4);
        let input: Vec<f64> = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut full = input.clone();
        wht_inplace(&mut full);
        // Apply stages in three chunks: [0,2), [2,5), [5,6).
        let mut staged = input;
        wht_stages_inplace(&mut staged, 0, 2);
        wht_stages_inplace(&mut staged, 2, 5);
        wht_stages_inplace(&mut staged, 5, 6);
        for (a, b) in staged.iter().zip(&full) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn stage_order_commutes() {
        let mut rng = StdRng::seed_from_u64(5);
        let input: Vec<f64> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut forward = input.clone();
        wht_stages_inplace(&mut forward, 0, 3);
        wht_stages_inplace(&mut forward, 3, 5);
        let mut reverse = input;
        wht_stages_inplace(&mut reverse, 3, 5);
        wht_stages_inplace(&mut reverse, 0, 3);
        for (a, b) in forward.iter().zip(&reverse) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn impulse_spreads_uniformly() {
        // WHT of a delta at 0 is the all-ones vector.
        let mut data = vec![0.0; 16];
        data[0] = 1.0;
        wht_inplace(&mut data);
        assert!(data.iter().all(|&x| x == 1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut data = vec![0.0; 3];
        wht_inplace(&mut data);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(64), 64);
    }

    #[test]
    fn hadamard_entry_symmetry() {
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(hadamard_entry(i, j), hadamard_entry(j, i));
            }
        }
    }
}
