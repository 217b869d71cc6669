//! The Johnson–Lindenstrauss target dimension shared by the FJLT and the
//! pipeline's `skip_jl` decision.

/// Standard JL target dimension for distortion `(1 ± ξ)` over all pairs
/// of `n` points with high probability: `k = ⌈8·ln(max(n,2)) / ξ²⌉`.
pub fn target_dimension(n: usize, xi: f64) -> usize {
    assert!(xi > 0.0 && xi < 1.0, "xi must lie in (0,1)");
    let ln_n = (n.max(2) as f64).ln();
    ((8.0 * ln_n) / (xi * xi)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_dimension_shrinks_with_larger_xi() {
        assert!(target_dimension(1000, 0.5) < target_dimension(1000, 0.25));
        assert!(target_dimension(1_000_000, 0.5) > target_dimension(100, 0.5));
    }
}
