//! Counter-based random streams.
//!
//! MPC algorithms share randomness by broadcasting a seed; every machine
//! must then be able to re-derive *the same* random objects (the
//! diagonal `D`, the sparse `P`, grid shift vectors) locally without
//! further communication. Counter-based derivation — a stateless mix of
//! `(seed, index)` — gives exactly that, with no sequential state to
//! synchronize.

/// SplitMix64-style finalizer over a seed/counter pair.
#[inline]
pub fn mix2(seed: u64, ctr: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .wrapping_add(ctr)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes three values (seed + two coordinates, e.g. `(level, bucket)`).
#[inline]
pub fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    mix2(mix2(seed, a), b)
}

/// Uniform `f64` in `[0, 1)` derived from a seed/counter pair.
#[inline]
pub fn unit_f64(seed: u64, ctr: u64) -> f64 {
    // 53 high-quality mantissa bits.
    (mix2(seed, ctr) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Rademacher ±1 sign derived from a seed/counter pair — the diagonal
/// `D` of the FJLT is `sign(seed, i)` without materializing the matrix.
#[inline]
pub fn sign(seed: u64, ctr: u64) -> f64 {
    if mix2(seed, ctr) & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Standard normal variate from a seed/counter pair (Box–Muller over two
/// derived uniforms). Used for the nonzero entries of `P`.
#[inline]
pub fn gaussian(seed: u64, ctr: u64) -> f64 {
    let u1 = 1.0 - unit_f64(seed, ctr.wrapping_mul(2));
    let u2 = unit_f64(seed, ctr.wrapping_mul(2).wrapping_add(1));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Bernoulli trial with probability `p`.
#[inline]
pub fn bernoulli(seed: u64, ctr: u64, p: f64) -> bool {
    unit_f64(seed, ctr) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix2_deterministic_and_sensitive() {
        assert_eq!(mix2(5, 9), mix2(5, 9));
        assert_ne!(mix2(5, 9), mix2(5, 10));
        assert_ne!(mix2(5, 9), mix2(6, 9));
        assert_ne!(mix2(0, 0), 0);
    }

    #[test]
    fn unit_f64_is_in_range_and_uniformish() {
        let n = 20_000;
        let mean: f64 = (0..n).map(|i| unit_f64(42, i)).sum::<f64>() / n as f64;
        for i in 0..1000 {
            let u = unit_f64(7, i);
            assert!((0.0..1.0).contains(&u));
        }
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn signs_are_balanced() {
        let n = 20_000;
        let sum: f64 = (0..n).map(|i| sign(3, i)).sum();
        assert!(sum.abs() / (n as f64) < 0.03);
    }

    #[test]
    fn gaussian_moments() {
        let n = 40_000u64;
        let vals: Vec<f64> = (0..n).map(|i| gaussian(11, i)).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let n = 30_000u64;
        let hits = (0..n).filter(|&i| bernoulli(99, i, 0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn mix3_distinguishes_coordinate_order() {
        assert_ne!(mix3(1, 2, 3), mix3(1, 3, 2));
    }
}
