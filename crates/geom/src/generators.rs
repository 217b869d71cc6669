//! Seeded synthetic workload generators.
//!
//! Every generator is deterministic given its seed, emits points in the
//! paper's convention (coordinates in `[Δ]^d` ⊆ Z when a `delta` is
//! given), and is documented with the experiment(s) it feeds.

use crate::{sphere, PointSet};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Uniform integer points in `{1, ..., delta}^d` (the paper's baseline
/// input model, §1.3). Duplicates are allowed; aspect ratio is `O(Δ√d)`.
pub fn uniform_cube(n: usize, d: usize, delta: u64, seed: u64) -> PointSet {
    assert!(delta >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = PointSet::with_capacity(d, n);
    let mut buf = vec![0.0; d];
    for _ in 0..n {
        for x in &mut buf {
            *x = rng.gen_range(1..=delta) as f64;
        }
        ps.push(&buf);
    }
    ps
}

/// Mixture of `k` spherical Gaussian clusters with integer-rounded
/// coordinates clamped to `[1, delta]`. Feeds the MST / densest-ball
/// experiments (E7, E8): cluster structure is what tree embeddings are
/// good at preserving.
pub fn gaussian_clusters(
    n: usize,
    d: usize,
    k: usize,
    sigma: f64,
    delta: u64,
    seed: u64,
) -> PointSet {
    assert!(k >= 1 && delta >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers = Vec::with_capacity(k);
    for _ in 0..k {
        let c: Vec<f64> = (0..d).map(|_| rng.gen_range(1..=delta) as f64).collect();
        centers.push(c);
    }
    let mut normal = sphere::Normal::new();
    let mut ps = PointSet::with_capacity(d, n);
    let mut buf = vec![0.0; d];
    for i in 0..n {
        let c = &centers[i % k];
        for (x, &cj) in buf.iter_mut().zip(c) {
            let v = cj + sigma * normal.sample(&mut rng);
            *x = v.round().clamp(1.0, delta as f64);
        }
        ps.push(&buf);
    }
    ps
}

/// A planted dense ball: `dense` points inside a ball of diameter
/// `target_diameter` around a random center, plus `n - dense` uniform
/// noise points. Ground truth for the densest-ball experiment (E7).
pub struct PlantedBall {
    /// The generated point set (dense points first).
    pub points: PointSet,
    /// Ids `0..dense` of the planted points.
    pub planted: Vec<usize>,
    /// The planted ball's center.
    pub center: Vec<f64>,
}

/// Generates a [`PlantedBall`] instance.
pub fn planted_ball(
    n: usize,
    d: usize,
    dense: usize,
    target_diameter: f64,
    delta: u64,
    seed: u64,
) -> PlantedBall {
    assert!(dense <= n);
    let mut rng = StdRng::seed_from_u64(seed);
    let margin = target_diameter.ceil() as u64 + 1;
    let lo = margin.min(delta);
    let hi = delta.saturating_sub(margin).max(lo);
    let center: Vec<f64> = (0..d).map(|_| rng.gen_range(lo..=hi) as f64).collect();
    let mut ps = PointSet::with_capacity(d, n);
    let radius = target_diameter / 2.0;
    // Planted points: center + radius-bounded offsets, rounded.
    for _ in 0..dense {
        let dir = sphere::unit_ball(&mut rng, d);
        let p: Vec<f64> = center
            .iter()
            .zip(&dir)
            // Divide by sqrt(d): rounding moves a point by up to sqrt(d)/2,
            // so shrink the continuous radius to keep the rounded diameter
            // within target.
            .map(|(c, u)| (c + u * (radius - (d as f64).sqrt() / 2.0).max(0.0)).round())
            .map(|x| x.clamp(1.0, delta as f64))
            .collect();
        ps.push(&p);
    }
    let mut buf = vec![0.0; d];
    for _ in dense..n {
        for x in &mut buf {
            *x = rng.gen_range(1..=delta) as f64;
        }
        ps.push(&buf);
    }
    PlantedBall {
        points: ps,
        planted: (0..dense).collect(),
        center,
    }
}

/// Points on a random 1-D line segment embedded in `R^d` with additive
/// jitter — a low-doubling-dimension manifold workload. High ambient `d`,
/// low intrinsic dimension: the regime where JL preprocessing matters
/// (experiment E11).
pub fn noisy_line(n: usize, d: usize, delta: u64, jitter: f64, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..d).map(|_| rng.gen_range(1..=delta) as f64).collect();
    let b: Vec<f64> = (0..d).map(|_| rng.gen_range(1..=delta) as f64).collect();
    let mut normal = sphere::Normal::new();
    let mut ps = PointSet::with_capacity(d, n);
    let mut buf = vec![0.0; d];
    for i in 0..n {
        let t = i as f64 / (n.max(2) - 1) as f64;
        for j in 0..d {
            let v = a[j] + t * (b[j] - a[j]) + jitter * normal.sample(&mut rng);
            buf[j] = v.round().clamp(1.0, delta as f64);
        }
        ps.push(&buf);
    }
    ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn uniform_cube_respects_bounds() {
        let ps = uniform_cube(100, 4, 16, 7);
        assert_eq!(ps.len(), 100);
        for p in ps.iter() {
            for &x in p {
                assert!((1.0..=16.0).contains(&x));
                assert_eq!(x.fract(), 0.0, "coordinates must be integral");
            }
        }
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        assert_eq!(uniform_cube(20, 3, 8, 5), uniform_cube(20, 3, 8, 5));
        assert_ne!(uniform_cube(20, 3, 8, 5), uniform_cube(20, 3, 8, 6));
    }

    #[test]
    fn gaussian_clusters_stay_in_range() {
        let ps = gaussian_clusters(60, 5, 3, 2.0, 64, 11);
        assert_eq!(ps.len(), 60);
        for p in ps.iter() {
            for &x in p {
                assert!((1.0..=64.0).contains(&x));
            }
        }
    }

    #[test]
    fn planted_ball_has_bounded_diameter() {
        let inst = planted_ball(80, 6, 30, 12.0, 1024, 3);
        let dense = inst.points.select(&inst.planted);
        let diam = metrics::diameter(&dense);
        assert!(
            diam <= 12.0 + 1e-9,
            "planted diameter {diam} exceeds target"
        );
    }

    #[test]
    fn noisy_line_is_roughly_monotone() {
        let ps = noisy_line(50, 10, 4096, 0.5, 2);
        assert_eq!(ps.len(), 50);
        let endpoints = metrics::dist(ps.point(0), ps.point(49));
        let mid = metrics::dist(ps.point(0), ps.point(25));
        assert!(endpoints > mid * 1.2, "line structure missing");
    }
}
