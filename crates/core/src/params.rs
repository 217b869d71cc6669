//! Level schedules for the hierarchical embeddings.
//!
//! Both hierarchies are one §3 family: a level at scale `w` groups
//! points into clusters of diameter at most `c·w`, with `c = 2√r` for
//! hybrid partitioning (`r` buckets of balls of radius `w`) and `c = √d`
//! for the random shifted grid (cells of side `w`, the `r = d` member).
//! This module owns the schedule of both: the input checks, and the
//! scale ladder and edge weights, which depend on the family only
//! through `c`.

use crate::error::EmbedError;
use treeemb_geom::{BoundingBox, PointSet};
use treeemb_partition::coverage;

/// Parameters of a hybrid-partitioning hierarchy (Algorithm 1 / 2).
#[derive(Debug, Clone, PartialEq)]
pub struct HybridParams {
    /// Working dimension (original dimension padded so `r` divides it).
    pub dim: usize,
    /// Original dimension before padding.
    pub orig_dim: usize,
    /// Bucket count `r`.
    pub r: usize,
    /// Scale `w_i` per level, strictly halving.
    pub levels: Vec<f64>,
    /// Grid budget `U` per (level, bucket) — Lemma 7's count.
    pub grids_per_bucket: usize,
    /// Coverage failure probability the budget was sized for.
    pub fail_prob: f64,
}

/// Hard cap on the grid budget: beyond this, the bucket dimension is too
/// large for ball partitioning to be practical (the regime Lemma 6 rules
/// out and the FJLT + bucketing exist to avoid).
pub const MAX_GRID_BUDGET: usize = 2_000_000;

/// Practical bucket dimension target: per-grid cover probability in
/// `m = 5` dimensions is `V₅/4⁵ ≈ 0.51%`, i.e. ≈200 grid probes per
/// point per bucket-level — the sweet spot between distortion (`√r`
/// grows as buckets shrink) and the `2^{Θ(m log m)}` grid budget.
/// Matches the paper's asymptotics: with `k = O(log n)` and
/// `r = Θ(log log n)`, `m = k/r = Θ(log n / log log n)` sits in single
/// digits at realistic `n`.
pub const MAX_PRACTICAL_BUCKET_DIM: usize = 5;

/// The bucket count the pipeline uses for a working dimension `dim` at
/// `n` points: at least `Θ(log log n)` (the paper's choice) and large
/// enough that buckets have at most [`MAX_PRACTICAL_BUCKET_DIM`]
/// dimensions.
pub fn pipeline_r(n: usize, dim: usize) -> usize {
    HybridParams::recommended_r(n)
        .max(dim.div_ceil(MAX_PRACTICAL_BUCKET_DIM))
        .min(dim.max(1))
}

impl HybridParams {
    /// Derives a schedule for a dataset, following the paper's
    /// parametrization: the top scale is `w₀ = Θ(diag)` **independently
    /// of `r`** (the paper starts at `w = Δ/2`), and levels halve down
    /// to the largest `w` with `2√r·w < min_sep` (distinct points are
    /// then deterministically separated; only exact duplicates remain
    /// together).
    ///
    /// Keeping `w₀` r-independent is what makes Theorem 2's `√r` factor
    /// real: edge weights are `√r·w_i` at a scale schedule shared by all
    /// `r`. (An adaptive `w₀ ∝ 1/√r` would silently renormalize the
    /// factor away; domination only needs `w₀ ≥ diag/(4√r)`, which
    /// `diag/2` satisfies for every `r ≥ 1` — DESIGN.md note 1.)
    ///
    /// `min_sep` is a lower bound on the minimum pairwise distance of
    /// *distinct* points — `1.0` for the paper's `[Δ]^d` integer inputs.
    pub fn for_dataset_with_sep(
        ps: &PointSet,
        r: usize,
        min_sep: f64,
        fail_prob: f64,
    ) -> Result<Self, EmbedError> {
        check_budget(Some(r), fail_prob)?;
        let diag = check_points(ps, min_sep)?;
        let params = Self::derive(ps.len(), ps.dim(), r, diag, min_sep, fail_prob);
        let (u, m) = (params.grids_per_bucket, params.dim / r);
        if u > MAX_GRID_BUDGET {
            return Err(treeemb_mpc::MpcError::AlgorithmFailure(format!(
                "grid budget {u} exceeds cap: bucket dimension {m} too large \
                 (reduce dimension with the FJLT or increase r)"
            ))
            .into());
        }
        Ok(params)
    }

    /// The schedule for `n` points with bounding-box diagonal `diag`:
    /// padded dimension, level scales and Lemma 7's budget `U`. Shared by
    /// [`Self::for_dataset_with_sep`] and [`estimate_grid_words`].
    fn derive(n: usize, dim: usize, r: usize, diag: f64, min_sep: f64, fail_prob: f64) -> Self {
        let padded = pad_dim(dim, r);
        let levels = ladder(diag, min_sep, hybrid_diameter(r));
        // Union bound over points, buckets, and levels (Lemma 7).
        let grids_per_bucket = coverage::grids_needed(padded / r, n * r * levels.len(), fail_prob);
        Self {
            dim: padded,
            orig_dim: dim,
            r,
            levels,
            grids_per_bucket,
            fail_prob,
        }
    }

    /// [`Self::for_dataset_with_sep`] with the `[Δ]^d` convention
    /// (`min_sep = 1`) and failure probability `0.001`.
    pub fn for_dataset(ps: &PointSet, r: usize) -> Result<Self, EmbedError> {
        Self::for_dataset_with_sep(ps, r, 1.0, 1e-3)
    }

    /// The paper's bucket count for the Theorem-1 pipeline:
    /// `r = Θ(log log n)`, at least 1.
    pub fn recommended_r(n: usize) -> usize {
        let ll = (n.max(4) as f64).ln().ln();
        (2.0 * ll).round().max(1.0) as usize
    }

    /// Number of levels in the hierarchy.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The ladder with the hybrid cluster diameter `2√r·w` (Lemma 3).
    pub(crate) fn schedule(&self) -> Schedule<'_> {
        Schedule {
            levels: &self.levels,
            c: hybrid_diameter(self.r),
        }
    }

    /// Words occupied by all grids (every level, every bucket) — the
    /// broadcast payload of Algorithm 2, bounded by Lemma 8.
    pub fn total_grid_words(&self) -> usize {
        let m = self.dim / self.r;
        self.num_levels() * self.r * self.grids_per_bucket * (m + 2)
    }
}

/// The hybrid diameter coefficient `2√r`: a part shares a ball of radius
/// `w` in each of `r` buckets.
fn hybrid_diameter(r: usize) -> f64 {
    2.0 * (r as f64).sqrt()
}

/// The grid baseline's ladder for `ps` and its diameter coefficient
/// `√d`, the diagonal of a cell of side 1.
pub(crate) fn grid_ladder(ps: &PointSet, min_sep: f64) -> Result<(Vec<f64>, f64), EmbedError> {
    let diag = check_points(ps, min_sep)?;
    let c = (ps.dim() as f64).sqrt();
    Ok((ladder(diag, min_sep, c), c))
}

/// Estimates the broadcast-grid payload (words) of a hybrid schedule
/// without materializing a point set — the pipeline uses it to size
/// machine capacity before the JL step has produced the working data.
/// Derives the schedule exactly as [`HybridParams::for_dataset_with_sep`]
/// does, from `(diag, min_sep)` instead of points.
pub fn estimate_grid_words(
    n: usize,
    dim: usize,
    r: usize,
    diag: f64,
    min_sep: f64,
    fail_prob: f64,
) -> usize {
    HybridParams::derive(n, dim, r, diag, min_sep, fail_prob).total_grid_words()
}

/// A scale ladder with the diameter coefficient `c` of its clusters (a
/// cluster at scale `w` spans at most `c·w`): the one source of every
/// edge weight the embedders write.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule<'a> {
    /// Scale `w_i` per level, halving.
    pub(crate) levels: &'a [f64],
    /// Cluster diameter over scale.
    pub(crate) c: f64,
}

impl Schedule<'_> {
    /// Edge weight of a cluster created at level `i`: half its diameter
    /// `c·w_i`, doubled on the last level, which carries the full
    /// geometric tail so that truncated and untruncated hierarchies
    /// define the same metric (DESIGN.md note 2).
    pub(crate) fn edge_weight(self, level: usize) -> f64 {
        let half = self.c * self.levels[level] / 2.0;
        if level + 1 == self.levels.len() {
            2.0 * half
        } else {
            half
        }
    }

    /// Weight of a leaf chain truncated at level `i`: the geometric tail
    /// `Σ_{j≥i} c·w_j/2 = c·w_i`.
    pub(crate) fn tail_weight(self, level: usize) -> f64 {
        self.c * self.levels[level]
    }

    /// The separation the schedule resolves, the diameter `c·w` at the
    /// last level: two points that share a cluster there are at most
    /// this far apart, so any farther pair is split by some level.
    pub(crate) fn resolved_separation(self) -> f64 {
        self.levels.last().map_or(0.0, |&w| self.c * w)
    }
}

/// The scale ladder for clusters of diameter `c·w`: the top scale
/// `w₀ = Θ(diag)` is the smallest power of two at least
/// `max(diag, min_sep)/2`, whatever `c` is, and the scales halve down to
/// the first one with `c·w < min_sep`. Also ends at `0`, so every ladder
/// is finite.
fn ladder(diag: f64, min_sep: f64, c: f64) -> Vec<f64> {
    let w0 = pow2_at_least(diag.max(min_sep) / 2.0);
    let floor = min_sep / c;
    std::iter::successors(Some(w0), |&w| (w >= floor && w > 0.0).then_some(w / 2.0)).collect()
}

/// Checks the point set a schedule is derived for, in the order the
/// errors are reported: not empty, `min_sep` positive and finite, every
/// coordinate finite, and a bounding-box diagonal that does not overflow
/// `f64` (a coordinate span beyond ~1.3e154 squares to infinity, and no
/// ladder starts there). Returns the diagonal.
pub(crate) fn check_points(ps: &PointSet, min_sep: f64) -> Result<f64, EmbedError> {
    if ps.is_empty() {
        return Err(EmbedError::EmptyInput);
    }
    if !min_sep.is_finite() || min_sep <= 0.0 {
        return Err(EmbedError::BadSeparation(min_sep));
    }
    if let Some(point) = ps.iter().position(|p| p.iter().any(|x| !x.is_finite())) {
        return Err(EmbedError::NonFiniteInput { point });
    }
    let diag = BoundingBox::of(ps).diagonal();
    if !diag.is_finite() {
        return Err(EmbedError::InvalidConfig {
            field: "diagonal",
            value: diag.to_string(),
            expected: "a finite bounding-box diagonal (coordinate spans below ~1e154)".into(),
        });
    }
    Ok(diag)
}

/// Checks a hybrid schedule's budget inputs: `r` at least 1 (when given)
/// and `fail_prob` in `(0, 1)`.
pub(crate) fn check_budget(r: Option<usize>, fail_prob: f64) -> Result<(), EmbedError> {
    if r == Some(0) {
        return Err(EmbedError::InvalidConfig {
            field: "r",
            value: "0".into(),
            expected: "at least 1".into(),
        });
    }
    if !(fail_prob > 0.0 && fail_prob < 1.0) {
        return Err(EmbedError::InvalidConfig {
            field: "fail_prob",
            value: fail_prob.to_string(),
            expected: "a value in (0, 1)".into(),
        });
    }
    Ok(())
}

/// Smallest `dim' ≥ dim` with `r | dim'`.
pub fn pad_dim(dim: usize, r: usize) -> usize {
    assert!(r >= 1);
    dim.div_ceil(r) * r
}

/// Smallest power of two ≥ `x` (for positive finite `x`).
pub fn pow2_at_least(x: f64) -> f64 {
    assert!(x > 0.0 && x.is_finite());
    let mut w = 1.0;
    while w < x {
        w *= 2.0;
    }
    while w / 2.0 >= x {
        w /= 2.0;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridEmbedder;
    use treeemb_geom::generators;

    #[test]
    fn pad_dim_rounds_up() {
        assert_eq!(pad_dim(7, 3), 9);
        assert_eq!(pad_dim(9, 3), 9);
        assert_eq!(pad_dim(1, 4), 4);
    }

    #[test]
    fn pow2_at_least_is_tight() {
        assert_eq!(pow2_at_least(5.0), 8.0);
        assert_eq!(pow2_at_least(8.0), 8.0);
        assert_eq!(pow2_at_least(0.3), 0.5);
        assert_eq!(pow2_at_least(1.0), 1.0);
    }

    #[test]
    fn schedule_halves_strictly() {
        let ps = generators::uniform_cube(50, 8, 1 << 8, 1);
        let p = HybridParams::for_dataset(&ps, 2).unwrap();
        for w in p.levels.windows(2) {
            assert_eq!(w[1], w[0] / 2.0);
        }
    }

    #[test]
    fn top_scale_dominates_diagonal() {
        let ps = generators::uniform_cube(50, 8, 1 << 8, 2);
        let p = HybridParams::for_dataset(&ps, 2).unwrap();
        let diag = treeemb_geom::BoundingBox::of(&ps).diagonal();
        assert!(4.0 * (p.r as f64).sqrt() * p.levels[0] >= diag);
    }

    #[test]
    fn top_scale_is_r_independent() {
        // Theorem 2's √r factor requires a shared scale schedule.
        let ps = generators::uniform_cube(50, 8, 1 << 8, 2);
        let p2 = HybridParams::for_dataset(&ps, 2).unwrap();
        let p8 = HybridParams::for_dataset(&ps, 8).unwrap();
        assert_eq!(p2.levels[0], p8.levels[0]);
    }

    #[test]
    fn bottom_scale_separates_unit_distances() {
        let ps = generators::uniform_cube(50, 8, 1 << 8, 3);
        let p = HybridParams::for_dataset(&ps, 4).unwrap();
        let w_last = *p.levels.last().unwrap();
        assert!(2.0 * (p.r as f64).sqrt() * w_last < 1.0);
    }

    #[test]
    fn edge_weights_sum_to_tail() {
        let ps = generators::uniform_cube(30, 8, 256, 4);
        let hybrid = HybridParams::for_dataset(&ps, 2).unwrap();
        let grid = GridEmbedder::for_dataset(&ps).unwrap();
        for s in [hybrid.schedule(), grid.schedule()] {
            assert!(s.levels.len() > 3);
            for i in 0..s.levels.len() {
                let direct = s.tail_weight(i);
                let summed: f64 = (i..s.levels.len()).map(|j| s.edge_weight(j)).sum();
                assert!((direct - summed).abs() < 1e-9 * direct, "level {i}");
            }
        }
    }

    /// The one coefficient rule gives each family's own factors bit for
    /// bit (the coefficients differ by powers of two): edges `√r·w` and
    /// tails `2√r·w` for hybrid, `√d·w/2` and `√d·w` for the grid, edges
    /// doubled on the last level.
    #[test]
    fn weights_are_the_per_family_factors() {
        let ps = generators::uniform_cube(30, 7, 1 << 12, 8);
        let hybrid: Vec<HybridParams> = [2, 3, 4, 7]
            .iter()
            .map(|&r| HybridParams::for_dataset(&ps, r).unwrap())
            .collect();
        let grid = GridEmbedder::for_dataset(&ps).unwrap();
        let mut cases: Vec<_> = hybrid
            .iter()
            .map(|p| (p.schedule(), (p.r as f64).sqrt()))
            .collect();
        cases.push((grid.schedule(), 7f64.sqrt() / 2.0));
        for (s, edge) in cases {
            let last = s.levels.len() - 1;
            for (i, &w) in s.levels.iter().enumerate() {
                let want = if i == last {
                    2.0 * (edge * w)
                } else {
                    edge * w
                };
                assert_eq!(s.edge_weight(i).to_bits(), want.to_bits(), "level {i}");
                assert_eq!(s.tail_weight(i).to_bits(), (2.0 * edge * w).to_bits());
            }
            assert_eq!(s.resolved_separation(), 2.0 * edge * s.levels[last]);
        }
    }

    /// Lemma 8's grid payload two ways: the closed form that sizes the
    /// pipeline and the experiments, and the words of the levels
    /// `embed_mpc_full` broadcasts.
    #[test]
    fn total_grid_words_is_the_broadcast_payload() {
        for (n, d, r, fail_prob) in [(40, 8, 4, 1e-3), (25, 7, 3, 1e-2), (60, 10, 5, 1e-6)] {
            let ps = generators::uniform_cube(n, d, 512, 9);
            let p = HybridParams::for_dataset_with_sep(&ps, r, 1.0, fail_prob).unwrap();
            let levels = crate::SeqEmbedder::new(p.clone()).build_levels(1);
            let broadcast: usize = levels
                .iter()
                .map(treeemb_partition::HybridLevel::words)
                .sum();
            assert_eq!(broadcast, p.total_grid_words(), "n {n} d {d} r {r}");
        }
    }

    #[test]
    fn infeasible_bucket_dimension_is_reported() {
        // r = 1 in 16 dimensions: the Lemma-6 regime; must refuse.
        let ps = generators::uniform_cube(20, 16, 256, 5);
        let err = HybridParams::for_dataset(&ps, 1).unwrap_err();
        assert!(matches!(err, EmbedError::Mpc(_)), "{err:?}");
    }

    #[test]
    fn recommended_r_grows_slowly() {
        assert!(HybridParams::recommended_r(1_000_000) >= HybridParams::recommended_r(100));
        assert!(HybridParams::recommended_r(1_000_000_000) <= 8);
    }

    #[test]
    fn empty_input_rejected() {
        let ps = PointSet::new(3);
        assert_eq!(
            HybridParams::for_dataset(&ps, 1).unwrap_err(),
            EmbedError::EmptyInput
        );
        assert_eq!(
            GridEmbedder::for_dataset(&ps).unwrap_err(),
            EmbedError::EmptyInput
        );
    }

    #[test]
    fn non_finite_coordinates_are_rejected_not_panicked() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.0], vec![f64::NAN, 0.0]]);
        assert_eq!(
            HybridParams::for_dataset(&ps, 2).unwrap_err(),
            EmbedError::NonFiniteInput { point: 1 }
        );
        let inf = PointSet::from_rows(&[vec![f64::INFINITY]]);
        assert!(matches!(
            GridEmbedder::for_dataset(&inf).unwrap_err(),
            EmbedError::NonFiniteInput { point: 0 }
        ));
    }

    #[test]
    fn fail_prob_outside_unit_interval_is_rejected() {
        let ps = generators::uniform_cube(16, 4, 64, 3);
        for fail_prob in [0.0, 1.0, 2.0, f64::NAN] {
            let err = HybridParams::for_dataset_with_sep(&ps, 2, 1.0, fail_prob).unwrap_err();
            assert!(
                matches!(
                    err,
                    EmbedError::InvalidConfig {
                        field: "fail_prob",
                        ..
                    }
                ),
                "{fail_prob}: {err:?}"
            );
        }
    }

    #[test]
    fn grid_budget_counts_lemma7_targets() {
        let ps = generators::uniform_cube(30, 8, 256, 7);
        let small = HybridParams::for_dataset_with_sep(&ps, 4, 1.0, 1e-2).unwrap();
        let strict = HybridParams::for_dataset_with_sep(&ps, 4, 1.0, 1e-6).unwrap();
        assert!(strict.grids_per_bucket > small.grids_per_bucket);
    }
}
