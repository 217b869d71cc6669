//! Parameter schedules for the hierarchical embeddings.

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
        if ps.is_empty() {
            return Err(EmbedError::EmptyInput);
        }
        if r == 0 {
            return Err(EmbedError::InvalidConfig {
                field: "r",
                value: "0".into(),
                expected: "at least 1".into(),
            });
        }
        if !min_sep.is_finite() || min_sep <= 0.0 {
            return Err(EmbedError::BadSeparation(min_sep));
        }
        if !(fail_prob > 0.0 && fail_prob < 1.0) {
            return Err(EmbedError::InvalidConfig {
                field: "fail_prob",
                value: fail_prob.to_string(),
                expected: "a value in (0, 1)".into(),
            });
        }
        if let Some(point) = first_non_finite(ps) {
            return Err(EmbedError::NonFiniteInput { point });
        }
        let diag = finite_diagonal(ps)?;
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
        let w0 = pow2_at_least(diag.max(min_sep) / 2.0);
        let levels: Vec<f64> = level_scales(w0, min_sep / (2.0 * (r as f64).sqrt())).collect();
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

    /// Edge weight of a cluster created at level `i`: `√r·w_i`, except
    /// the last level which carries the full geometric tail `2·√r·w_i`
    /// so that truncated and untruncated hierarchies define the same
    /// metric (DESIGN.md note 2).
    pub fn edge_weight(&self, level: usize) -> f64 {
        let base = (self.r as f64).sqrt() * self.levels[level];
        if level + 1 == self.levels.len() {
            2.0 * base
        } else {
            base
        }
    }

    /// Weight of a leaf chain truncated at level `i` (the geometric tail
    /// `Σ_{j≥i} √r·w_j = 2√r·w_i`).
    pub fn tail_weight(&self, level: usize) -> f64 {
        2.0 * (self.r as f64).sqrt() * self.levels[level]
    }

    /// The separation the schedule resolves, `2√r·w` at the last level:
    /// two points that share a ball in all `r` buckets there are at
    /// most this far apart, so any farther pair is split by some level.
    pub(crate) fn resolved_separation(&self) -> f64 {
        self.levels
            .last()
            .map_or(0.0, |&w| 2.0 * (self.r as f64).sqrt() * w)
    }

    /// Words occupied by all grids (every level, every bucket) — the
    /// broadcast payload of Algorithm 2, bounded by Lemma 8.
    pub fn total_grid_words(&self) -> usize {
        let m = self.dim / self.r;
        self.num_levels() * self.r * self.grids_per_bucket * (m + 2)
    }
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

/// The level scales `w₀, w₀/2, …`, ending with the first one below
/// `floor`. Also ends at `0` or after `w₀` when `floor` is not a
/// positive number, so every schedule is finite.
fn level_scales(w0: f64, floor: f64) -> impl Iterator<Item = f64> {
    std::iter::successors(Some(w0), move |&w| {
        (w >= floor && w > 0.0).then_some(w / 2.0)
    })
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

/// Schedule for the grid-partitioning (Arora) baseline: analogous
/// derivation with cell diameter `√d·w` in place of `2√r·w`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridParams {
    /// Dimension.
    pub dim: usize,
    /// Cell width per level, halving.
    pub levels: Vec<f64>,
}

impl GridParams {
    /// Derives the grid schedule (see [`HybridParams::for_dataset_with_sep`]).
    pub fn for_dataset_with_sep(ps: &PointSet, min_sep: f64) -> Result<Self, EmbedError> {
        if ps.is_empty() {
            return Err(EmbedError::EmptyInput);
        }
        if !min_sep.is_finite() || min_sep <= 0.0 {
            return Err(EmbedError::BadSeparation(min_sep));
        }
        if let Some(point) = first_non_finite(ps) {
            return Err(EmbedError::NonFiniteInput { point });
        }
        let dim = ps.dim();
        let sqrt_d = (dim as f64).sqrt();
        let diag = finite_diagonal(ps)?.max(min_sep);
        // Same convention as the hybrid schedule: r-independent top
        // scale Θ(diag) (domination needs only w0 ≥ diag/(2√d)).
        let w0 = pow2_at_least(diag / 2.0);
        let levels = level_scales(w0, min_sep / sqrt_d).collect();
        Ok(Self { dim, levels })
    }

    /// `[Δ]^d` convention.
    pub fn for_dataset(ps: &PointSet) -> Result<Self, EmbedError> {
        Self::for_dataset_with_sep(ps, 1.0)
    }

    /// Edge weight at level `i`: `√d·w_i/2`… specifically half the cell
    /// diameter, doubled on the last level as the geometric tail.
    pub fn edge_weight(&self, level: usize) -> f64 {
        let base = (self.dim as f64).sqrt() * self.levels[level] / 2.0;
        if level + 1 == self.levels.len() {
            2.0 * base
        } else {
            base
        }
    }

    /// Tail weight for truncated chains.
    pub fn tail_weight(&self, level: usize) -> f64 {
        (self.dim as f64).sqrt() * self.levels[level]
    }

    /// The separation the schedule resolves, `√d·w` at the last level:
    /// the diagonal of a last-level cell, so any farther pair is split
    /// by some level.
    pub(crate) fn resolved_separation(&self) -> f64 {
        self.levels
            .last()
            .map_or(0.0, |&w| (self.dim as f64).sqrt() * w)
    }
}

/// Index of the first point with a non-finite coordinate, if any.
pub fn first_non_finite(ps: &PointSet) -> Option<usize> {
    ps.iter().position(|p| p.iter().any(|x| !x.is_finite()))
}

/// The bounding-box diagonal of `ps`, or [`EmbedError::InvalidConfig`]
/// naming the diagonal when it overflows `f64` — a coordinate span
/// beyond ~1.3e154 squares to infinity — so no scale schedule exists.
pub(crate) fn finite_diagonal(ps: &PointSet) -> Result<f64, EmbedError> {
    let diag = BoundingBox::of(ps).diagonal();
    if diag.is_finite() {
        return Ok(diag);
    }
    Err(EmbedError::InvalidConfig {
        field: "diagonal",
        value: diag.to_string(),
        expected: "a finite bounding-box diagonal (coordinate spans below ~1e154)".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let p = HybridParams::for_dataset(&ps, 2).unwrap();
        for i in 0..p.num_levels() {
            let direct = p.tail_weight(i);
            let summed: f64 = (i..p.num_levels()).map(|j| p.edge_weight(j)).sum();
            assert!((direct - summed).abs() < 1e-9 * direct, "level {i}");
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
            GridParams::for_dataset(&ps).unwrap_err(),
            EmbedError::EmptyInput
        );
    }

    #[test]
    fn grid_params_mirror_hybrid_structure() {
        let ps = generators::uniform_cube(40, 4, 256, 6);
        let g = GridParams::for_dataset(&ps).unwrap();
        assert!(g.levels.len() > 3);
        let summed: f64 = (0..g.levels.len()).map(|j| g.edge_weight(j)).sum();
        assert!((summed - g.tail_weight(0)).abs() < 1e-9 * summed);
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
            GridParams::for_dataset(&inf).unwrap_err(),
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
