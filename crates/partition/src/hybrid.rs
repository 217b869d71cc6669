//! Hybrid partitioning (Definition 3) — the paper's core contribution.
//!
//! Dimensions are grouped into `r` contiguous buckets of `d/r`
//! dimensions each. Every bucket runs an independent ball partitioning
//! of the projected points; two points share a hybrid partition iff they
//! share a ball in **every** bucket. `r` interpolates between ball
//! partitioning (`r = 1`) and random shifted grids (`r = d` with radius
//! `ℓ/2`).

use crate::ball::{BallAssignment, GridSequence};
use crate::ids::StructuralHash;
use treeemb_linalg::random::mix2;

/// One scale ("level") of hybrid partitioning over `R^d`.
///
/// ```
/// use treeemb_partition::HybridLevel;
/// // d = 4 dimensions in r = 2 buckets, ball radius w = 2.
/// let level = HybridLevel::new(4, 2, 2.0, 200, 42);
/// let a = level.assign(&[1.0, 1.0, 5.0, 5.0]);
/// let b = level.assign(&[1.1, 1.0, 5.0, 5.0]); // 0.1 away
/// if let (Some(a), Some(b)) = (a, b) {
///     // Same partition implies within the diameter bound.
///     if a == b {
///         assert!(0.1 <= level.diameter_bound());
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HybridLevel {
    dim: usize,
    r: usize,
    bucket_dim: usize,
    w: f64,
    sequences: Vec<GridSequence>,
}

/// A point's assignment at one hybrid level: its ball assignment in each
/// of the `r` buckets. Two points are in the same partition iff their
/// `LevelAssignment`s are equal (Definition 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LevelAssignment {
    /// Per-bucket ball assignments, in bucket order.
    pub buckets: Vec<BallAssignment>,
}

impl LevelAssignment {
    /// Folds this assignment into a structural hash chain: the
    /// reference that [`HybridLevel::absorb_assignment_into`] streams
    /// bit for bit.
    pub fn absorb_into(&self, mut h: StructuralHash) -> StructuralHash {
        for a in &self.buckets {
            h = h.absorb_assignment(a);
        }
        h
    }
}

impl HybridLevel {
    /// Builds a hybrid level with the paper's geometry: per bucket, a
    /// sequence of `grids_per_bucket` ball grids of radius `w` and cell
    /// length `4w`.
    ///
    /// # Panics
    /// Panics unless `r` divides `dim` (callers zero-pad, paper
    /// footnote 3) and parameters are positive.
    pub fn new(dim: usize, r: usize, w: f64, grids_per_bucket: usize, seed: u64) -> Self {
        Self::with_cell_factor(dim, r, w, 4.0, grids_per_bucket, seed)
    }

    /// [`Self::new`] with an explicit ball-grid cell factor (the paper
    /// uses 4; see [`GridSequence::build_with_cell_factor`]).
    pub fn with_cell_factor(
        dim: usize,
        r: usize,
        w: f64,
        factor: f64,
        grids_per_bucket: usize,
        seed: u64,
    ) -> Self {
        assert!(r >= 1 && r <= dim, "need 1 <= r <= dim");
        assert_eq!(dim % r, 0, "r must divide dim (zero-pad first)");
        assert!(w > 0.0);
        let bucket_dim = dim / r;
        let sequences = (0..r)
            .map(|j| {
                GridSequence::build_with_cell_factor(
                    bucket_dim,
                    w,
                    factor,
                    grids_per_bucket,
                    mix2(seed, j as u64),
                )
            })
            .collect();
        Self {
            dim,
            r,
            bucket_dim,
            w,
            sequences,
        }
    }

    /// Scale parameter `w` (ball radius).
    #[must_use]
    pub fn w(&self) -> f64 {
        self.w
    }

    /// Number of buckets `r`.
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Dimensions per bucket (`d/r`).
    #[must_use]
    pub fn bucket_dim(&self) -> usize {
        self.bucket_dim
    }

    /// Ambient dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-bucket grid sequences.
    pub fn sequences(&self) -> &[GridSequence] {
        &self.sequences
    }

    /// Upper bound on the Euclidean diameter of any partition at this
    /// level: each bucket confines the projection to a ball of diameter
    /// `2w`, so the full diameter is at most `2w·√r` (Lemma 1's second
    /// part).
    pub fn diameter_bound(&self) -> f64 {
        2.0 * self.w * (self.r as f64).sqrt()
    }

    /// Assigns a point to its hybrid partition, or `None` if some
    /// bucket's grid sequence fails to cover it.
    ///
    /// This materializes the per-bucket lattice cells; it is the
    /// reference the embedders' node ids are tested against. The
    /// embedders themselves use [`for_each_node_id`], which makes the
    /// identical covering decisions without allocating.
    pub fn assign(&self, p: &[f64]) -> Option<LevelAssignment> {
        assert_eq!(p.len(), self.dim, "point dimension mismatch");
        let mut buckets = Vec::with_capacity(self.r);
        for (j, seq) in self.sequences.iter().enumerate() {
            let lo = j * self.bucket_dim;
            let hi = lo + self.bucket_dim;
            buckets.push(seq.assign(&p[lo..hi])?);
        }
        Some(LevelAssignment { buckets })
    }

    /// Folds `p`'s level assignment into a structural-hash chain with
    /// exactly the token stream of `assign(p).unwrap().absorb_into(h)`,
    /// but without materializing the assignment. On a coverage failure
    /// returns `Err(j)`, where `j` is the first bucket whose grid
    /// sequence does not cover `p`'s projection.
    pub fn absorb_assignment_into(
        &self,
        p: &[f64],
        h: StructuralHash,
    ) -> Result<StructuralHash, usize> {
        assert_eq!(p.len(), self.dim, "point dimension mismatch");
        let mut cur = h;
        for (j, seq) in self.sequences.iter().enumerate() {
            let lo = j * self.bucket_dim;
            let proj = &p[lo..lo + self.bucket_dim];
            cur = seq
                .covering(proj, |u, cell| {
                    let head = cur.absorb(0xBA11).absorb(u64::from(u));
                    cell.iter()
                        .fold(head, |h, &c| h.absorb_i64(c))
                        .absorb(0xE4D)
                })
                .ok_or(j)?;
        }
        Ok(cur)
    }

    /// Total words the level's grids occupy when broadcast (Lemma 8's
    /// space accounting).
    pub fn words(&self) -> usize {
        self.sequences.iter().map(GridSequence::words).sum()
    }
}

/// Walks `p` down the hierarchy `levels` (top scale first), calling
/// `f(level, id)` with the id of the tree node that contains `p` at each
/// level. The id of level `i` hashes the parent's id, `i`, and `p`'s
/// assignment at level `i`, so two points share a node exactly when they
/// share every assignment down to it. This is the one node-id derivation:
/// the sequential embedder groups by these ids, the MPC embedder's
/// machines emit them as tree nodes, and the ANN index keys on them.
///
/// On a coverage failure returns `Err((level, bucket))` for the first
/// level that fails and its first uncovered bucket; `f` has then been
/// called for the levels above it only.
pub fn for_each_node_id(
    levels: &[HybridLevel],
    p: &[f64],
    mut f: impl FnMut(usize, u64),
) -> Result<(), (usize, usize)> {
    let mut chain = StructuralHash::root();
    for (level, lvl) in levels.iter().enumerate() {
        chain = lvl
            .absorb_assignment_into(p, chain.absorb(level as u64))
            .map_err(|bucket| (level, bucket))?;
        f(level, chain.value());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::grids_needed;
    use treeemb_geom::metrics::dist;

    #[test]
    fn r_must_divide_dim() {
        let ok = HybridLevel::new(8, 4, 1.0, 4, 1);
        assert_eq!(ok.bucket_dim(), 2);
        let res = std::panic::catch_unwind(|| HybridLevel::new(8, 3, 1.0, 4, 1));
        assert!(res.is_err());
    }

    #[test]
    fn assignment_is_deterministic() {
        let lvl = HybridLevel::new(6, 2, 2.0, 64, 5);
        let p = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(lvl.assign(&p), lvl.assign(&p));
    }

    #[test]
    fn same_partition_iff_equal_in_every_bucket() {
        // Construct two points that differ wildly in the second bucket:
        // they can never share a partition even if bucket 1 matches.
        let lvl = HybridLevel::new(4, 2, 1.0, grids_needed(2, 100, 0.001), 9);
        let p = [0.3, 0.3, 0.0, 0.0];
        let q = [0.3, 0.3, 50.0, 50.0];
        if let (Some(ap), Some(aq)) = (lvl.assign(&p), lvl.assign(&q)) {
            assert_eq!(
                ap.buckets[0], aq.buckets[0],
                "identical first-bucket projections"
            );
            assert_ne!(ap, aq, "distant second bucket must separate them");
        } else {
            panic!("coverage failed with Lemma-7 grid budget");
        }
    }

    #[test]
    fn partition_diameter_respects_bound() {
        // Points in the same partition must be within 2w sqrt(r).
        let w = 3.0;
        let lvl = HybridLevel::new(4, 2, w, grids_needed(2, 1000, 0.001), 11);
        let mut groups: std::collections::HashMap<LevelAssignment, Vec<Vec<f64>>> =
            std::collections::HashMap::new();
        for i in 0..400 {
            let p = vec![
                (i % 20) as f64 * 0.9,
                (i / 20) as f64 * 0.9,
                (i % 7) as f64,
                (i % 13) as f64,
            ];
            if let Some(a) = lvl.assign(&p) {
                groups.entry(a).or_default().push(p);
            }
        }
        let bound = lvl.diameter_bound() + 1e-9;
        for members in groups.values() {
            for a in members {
                for b in members {
                    assert!(dist(a, b) <= bound, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn r_equals_one_is_plain_ball_partitioning() {
        let lvl = HybridLevel::new(3, 1, 2.0, 128, 13);
        let p = [1.0, 2.0, 3.0];
        let direct = lvl.sequences()[0].assign(&p);
        let hybrid = lvl
            .assign(&p)
            .map(|a| a.buckets.into_iter().next().unwrap());
        assert_eq!(direct, hybrid);
    }

    #[test]
    fn r_equals_d_with_half_cell_balls_is_a_shifted_grid() {
        // §3: with r = d one-dimensional buckets and balls of radius ℓ/2,
        // each axis's balls tile the line, and the ball around s + kℓ is
        // the cell of the grid shifted by s + ℓ/2: the same partition.
        use crate::ball::BallGrid;
        use crate::grid::ShiftedGrid;
        use treeemb_linalg::random::unit_f64;
        let w = 1.0;
        let axes: Vec<BallGrid> = (0..2)
            .map(|j| BallGrid::from_seed(1, w, w / 2.0, mix2(77, j)))
            .collect();
        let grid = ShiftedGrid::new(
            w,
            axes.iter().map(|g| (g.shift()[0] + w / 2.0) % w).collect(),
        );
        let balls = |p: &[f64; 2]| -> Vec<Vec<i64>> {
            p.iter()
                .zip(&axes)
                .map(|(x, g)| g.ball_of(&[*x]).expect("radius ℓ/2 tiles the line"))
                .collect()
        };
        for t in 0..500u64 {
            let p = [unit_f64(1, t) * 10.0, unit_f64(2, t) * 10.0];
            let q = [
                p[0] + unit_f64(3, t) * 0.4 - 0.2,
                p[1] + unit_f64(4, t) * 0.4 - 0.2,
            ];
            let same_cell = grid.cell_of(&p) == grid.cell_of(&q);
            assert_eq!(balls(&p) == balls(&q), same_cell, "trial {t}");
        }
    }

    #[test]
    fn chain_equality_matches_assignment_equality() {
        let lvl = HybridLevel::new(4, 2, 2.5, grids_needed(2, 1000, 0.001), 31);
        let points: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                vec![
                    (i % 11) as f64 * 0.8,
                    (i / 11) as f64 * 0.8,
                    (i % 5) as f64 * 2.0,
                    (i % 3) as f64 * 2.0,
                ]
            })
            .collect();
        let exact: Vec<_> = points.iter().map(|p| lvl.assign(p)).collect();
        let chains: Vec<_> = points
            .iter()
            .map(|p| lvl.absorb_assignment_into(p, StructuralHash::root()).ok())
            .collect();
        for (e, c) in exact.iter().zip(&chains) {
            assert_eq!(e.is_some(), c.is_some(), "coverage must agree");
        }
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if exact[i].is_some() && exact[j].is_some() {
                    assert_eq!(
                        exact[i] == exact[j],
                        chains[i] == chains[j],
                        "pair ({i},{j}) grouped differently"
                    );
                }
            }
        }
    }

    #[test]
    fn absorb_assignment_into_matches_exact_chain() {
        let lvl = HybridLevel::new(6, 3, 1.5, 300, 17);
        let h0 = StructuralHash::root().absorb(9);
        for i in 0..80 {
            let p = vec![
                i as f64 * 0.4,
                1.0,
                (i % 7) as f64,
                -0.5 * i as f64,
                2.0,
                (i % 4) as f64,
            ];
            let exact = lvl.assign(&p).map(|a| a.absorb_into(h0));
            let streamed = lvl.absorb_assignment_into(&p, h0).ok();
            assert_eq!(exact, streamed, "point {i}");
        }
    }

    #[test]
    fn node_ids_chain_the_materialized_assignments() {
        let levels: Vec<_> = [8.0, 4.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, &w)| HybridLevel::new(4, 2, w, grids_needed(2, 1000, 0.001), 50 + i as u64))
            .collect();
        for i in 0..40 {
            let p = [i as f64 * 0.3, 1.0, (i % 6) as f64, -0.2 * i as f64];
            let mut ids = Vec::new();
            for_each_node_id(&levels, &p, |level, id| ids.push((level, id))).unwrap();
            let mut chain = StructuralHash::root();
            let mut expect = Vec::new();
            for (level, lvl) in levels.iter().enumerate() {
                chain = lvl
                    .assign(&p)
                    .unwrap()
                    .absorb_into(chain.absorb(level as u64));
                expect.push((level, chain.value()));
            }
            assert_eq!(ids, expect, "point {i}");
        }
    }

    #[test]
    fn words_sums_buckets() {
        let lvl = HybridLevel::new(8, 2, 1.0, 10, 1);
        // Each bucket: 10 grids * (4 dims + 2 words) = 60; two buckets.
        assert_eq!(lvl.words(), 120);
    }

    #[test]
    fn uncovered_point_yields_none_with_tiny_budget() {
        // A single grid in 3-D covers ~ V_3/64 ~ 6.5% of space: some probe
        // point will be uncovered.
        let lvl = HybridLevel::new(3, 1, 1.0, 1, 40);
        let mut missed = false;
        for i in 0..200 {
            let p = [i as f64 * 0.37, i as f64 * 0.73, i as f64 * 0.11];
            if lvl.assign(&p).is_none() {
                missed = true;
                assert_eq!(
                    lvl.absorb_assignment_into(&p, StructuralHash::root()),
                    Err(0)
                );
                let levels = [lvl.clone()];
                assert_eq!(for_each_node_id(&levels, &p, |_, _| {}), Err((0, 0)));
                break;
            }
        }
        assert!(missed, "one grid should leave gaps in 3-D");
    }
}
