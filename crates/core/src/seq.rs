//! Sequential tree embeddings: Algorithm 1 (hybrid partitioning,
//! Theorem 2) and the Arora grid-partitioning baseline it generalizes.
//!
//! Both embedders share a hierarchy driver: partition the point set at
//! the top scale, recurse into every part at half the scale, stop at
//! singletons (attaching the geometric-tail edge weight so the truncated
//! tree's metric equals the untruncated one), and attach surviving
//! duplicate groups as zero-weight sibling leaves after the last level.

use crate::error::EmbedError;
use crate::params::{self, HybridParams, Schedule};
use std::collections::HashMap;
use std::collections::VecDeque;
use treeemb_geom::PointSet;
use treeemb_hst::{Hst, HstBuilder};
use treeemb_linalg::random::mix3;
use treeemb_partition::{for_each_node_id, grid::ShiftedGrid, HybridLevel};

/// Domain tag for hybrid-level seeds (shared with the MPC embedder so
/// both derive identical grids).
pub const HYBRID_LEVEL_TAG: u64 = 0x48594252; // "HYBR"
/// Domain tag for grid-level seeds.
pub const GRID_LEVEL_TAG: u64 = 0x47524944; // "GRID"

/// Per-level seed of the hybrid hierarchy.
#[inline]
pub fn hybrid_level_seed(seed: u64, level: usize) -> u64 {
    mix3(seed, HYBRID_LEVEL_TAG, level as u64)
}

/// A finished tree embedding.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The weighted tree; leaves carry the input point ids.
    pub tree: Hst,
    /// Which algorithm produced it.
    pub method: &'static str,
    /// Seed the randomness derived from.
    pub seed: u64,
}

impl Embedding {
    /// Tree-metric distance between two input points.
    pub fn tree_distance(&self, p: usize, q: usize) -> f64 {
        self.tree.distance(p, q)
    }
}

/// Builds the hierarchy of `schedule` from a per-level assignment
/// closure: `assign(level, point)` returns the point's partition key at
/// that level (points with equal keys stay together), or `Err` on
/// coverage failure.
pub(crate) fn build_hierarchy<K, F>(
    n: usize,
    schedule: Schedule<'_>,
    assign: F,
) -> Result<Hst, EmbedError>
where
    K: Eq + std::hash::Hash,
    F: Fn(usize, usize) -> Result<K, EmbedError>,
{
    if n == 0 {
        return Err(EmbedError::EmptyInput);
    }
    let num_levels = schedule.levels.len();
    let mut b = HstBuilder::new();
    let root = b.add_root();
    let mut queue: VecDeque<(usize, Vec<usize>, usize)> = VecDeque::new();
    queue.push_back((root, (0..n).collect(), 0));
    while let Some((parent, members, level)) = queue.pop_front() {
        if level == num_levels {
            // Only exact duplicates survive every level (the bottom
            // scale separates any pair at distance >= min_sep).
            for p in members {
                b.add_child(parent, 0.0, Some(p));
            }
            continue;
        }
        // Group members by their level key, preserving first-seen order
        // for determinism.
        let mut index: HashMap<K, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for p in members {
            let key = assign(level, p)?;
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(p),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push(vec![p]);
                }
            }
        }
        for group in groups {
            if group.len() == 1 {
                // Singleton: truncate the chain, attach the leaf with the
                // geometric tail weight.
                b.add_child(parent, schedule.tail_weight(level), Some(group[0]));
            } else {
                let node = b.add_child(parent, schedule.edge_weight(level), None);
                queue.push_back((node, group, level + 1));
            }
        }
    }
    b.finish()
        .map_err(|e| EmbedError::TreeAssembly(e.to_string()))
}

/// Checks that only identical points share every level of `tree`.
///
/// The zero-weight leaf children of a node are the points that stayed
/// together through the last level (both embedders attach every other
/// leaf with a positive weight), so each such group must hold one
/// coordinate vector of `ps`, the point set the embedder was given. The
/// first point, in id order, that differs from the smallest id of its
/// group is reported with that id, so every embedder names the same
/// pair. `min_sep` is the schedule's resolved separation, reported with
/// the pair. `O(n·d)`, no pair scan.
///
/// The reported distance is scaled by the largest coordinate gap, so a
/// pair whose squared gaps underflow (`1e-320` apart) still reads as
/// the positive distance it is.
pub(crate) fn check_separation(tree: &Hst, ps: &PointSet, min_sep: f64) -> Result<(), EmbedError> {
    // `first[v]`: the smallest point id among node `v`'s zero-weight
    // leaves seen so far.
    let mut first = vec![usize::MAX; tree.num_nodes()];
    for q in 0..tree.num_points() {
        let leaf = tree.node(tree.leaf_of(q));
        let Some(v) = leaf.parent.filter(|_| leaf.weight_to_parent == 0.0) else {
            continue;
        };
        let p = first[v];
        if p == usize::MAX {
            first[v] = q;
        } else if ps.point(p) != ps.point(q) {
            return Err(EmbedError::SeparationViolated {
                p,
                q,
                dist: scaled_dist(ps.point(p), ps.point(q)),
                min_sep,
            });
        }
    }
    Ok(())
}

/// Euclidean distance computed as `s·‖(p − q)/s‖` with `s = max |pⱼ − qⱼ|`,
/// which neither underflows nor overflows in the squares.
fn scaled_dist(p: &[f64], q: &[f64]) -> f64 {
    let s = p
        .iter()
        .zip(q)
        .fold(0.0f64, |s, (a, b)| s.max((a - b).abs()));
    if s == 0.0 {
        return 0.0;
    }
    s * p
        .iter()
        .zip(q)
        .map(|(a, b)| ((a - b) / s).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Algorithm 1: the sequential hybrid-partitioning embedder.
#[derive(Debug, Clone)]
pub struct SeqEmbedder {
    params: HybridParams,
}

impl SeqEmbedder {
    /// Creates an embedder for a fixed parameter schedule.
    pub fn new(params: HybridParams) -> Self {
        Self { params }
    }

    /// The schedule in force.
    pub fn params(&self) -> &HybridParams {
        &self.params
    }

    /// Builds the per-level hybrid partitionings for `seed` (shared with
    /// the MPC embedder — identical derivation). Grid shifts are filled
    /// on first read, so this allocates no shift storage.
    pub fn build_levels(&self, seed: u64) -> Vec<HybridLevel> {
        self.params
            .levels
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                HybridLevel::new(
                    self.params.dim,
                    self.params.r,
                    w,
                    self.params.grids_per_bucket,
                    hybrid_level_seed(seed, i),
                )
            })
            .collect()
    }

    /// Embeds `ps` into a tree (Theorem 2 guarantees: domination always;
    /// expected distortion `O(√(d·r)·logΔ)`). Single-threaded; see
    /// [`Self::embed_parallel`].
    pub fn embed(&self, ps: &PointSet, seed: u64) -> Result<Embedding, EmbedError> {
        self.embed_with_threads(ps, seed, 1)
    }

    /// [`Self::embed`] with all point assignments computed concurrently
    /// on `threads` workers. The tree is identical to the sequential
    /// result (assignments are pure functions; grouping order is fixed
    /// by point id).
    pub fn embed_parallel(
        &self,
        ps: &PointSet,
        seed: u64,
        threads: usize,
    ) -> Result<Embedding, EmbedError> {
        self.embed_with_threads(ps, seed, threads.max(1))
    }

    fn embed_with_threads(
        &self,
        ps: &PointSet,
        seed: u64,
        threads: usize,
    ) -> Result<Embedding, EmbedError> {
        let padded = ps.zero_pad(self.params.dim);
        let levels = self.build_levels(seed);
        let tree = self.hierarchy(&padded, &levels, threads)?;
        check_separation(&tree, ps, self.params.schedule().resolved_separation())?;
        Ok(Embedding {
            tree,
            method: "hybrid",
            seed,
        })
    }

    /// Computes every point's root-to-leaf node ids in parallel (one
    /// flat `n × levels` table) and groups by them. These are the ids
    /// the MPC embedder's machines emit, so both build the same tree.
    fn hierarchy(
        &self,
        padded: &PointSet,
        levels: &[HybridLevel],
        threads: usize,
    ) -> Result<Hst, EmbedError> {
        let num_levels = levels.len();
        let mut ids = vec![0u64; padded.len() * num_levels];
        // `max(1)`: a schedule without levels has no ids to fill.
        let rows: Vec<&mut [u64]> = ids.chunks_mut(num_levels.max(1)).collect();
        treeemb_mpc::exec::par_map_indexed(rows, threads, |p, row| {
            for_each_node_id(levels, padded.point(p), |level, id| row[level] = id).map_err(
                |(level, bucket)| EmbedError::CoverageFailure {
                    level,
                    bucket,
                    point: p,
                },
            )
        })
        .into_iter()
        .collect::<Result<(), EmbedError>>()?;
        build_hierarchy(padded.len(), self.params.schedule(), |level, p| {
            Ok(ids[p * num_levels + level])
        })
    }
}

/// The Arora random-shifted-grid embedder (the `O(log² n)`-distortion
/// baseline; E1/E8/E10 compare against it): the `r = d` member of the
/// family, whose level-`i` cells of side `w_i` have diameter `√d·w_i`.
#[derive(Debug, Clone)]
pub struct GridEmbedder {
    /// Cell side per level, halving.
    levels: Vec<f64>,
    /// The cell diameter over its side, `√d`.
    c: f64,
}

impl GridEmbedder {
    /// The grid schedule for `ps`: the scale ladder of
    /// [`HybridParams::for_dataset_with_sep`] with cell diameter `√d·w`
    /// in place of `2√r·w`, so distinct points at least `min_sep` apart
    /// end in different cells.
    pub fn for_dataset_with_sep(ps: &PointSet, min_sep: f64) -> Result<Self, EmbedError> {
        let (levels, c) = params::grid_ladder(ps, min_sep)?;
        Ok(Self { levels, c })
    }

    /// [`Self::for_dataset_with_sep`] with the `[Δ]^d` convention
    /// (`min_sep = 1`).
    pub fn for_dataset(ps: &PointSet) -> Result<Self, EmbedError> {
        Self::for_dataset_with_sep(ps, 1.0)
    }

    /// The ladder with the cell diameter `√d·w`.
    pub(crate) fn schedule(&self) -> Schedule<'_> {
        Schedule {
            levels: &self.levels,
            c: self.c,
        }
    }

    /// Embeds `ps` into a tree via hierarchical random shifted grids.
    /// Grid partitioning always covers, so this cannot fail on coverage;
    /// it fails with [`EmbedError::SeparationViolated`] when two distinct
    /// points share every level (they are closer than the schedule's
    /// `min_sep`).
    pub fn embed(&self, ps: &PointSet, seed: u64) -> Result<Embedding, EmbedError> {
        let grids: Vec<ShiftedGrid> = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                ShiftedGrid::from_seed(ps.dim(), w, mix3(seed, GRID_LEVEL_TAG, i as u64))
            })
            .collect();
        let tree = build_hierarchy(ps.len(), self.schedule(), |level, p| {
            Ok(grids[level].cell_of(ps.point(p)))
        })?;
        check_separation(&tree, ps, self.schedule().resolved_separation())?;
        Ok(Embedding {
            tree,
            method: "grid",
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_geom::{generators, metrics};

    fn small_set() -> PointSet {
        generators::uniform_cube(40, 8, 256, 11)
    }

    #[test]
    fn hybrid_embedding_builds_and_dominates() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 3).unwrap();
        assert_eq!(emb.tree.num_points(), ps.len());
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                let t = emb.tree_distance(i, j);
                assert!(
                    t >= e * (1.0 - 1e-9),
                    "pair ({i},{j}): tree {t} < euclid {e}"
                );
            }
        }
    }

    #[test]
    fn grid_embedding_builds_and_dominates() {
        let ps = small_set();
        let emb = GridEmbedder::for_dataset(&ps)
            .unwrap()
            .embed(&ps, 5)
            .unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                let t = emb.tree_distance(i, j);
                assert!(
                    t >= e * (1.0 - 1e-9),
                    "pair ({i},{j}): tree {t} < euclid {e}"
                );
            }
        }
    }

    #[test]
    fn grid_embedder_rejects_points_finer_than_its_schedule() {
        // 64 collinear points 0.01 apart; the `[Δ]^d` schedule's last
        // cells are 0.5 wide, so neighbours share every level.
        let line: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i) * 0.01, 0.0]).collect();
        let ps = PointSet::from_rows(&line);
        match GridEmbedder::for_dataset(&ps).unwrap().embed(&ps, 7) {
            Err(EmbedError::SeparationViolated {
                p: 0,
                q: 1,
                dist,
                min_sep,
            }) => {
                assert!((dist - 0.01).abs() < 1e-12, "dist {dist}");
                let diagonal = std::f64::consts::SQRT_2 / 2.0;
                assert!((min_sep - diagonal).abs() < 1e-12, "min_sep {min_sep}");
            }
            other => panic!("expected points 0 and 1 to violate separation, got {other:?}"),
        }
    }

    /// Distinct points whose squared gap underflows are reported at
    /// their true, positive distance by all three embedders, so the
    /// error's advice names a `min_sep` the schedule accepts.
    #[test]
    fn separation_violation_reports_tiny_gaps_as_positive() {
        let ps = PointSet::from_rows(&[vec![0.0, 0.0], vec![1e-320, 0.0]]);
        let hybrid = SeqEmbedder::new(HybridParams::for_dataset(&ps, 2).unwrap());
        let mut rt = treeemb_mpc::Runtime::builder()
            .config(treeemb_mpc::MpcConfig::explicit(1 << 16, 1 << 15, 8).with_threads(2))
            .build();
        let results = [
            hybrid.embed(&ps, 1),
            GridEmbedder::for_dataset(&ps).unwrap().embed(&ps, 1),
            crate::mpc_embed::embed_mpc(&mut rt, &ps, hybrid.params(), 1),
        ];
        for result in results {
            match result {
                Err(EmbedError::SeparationViolated {
                    p: 0, q: 1, dist, ..
                }) => {
                    assert_eq!(dist, 1e-320);
                }
                other => panic!("expected points 0 and 1 to violate separation, got {other:?}"),
            }
        }
    }

    #[test]
    fn embedding_is_deterministic_in_seed() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params.clone());
        let a = e.embed(&ps, 7).unwrap();
        let b = e.embed(&ps, 7).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(a.tree_distance(i, j), b.tree_distance(i, j));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params);
        let a = e.embed(&ps, 1).unwrap();
        let b = e.embed(&ps, 2).unwrap();
        let mut differs = false;
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                if (a.tree_distance(i, j) - b.tree_distance(i, j)).abs() > 1e-12 {
                    differs = true;
                }
            }
        }
        assert!(differs, "independent draws should differ somewhere");
    }

    #[test]
    fn parallel_embedding_is_identical_to_sequential() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params);
        let seq = e.embed(&ps, 21).unwrap();
        let par = e.embed_parallel(&ps, 21, 8).unwrap();
        assert_eq!(seq.tree.num_nodes(), par.tree.num_nodes());
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert_eq!(
                    seq.tree_distance(i, j),
                    par.tree_distance(i, j),
                    "({i},{j})"
                );
            }
        }
    }

    /// Test oracle: the hierarchy grouped by materialized
    /// `LevelAssignment`s (Algorithm 1 read literally).
    fn materialized_tree(e: &SeqEmbedder, ps: &PointSet, seed: u64) -> Hst {
        let padded = ps.zero_pad(e.params.dim);
        let levels = e.build_levels(seed);
        build_hierarchy(padded.len(), e.params.schedule(), |level, p| {
            Ok(levels[level].assign(padded.point(p)).expect("covered"))
        })
        .unwrap()
    }

    #[test]
    fn node_id_grouping_matches_materialized_assignments() {
        let mut clustered = generators::gaussian_clusters(60, 8, 3, 4.0, 512, 6);
        for i in 0..10 {
            let dup = clustered.point(i * 5).to_vec();
            clustered.push(&dup);
        }
        for ps in [small_set(), clustered] {
            let e = SeqEmbedder::new(HybridParams::for_dataset(&ps, 4).unwrap());
            for seed in [1u64, 7, 42] {
                let tree = e.embed(&ps, seed).unwrap().tree;
                // Debug prints every node's parent, children, point and
                // exact weight, so equal strings mean identical trees.
                assert_eq!(
                    format!("{tree:?}"),
                    format!("{:?}", materialized_tree(&e, &ps, seed)),
                    "seed {seed}"
                );
            }
        }
    }

    /// Asserts that `err` names a point's first uncovered (level,
    /// bucket) under `levels`.
    fn assert_first_uncovered(levels: &[HybridLevel], ps: &PointSet, err: &EmbedError) {
        let &EmbedError::CoverageFailure {
            level,
            bucket,
            point,
        } = err
        else {
            panic!("expected a coverage failure, got {err:?}");
        };
        let p = ps.point(point);
        for lvl in &levels[..level] {
            assert!(
                lvl.assign(p).is_some(),
                "point {point} covered above {level}"
            );
        }
        let m = levels[level].bucket_dim();
        let covers = |j: usize| {
            levels[level].sequences()[j]
                .assign(&p[j * m..(j + 1) * m])
                .is_some()
        };
        assert!((0..bucket).all(covers), "an earlier bucket fails too");
        assert!(!covers(bucket), "bucket {bucket} covers point {point}");
    }

    #[test]
    fn coverage_failure_names_first_uncovered_bucket() {
        let ps = small_set();
        let mut params = HybridParams::for_dataset(&ps, 4).unwrap();
        params.grids_per_bucket = 1;
        let e = SeqEmbedder::new(params);
        let levels = e.build_levels(3);
        let padded = ps.zero_pad(e.params.dim);
        let err = e.embed(&ps, 3).unwrap_err();
        assert_first_uncovered(&levels, &padded, &err);
        let par = e.embed_parallel(&ps, 3, 4).unwrap_err();
        assert_eq!(par, err);
        let mut rt = treeemb_mpc::Runtime::builder()
            .config(treeemb_mpc::MpcConfig::explicit(1 << 16, 1 << 15, 8).with_threads(2))
            .build();
        let mpc = crate::mpc_embed::embed_mpc(&mut rt, &ps, e.params(), 3).unwrap_err();
        assert_first_uncovered(&levels, &padded, &mpc);
    }

    #[test]
    fn duplicates_land_at_distance_zero() {
        let mut rows = vec![vec![5.0, 5.0], vec![5.0, 5.0]];
        rows.push(vec![200.0, 200.0]);
        let ps = PointSet::from_rows(&rows);
        let params = HybridParams::for_dataset(&ps, 2).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 9).unwrap();
        assert_eq!(emb.tree_distance(0, 1), 0.0);
        assert!(emb.tree_distance(0, 2) > 0.0);
    }

    #[test]
    fn singleton_input_embeds_to_single_leaf() {
        let ps = PointSet::from_rows(&[vec![3.0, 4.0]]);
        let params = HybridParams::for_dataset(&ps, 2).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 1).unwrap();
        assert_eq!(emb.tree.num_points(), 1);
        assert_eq!(emb.tree_distance(0, 0), 0.0);
    }

    #[test]
    fn tree_distance_bounded_by_diameter_scale() {
        // dist_T <= 2 * tail(0) = 4 sqrt(r) w_0 for every pair.
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let cap = 2.0 * params.schedule().tail_weight(0);
        let emb = SeqEmbedder::new(params).embed(&ps, 13).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert!(emb.tree_distance(i, j) <= cap * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn expected_distortion_is_moderate_on_small_sets() {
        // Average over seeds: E[dist_T]/dist should be far below the
        // deterministic worst case.
        let ps = generators::uniform_cube(16, 8, 128, 3);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params);
        let trees: Vec<_> = (0..12).map(|s| e.embed(&ps, s).unwrap()).collect();
        let mut worst: f64 = 0.0;
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let euclid = metrics::dist(ps.point(i), ps.point(j));
                let mean_t: f64 =
                    trees.iter().map(|t| t.tree_distance(i, j)).sum::<f64>() / trees.len() as f64;
                worst = worst.max(mean_t / euclid);
            }
        }
        // d = 8, r = 4, logΔ ~ 12: the Theorem-2 bound ~ sqrt(32)*12 ~ 68;
        // empirically far smaller. Guard loosely against regressions.
        assert!(worst < 60.0, "expected distortion {worst}");
    }
}
