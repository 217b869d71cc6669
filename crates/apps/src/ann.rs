//! Approximate nearest neighbors through the hierarchy — closing the
//! loop with Ailon–Chazelle, whose FJLT paper (the paper's \[2\],
//! *"Approximate nearest neighbors and the fast Johnson–Lindenstrauss
//! transform"*) built the transform *for* ANN.
//!
//! The index stores, per level, a map from partition-chain hashes to a
//! representative point. A query point is assigned through the *same*
//! seeded hybrid partitionings and the same node ids as the embedders
//! ([`for_each_node_id`]); the deepest level whose chain matches an
//! indexed chain yields the answer. Points that share a partition at
//! scale `w` are within `2√r·w`, and a true nearest neighbor at
//! distance `δ` stays un-separated from the query down to scale
//! `w ≈ δ·√d` in expectation — so the returned point is an
//! `O(E[distortion])`-approximate nearest neighbor, in `O(logΔ)` query
//! time (hash probes), independent of `n`.

use std::collections::HashMap;
use treeemb_core::error::EmbedError;
use treeemb_core::params::HybridParams;
use treeemb_core::seq::SeqEmbedder;
use treeemb_geom::metrics::dist;
use treeemb_geom::PointSet;
use treeemb_partition::ids::StructuralHash;
use treeemb_partition::{for_each_node_id, HybridLevel};

/// A tree-embedding-backed approximate-nearest-neighbor index.
pub struct AnnIndex {
    levels: Vec<HybridLevel>,
    /// Per level: chain hash → representative point id (the first point
    /// indexed into that cluster).
    chains: Vec<HashMap<u64, usize>>,
    /// Dimension of the indexed points, which every query must match.
    orig_dim: usize,
    /// Working (padded) dimension.
    dim: usize,
    /// Number of indexed points.
    len: usize,
    /// Any point id, the fallback when nothing matches at any level.
    fallback: usize,
}

impl AnnIndex {
    /// Builds the index over `ps` with an existing hybrid schedule and
    /// seed (the same derivation as [`SeqEmbedder`], so an index and an
    /// embedding built with equal parameters see identical partitions).
    ///
    /// Fails on an empty set or one whose dimension is not the
    /// schedule's `orig_dim`.
    pub fn build(ps: &PointSet, params: &HybridParams, seed: u64) -> Result<Self, EmbedError> {
        if ps.is_empty() {
            return Err(EmbedError::EmptyInput);
        }
        check_dim(params.orig_dim, ps.dim())?;
        let padded = ps.zero_pad(params.dim);
        let levels = SeqEmbedder::new(params.clone()).build_levels(seed);
        let mut chains: Vec<HashMap<u64, usize>> = vec![HashMap::new(); levels.len()];
        for p in 0..padded.len() {
            for_each_node_id(&levels, padded.point(p), |level, id| {
                chains[level].entry(id).or_insert(p);
            })
            .map_err(|(level, bucket)| EmbedError::CoverageFailure {
                level,
                bucket,
                point: p,
            })?;
        }
        Ok(Self {
            levels,
            chains,
            orig_dim: params.orig_dim,
            dim: params.dim,
            len: ps.len(),
            fallback: 0,
        })
    }

    /// Number of levels probed per query.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Returns an approximate nearest neighbor of `q` (point id into the
    /// indexed set): the representative of the deepest cluster whose
    /// partition chain `q` shares. `O(logΔ)` hash probes.
    ///
    /// `q` is zero-padded like the indexed points. Fails unless it has
    /// the indexed points' dimension and finite coordinates.
    pub fn query(&self, q: &[f64]) -> Result<usize, EmbedError> {
        check_query(q, self.orig_dim)?;
        let mut padded = q.to_vec();
        padded.resize(self.dim, 0.0);
        let mut chain = StructuralHash::root();
        let mut best = self.fallback;
        // The step of `for_each_node_id`, taken one level at a time so
        // the walk stops at the first level the index has never seen.
        for (li, lvl) in self.levels.iter().enumerate() {
            let Ok(next) = lvl.absorb_assignment_into(&padded, chain.absorb(li as u64)) else {
                break; // query fell outside coverage at this level
            };
            chain = next;
            match self.chains[li].get(&chain.value()) {
                Some(&rep) => best = rep,
                None => break, // chain diverged from every indexed point
            }
        }
        Ok(best)
    }

    /// Best-of-`k` query over independently seeded indices, the standard
    /// variance reduction: build several indices (different seeds) over
    /// `ps` and return the candidate closest to `q` in true Euclidean
    /// distance.
    ///
    /// Fails on an empty `indices`, on an index built over a different
    /// number of points than `ps` holds, on a `ps` whose dimension is not
    /// the query's, and wherever [`AnnIndex::query`] would.
    pub fn query_best_of(
        indices: &[AnnIndex],
        ps: &PointSet,
        q: &[f64],
    ) -> Result<usize, EmbedError> {
        if indices.is_empty() {
            return Err(EmbedError::InvalidConfig {
                field: "indices",
                value: "[]".into(),
                expected: "at least one index".into(),
            });
        }
        if let Some(ix) = indices.iter().find(|ix| ix.len != ps.len()) {
            return Err(EmbedError::InvalidConfig {
                field: "ps",
                value: format!("{} points", ps.len()),
                expected: format!("the {} points the index was built over", ix.len),
            });
        }
        let candidates = indices
            .iter()
            .map(|ix| ix.query(q))
            .collect::<Result<Vec<_>, _>>()?;
        nearest(ps, q, candidates)
    }
}

/// Exact nearest neighbor by linear scan (baseline). Fails on an empty
/// set, a non-finite point, or a query of another dimension or with a
/// non-finite coordinate.
pub fn exact_nearest(ps: &PointSet, q: &[f64]) -> Result<usize, EmbedError> {
    if let Some(point) = ps.iter().position(|p| p.iter().any(|x| !x.is_finite())) {
        return Err(EmbedError::NonFiniteInput { point });
    }
    nearest(ps, q, 0..ps.len())
}

/// The candidate in `ids` (points of `ps`, assumed finite) nearest to
/// `q`, the first on ties.
fn nearest(
    ps: &PointSet,
    q: &[f64],
    ids: impl IntoIterator<Item = usize>,
) -> Result<usize, EmbedError> {
    check_query(q, ps.dim())?;
    ids.into_iter()
        .map(|p| (dist(ps.point(p), q), p))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, p)| p)
        .ok_or(EmbedError::EmptyInput)
}

/// Rejects a query of another dimension than `dim` or with a non-finite
/// coordinate.
fn check_query(q: &[f64], dim: usize) -> Result<(), EmbedError> {
    check_dim(dim, q.len())?;
    if q.iter().any(|x| !x.is_finite()) {
        return Err(EmbedError::NonFiniteQuery);
    }
    Ok(())
}

fn check_dim(expected: usize, found: usize) -> Result<(), EmbedError> {
    if found != expected {
        return Err(EmbedError::DimensionMismatch { expected, found });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_geom::generators;

    fn build_index(ps: &PointSet, seed: u64) -> AnnIndex {
        let params = HybridParams::for_dataset(ps, 4).unwrap();
        AnnIndex::build(ps, &params, seed).unwrap()
    }

    #[test]
    fn indexed_points_find_themselves() {
        let ps = generators::uniform_cube(60, 8, 1 << 10, 3);
        let ix = build_index(&ps, 1);
        for p in 0..ps.len() {
            let hit = ix.query(ps.point(p)).unwrap();
            // Exact duplicates may shadow each other; distance must be 0.
            assert_eq!(
                treeemb_geom::metrics::dist(ps.point(hit), ps.point(p)),
                0.0,
                "point {p} found {hit}"
            );
        }
    }

    #[test]
    fn query_near_a_point_returns_something_close() {
        let ps = generators::gaussian_clusters(80, 8, 4, 3.0, 1 << 10, 5);
        let indices: Vec<AnnIndex> = (0..5).map(|s| build_index(&ps, 100 + s)).collect();
        let mut ratios = Vec::new();
        for t in 0..30 {
            // Perturb an indexed point slightly.
            let base = ps.point(t).to_vec();
            let q: Vec<f64> = base.iter().map(|x| x + 0.4).collect();
            let approx = AnnIndex::query_best_of(&indices, &ps, &q).unwrap();
            let exact = exact_nearest(&ps, &q).unwrap();
            let ra = dist(ps.point(approx), &q);
            let re = dist(ps.point(exact), &q).max(1e-9);
            ratios.push(ra / re);
        }
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 8.0, "mean ANN ratio {mean}");
        // Most queries should be answered near-exactly.
        let good = ratios.iter().filter(|&&r| r < 2.0).count();
        assert!(
            good * 2 >= ratios.len(),
            "only {good}/{} within 2x",
            ratios.len()
        );
    }

    #[test]
    fn far_query_still_returns_a_valid_id() {
        let ps = generators::uniform_cube(20, 8, 256, 7);
        let ix = build_index(&ps, 2);
        let q = vec![1e6; 8];
        let hit = ix.query(&q).unwrap();
        assert!(hit < ps.len());
    }

    #[test]
    fn exact_nearest_baseline_is_correct() {
        let ps = PointSet::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 3.0]]);
        assert_eq!(exact_nearest(&ps, &[0.0, 2.0]), Ok(2));
        assert_eq!(exact_nearest(&ps, &[9.0, 0.0]), Ok(1));
    }

    #[test]
    fn coverage_failure_names_first_uncovered_bucket() {
        let ps = generators::uniform_cube(40, 8, 256, 11);
        let mut params = HybridParams::for_dataset(&ps, 4).unwrap();
        params.grids_per_bucket = 1;
        let Err(err) = AnnIndex::build(&ps, &params, 3) else {
            panic!("one grid per bucket must leave a point uncovered");
        };
        let EmbedError::CoverageFailure {
            level,
            bucket,
            point,
        } = err
        else {
            panic!("expected a coverage failure, got {err:?}");
        };
        let levels = SeqEmbedder::new(params.clone()).build_levels(3);
        let p = ps.zero_pad(params.dim).point(point).to_vec();
        assert!(levels[..level].iter().all(|l| l.assign(&p).is_some()));
        let m = levels[level].bucket_dim();
        let covers = |j: usize| {
            levels[level].sequences()[j]
                .assign(&p[j * m..(j + 1) * m])
                .is_some()
        };
        assert!((0..bucket).all(covers) && !covers(bucket));
        // Both walk points in id order, so they report the same failure.
        assert_eq!(SeqEmbedder::new(params).embed(&ps, 3).unwrap_err(), err);
    }

    #[test]
    fn query_time_is_independent_of_n_probes() {
        // Structural check: levels probed equals the schedule length.
        let ps = generators::uniform_cube(100, 8, 1 << 10, 9);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let ix = AnnIndex::build(&ps, &params, 4).unwrap();
        assert_eq!(ix.num_levels(), params.num_levels());
    }

    #[test]
    fn wrong_length_queries_are_rejected() {
        // 6 coordinates padded to 8 for r = 4: a query of the padded
        // length would hash its padding as data, a shorter one would be
        // zero-filled and a longer one truncated.
        let ps = generators::uniform_cube(30, 6, 256, 13);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        assert_eq!((params.orig_dim, params.dim), (6, 8));
        let ix = AnnIndex::build(&ps, &params, 1).unwrap();
        let q = ps.point(0);
        for len in [5usize, 7, 8, 9] {
            let mut wrong = q.to_vec();
            wrong.resize(len, 0.0);
            let want = Err(EmbedError::DimensionMismatch {
                expected: 6,
                found: len,
            });
            assert_eq!(ix.query(&wrong), want, "len {len}");
            let ensemble = std::slice::from_ref(&ix);
            assert_eq!(AnnIndex::query_best_of(ensemble, &ps, &wrong), want);
            assert_eq!(exact_nearest(&ps, &wrong), want, "len {len}");
        }
        assert!(ix.query(q).is_ok());
        let narrow = PointSet::from_rows(&[vec![0.0; 5]]);
        assert_eq!(
            AnnIndex::build(&narrow, &params, 1).err(),
            Some(EmbedError::DimensionMismatch {
                expected: 6,
                found: 5
            })
        );
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let ps = generators::uniform_cube(20, 4, 64, 3);
        let q = ps.point(0).to_vec();
        let empty = PointSet::new(4);
        assert_eq!(exact_nearest(&empty, &q), Err(EmbedError::EmptyInput));
        assert_eq!(
            AnnIndex::build(&empty, &HybridParams::for_dataset(&ps, 4).unwrap(), 1).err(),
            Some(EmbedError::EmptyInput)
        );
        assert!(matches!(
            AnnIndex::query_best_of(&[], &ps, &q),
            Err(EmbedError::InvalidConfig {
                field: "indices",
                ..
            })
        ));
        // An index used with a set it was not built over.
        let ix = build_index(&ps, 5);
        let fewer = PointSet::from_rows(std::slice::from_ref(&q));
        assert!(matches!(
            AnnIndex::query_best_of(&[ix], &fewer, &q),
            Err(EmbedError::InvalidConfig { field: "ps", .. })
        ));
    }

    #[test]
    fn non_finite_queries_are_rejected() {
        let ps = generators::uniform_cube(20, 4, 64, 3);
        let ix = build_index(&ps, 5);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut q = ps.point(1).to_vec();
            q[2] = bad;
            assert_eq!(ix.query(&q), Err(EmbedError::NonFiniteQuery));
            let ensemble = std::slice::from_ref(&ix);
            let best = AnnIndex::query_best_of(ensemble, &ps, &q);
            assert_eq!(best, Err(EmbedError::NonFiniteQuery));
            assert_eq!(exact_nearest(&ps, &q), Err(EmbedError::NonFiniteQuery));
        }
        let mut rows: Vec<Vec<f64>> = ps.iter().map(<[f64]>::to_vec).collect();
        rows[3][0] = f64::NAN;
        let nan_set = PointSet::from_rows(&rows);
        assert_eq!(
            exact_nearest(&nan_set, ps.point(0)),
            Err(EmbedError::NonFiniteInput { point: 3 })
        );
    }
}
