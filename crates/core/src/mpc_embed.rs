//! Algorithm 2: the fully scalable MPC tree embedding.
//!
//! Steps (paper §4):
//!
//! 1. *(single machine)* generate the grids for every (level, bucket)
//!    and **broadcast** them — their total size is what Lemma 8 bounds;
//! 2. distribute points across machines;
//! 3. *(parallel, no communication)* every machine computes, for each of
//!    its points, the point's entire root-to-leaf path: the chain of
//!    hybrid-partition assignments level by level, hashed into stable
//!    node ids so machines agree on shared nodes without talking;
//! 4. deduplicate the emitted edges by node id (one shuffle round) and
//!    assemble the output tree.
//!
//! With the same seed this produces exactly the same partition chains as
//! [`crate::seq::SeqEmbedder`], hence the same tree metric (the
//! sequential tree truncates singleton chains; the weights are arranged
//! so truncation preserves distances — tested below).

use crate::error::EmbedError;
use crate::params::HybridParams;
use crate::seq::{check_separation, Embedding, SeqEmbedder};
use std::sync::Arc;
use treeemb_geom::PointSet;
use treeemb_hst::builder::{from_edge_list, EdgeRec};
use treeemb_mpc::primitives::{aggregate, broadcast, shuffle};
use treeemb_mpc::{Runtime, Words};
use treeemb_partition::ids::StructuralHash;
use treeemb_partition::{for_each_node_id, HybridLevel};

/// A point in transit: id + padded coordinates.
#[derive(Debug, Clone)]
struct PointRec {
    id: u32,
    coords: Vec<f64>,
}

impl Words for PointRec {
    fn words(&self) -> usize {
        1 + self.coords.len()
    }
}

/// A computed path or a failure marker produced by step 3.
#[derive(Debug, Clone)]
enum PathOrFail {
    /// The point's full root-to-leaf path.
    Path(PointPath),
    /// Coverage failure for a point at a level/bucket.
    Fail { point: u32, level: u32, bucket: u32 },
}

/// Wire form of a tree edge.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EdgeMsg {
    node: u64,
    parent: u64,
    weight: f64,
    /// `u64::MAX` = internal node; otherwise the leaf's point id.
    point: u64,
}

impl Words for PathOrFail {
    fn words(&self) -> usize {
        match self {
            PathOrFail::Path(p) => p.words(),
            PathOrFail::Fail { .. } => 2,
        }
    }
}

/// Key of the root node in the structural-hash space.
pub fn root_key() -> u64 {
    StructuralHash::root().value()
}

/// A point's root-to-leaf path in the distributed tree: the node ids and
/// edge weights Algorithm 2's machines compute locally. This is the
/// representation the constant-round MPC applications consume
/// (`treeemb-apps::mpc`): every tree query they need reduces to
/// group-by-node-id folds over path elements.
#[derive(Debug, Clone, PartialEq)]
pub struct PointPath {
    /// The point this path belongs to.
    pub point: u32,
    /// `(node id, weight of edge to parent, level)` from the first
    /// level below the root down to the last partitioning level. The
    /// leaf (weight 0) is *not* included; `point` identifies it.
    pub nodes: Vec<(u64, f64, u32)>,
}

impl Words for PointPath {
    fn words(&self) -> usize {
        2 + 3 * self.nodes.len()
    }
}

impl PointPath {
    /// Tree-metric distance between two points computed directly from
    /// their paths: the weights past the longest common node-id prefix,
    /// summed on both sides (plus zero-weight leaves). Identical to
    /// `Hst::distance` on the assembled tree.
    pub fn distance(&self, other: &PointPath) -> f64 {
        if self.point == other.point {
            return 0.0;
        }
        let mut k = 0usize;
        while k < self.nodes.len() && k < other.nodes.len() && self.nodes[k].0 == other.nodes[k].0 {
            k += 1;
        }
        let tail = |p: &PointPath| p.nodes[k..].iter().map(|&(_, w, _)| w).sum::<f64>();
        tail(self) + tail(other)
    }
}

/// Result of [`embed_mpc_full`]: the assembled host-side tree plus the
/// still-distributed per-point paths.
pub struct MpcEmbedding {
    /// Host-side tree (as from [`embed_mpc`]).
    pub embedding: Embedding,
    /// Distributed root-to-leaf paths, one record per point.
    pub paths: treeemb_mpc::Dist<PointPath>,
}

/// Embeds `ps` (post-dimension-reduction; `ps.dim()` should be
/// `O(log n)`) on the simulated cluster. Thin wrapper over
/// [`embed_mpc_full`] for callers that only need the tree.
pub fn embed_mpc(
    rt: &mut Runtime,
    ps: &PointSet,
    params: &HybridParams,
    seed: u64,
) -> Result<Embedding, EmbedError> {
    embed_mpc_full(rt, ps, params, seed).map(|full| full.embedding)
}

/// Algorithm 2 with the distributed paths kept alive for downstream
/// constant-round MPC applications.
pub fn embed_mpc_full(
    rt: &mut Runtime,
    ps: &PointSet,
    params: &HybridParams,
    seed: u64,
) -> Result<MpcEmbedding, EmbedError> {
    if ps.is_empty() {
        return Err(EmbedError::EmptyInput);
    }
    let _embed_sp = treeemb_obs::span!("embed.run", "n" = ps.len(), "levels" = params.num_levels());
    let padded = ps.zero_pad(params.dim);
    let n = padded.len();

    // Step 1: build grids once (machine 0's role) and broadcast their
    // raw shift vectors so Lemma 8's local-space claim is exercised.
    // Same derivation as the sequential embedder; each sequence fills its
    // shift blocks on first read, during the scan.
    let grids_sp = treeemb_obs::span!("embed.grids");
    let levels: Arc<Vec<HybridLevel>> =
        Arc::new(SeqEmbedder::new(params.clone()).build_levels(seed));
    // The broadcast is metered (rounds, loads, capacity, pinned
    // residency) without materializing M copies of the shift vectors;
    // machines read the grids through shared state, as real clusters
    // read their local copy.
    let grid_words: usize = levels.iter().map(HybridLevel::words).sum();
    broadcast::broadcast_accounted(rt, grid_words)?;
    drop(grids_sp);

    // Step 2: distribute the points.
    let load_sp = treeemb_obs::span!("embed.load");
    let recs: Vec<PointRec> = padded
        .iter()
        .enumerate()
        .map(|(id, p)| PointRec {
            id: id as u32,
            coords: p.to_vec(),
        })
        .collect();
    let dist = rt.distribute(recs)?;
    drop(load_sp);

    // Step 3: machine-local path construction.
    let paths_sp = treeemb_obs::span!("embed.paths");
    let levels_for_paths = Arc::clone(&levels);
    let params_paths = params.clone();
    let path_results = rt.map_local(dist, move |_, shard| {
        let schedule = params_paths.schedule();
        let mut out: Vec<PathOrFail> = Vec::with_capacity(shard.len());
        for rec in &shard {
            let mut nodes = Vec::with_capacity(levels_for_paths.len());
            let walked = for_each_node_id(&levels_for_paths, &rec.coords, |level, id| {
                nodes.push((id, schedule.edge_weight(level), level as u32));
            });
            out.push(match walked {
                Ok(()) => PathOrFail::Path(PointPath {
                    point: rec.id,
                    nodes,
                }),
                Err((level, bucket)) => PathOrFail::Fail {
                    point: rec.id,
                    level: level as u32,
                    bucket: bucket as u32,
                },
            });
        }
        out
    })?;

    // Surface coverage failures (distributed max over a failure flag —
    // one aggregation tree, O(1) rounds). The key holds `!point`, so the
    // maximum names the smallest failing point id, the one the
    // sequential embedder reports.
    let failure = aggregate::max_by(rt, &path_results, |r| match r {
        PathOrFail::Fail {
            point,
            level,
            bucket,
        } => Some((1u64, !u64::from(*point), *level as u64, *bucket as u64)),
        PathOrFail::Path(_) => None,
    })?
    .flatten();
    if let Some((_, point, level, bucket)) = failure {
        return Err(EmbedError::CoverageFailure {
            level: level as usize,
            bucket: bucket as usize,
            point: !point as usize,
        });
    }
    let paths = rt.map_local(path_results, |_, shard| {
        shard
            .into_iter()
            .filter_map(|r| match r {
                PathOrFail::Path(p) => Some(p),
                PathOrFail::Fail { .. } => None,
            })
            .collect::<Vec<PointPath>>()
    })?;
    drop(paths_sp);

    // Step 4: derive the edge list from paths, deduplicate by node id,
    // gather, assemble. (Paths themselves stay distributed for the
    // applications.)
    let edges_sp = treeemb_obs::span!("embed.edges");
    let edges_only = rt.map_local(paths.clone(), |_, shard| {
        let mut out: Vec<EdgeMsg> = Vec::with_capacity(shard.len() * 4);
        for path in &shard {
            out.push(EdgeMsg {
                node: root_key(),
                parent: root_key(),
                weight: 0.0,
                point: u64::MAX,
            });
            let mut parent = root_key();
            for &(node, weight, _level) in &path.nodes {
                out.push(EdgeMsg {
                    node,
                    parent,
                    weight,
                    point: u64::MAX,
                });
                parent = node;
            }
            out.push(EdgeMsg {
                node: leaf_key(parent, path.point),
                parent,
                weight: 0.0,
                point: path.point as u64,
            });
        }
        out
    })?;
    let deduped = shuffle::dedup_by_key(rt, edges_only, |e| e.node)?;
    drop(edges_sp);
    let _assemble_sp = treeemb_obs::span!("embed.assemble");
    let gathered = rt.gather(deduped);
    let edge_recs: Vec<EdgeRec> = gathered
        .into_iter()
        .map(|e| EdgeRec {
            node: e.node,
            parent: e.parent,
            weight: e.weight,
            point: if e.point == u64::MAX {
                None
            } else {
                Some(e.point as usize)
            },
        })
        .collect();
    let tree =
        from_edge_list(&edge_recs, n).map_err(|e| EmbedError::TreeAssembly(e.to_string()))?;
    check_separation(&tree, ps, params.schedule().resolved_separation())?;
    Ok(MpcEmbedding {
        embedding: Embedding {
            tree,
            method: "hybrid-mpc",
            seed,
        },
        paths,
    })
}

/// Leaf node id of `point` whose chain ends at `chain_end` (the same
/// derivation machines use, so it can be recomputed anywhere).
pub fn leaf_key(chain_end: u64, point: u32) -> u64 {
    StructuralHash(chain_end)
        .absorb(0x1EAF)
        .absorb(point as u64)
        .value()
}

impl Words for EdgeMsg {
    fn words(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqEmbedder;
    use treeemb_geom::{generators, metrics};
    use treeemb_mpc::MpcConfig;

    fn runtime(cap: usize, machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(1 << 16, cap, machines).with_threads(4))
            .build()
    }

    #[test]
    fn mpc_tree_metric_equals_sequential() {
        let ps = generators::uniform_cube(30, 8, 256, 21);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let seed = 5;
        let seq = SeqEmbedder::new(params.clone()).embed(&ps, seed).unwrap();
        let mut rt = runtime(1 << 15, 8);
        let par = embed_mpc(&mut rt, &ps, &params, seed).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let a = seq.tree_distance(i, j);
                let b = par.tree_distance(i, j);
                assert!(
                    (a - b).abs() < 1e-9 * (1.0 + a),
                    "pair ({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn metric_identical_across_machine_counts() {
        let ps = generators::uniform_cube(20, 8, 128, 8);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let mut rt1 = runtime(1 << 15, 1);
        let mut rt8 = runtime(1 << 15, 13);
        let a = embed_mpc(&mut rt1, &ps, &params, 3).unwrap();
        let b = embed_mpc(&mut rt8, &ps, &params, 3).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert!((a.tree_distance(i, j) - b.tree_distance(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn round_count_constant_in_n() {
        let params_of = |ps: &PointSet| HybridParams::for_dataset(ps, 4).unwrap();
        let mut rounds = Vec::new();
        for n in [16usize, 64] {
            let ps = generators::uniform_cube(n, 8, 256, 2);
            let mut rt = runtime(1 << 15, 8);
            let _ = embed_mpc(&mut rt, &ps, &params_of(&ps), 1).unwrap();
            rounds.push(rt.metrics().rounds());
        }
        assert_eq!(rounds[0], rounds[1], "rounds must not grow with n");
        assert!(rounds[0] <= 8, "rounds = {}", rounds[0]);
    }

    /// Exact duplicates share every level and land at distance 0 in
    /// both embedders, whatever their ids; the separation check passes
    /// them.
    #[test]
    fn duplicates_get_distinct_leaves() {
        let rows = [
            [9.0, 9.0],
            [100.0, 50.0],
            [9.0, 9.0],
            [40.0, 1.0],
            [9.0, 9.0],
            [40.0, 1.0],
        ];
        let ps = PointSet::from_rows(&rows.map(|r| r.to_vec()));
        let params = HybridParams::for_dataset(&ps, 2).unwrap();
        let seq = SeqEmbedder::new(params.clone()).embed(&ps, 7).unwrap();
        let mpc = embed_mpc(&mut runtime(1 << 14, 4), &ps, &params, 7).unwrap();
        for emb in [&seq, &mpc] {
            assert_eq!(emb.tree.num_points(), 6);
            for (i, j) in [(0, 2), (0, 4), (2, 4), (3, 5)] {
                assert_eq!(emb.tree_distance(i, j), 0.0, "{} ({i}, {j})", emb.method);
            }
            assert!(emb.tree_distance(0, 1) > 0.0 && emb.tree_distance(0, 3) > 0.0);
        }
    }

    /// 64 collinear points 0.01 apart are finer than the schedule
    /// resolves: both embedders report the same pair, not a tree with
    /// distinct points at distance 0.
    #[test]
    fn seq_and_mpc_report_the_same_separation_violation() {
        let line: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i) * 0.01, 0.0]).collect();
        let ps = PointSet::from_rows(&line);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let seq = SeqEmbedder::new(params.clone()).embed(&ps, 7).unwrap_err();
        let mpc = embed_mpc(&mut runtime(1 << 15, 8), &ps, &params, 7).unwrap_err();
        assert_eq!(seq, mpc);
        let EmbedError::SeparationViolated {
            p,
            q,
            dist,
            min_sep,
        } = seq
        else {
            panic!("expected a separation error, got {seq}");
        };
        assert!(p < q && dist == metrics::dist(ps.point(p), ps.point(q)));
        assert!(
            dist > 0.0 && dist <= min_sep,
            "dist {dist} min_sep {min_sep}"
        );
    }

    /// With one grid per bucket almost every point goes uncovered; both
    /// embedders must name the smallest such point and its first
    /// uncovered (level, bucket).
    #[test]
    fn seq_and_mpc_report_the_same_coverage_failure() {
        let ps = generators::uniform_cube(48, 8, 64, 3);
        let mut params = HybridParams::for_dataset(&ps, 1).unwrap();
        params.grids_per_bucket = 1;
        let levels = SeqEmbedder::new(params.clone()).build_levels(5);
        let padded = ps.zero_pad(params.dim);
        let failing: Vec<usize> = (0..ps.len())
            .filter(|&i| for_each_node_id(&levels, padded.point(i), |_, _| {}).is_err())
            .collect();
        assert!(failing.len() > 1, "failing points {failing:?}");
        let seq = SeqEmbedder::new(params.clone()).embed(&ps, 5).unwrap_err();
        let mpc = embed_mpc(&mut runtime(1 << 15, 8), &ps, &params, 5).unwrap_err();
        assert_eq!(seq, mpc);
        let (level, bucket) =
            for_each_node_id(&levels, padded.point(failing[0]), |_, _| {}).unwrap_err();
        assert_eq!(
            seq,
            EmbedError::CoverageFailure {
                level,
                bucket,
                point: failing[0],
            }
        );
    }

    #[test]
    fn domination_holds_for_mpc_tree() {
        let ps = generators::gaussian_clusters(24, 8, 3, 4.0, 512, 6);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let mut rt = runtime(1 << 15, 6);
        let emb = embed_mpc(&mut rt, &ps, &params, 11).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = treeemb_geom::metrics::dist(ps.point(i), ps.point(j));
                assert!(emb.tree_distance(i, j) >= e * (1.0 - 1e-9));
            }
        }
    }

    #[test]
    fn grid_broadcast_is_metered() {
        let ps = generators::uniform_cube(16, 8, 128, 4);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let mut rt = runtime(1 << 15, 8);
        let _ = embed_mpc(&mut rt, &ps, &params, 1).unwrap();
        assert!(rt.metrics().rounds_labeled("broadcast") >= 1);
        // Broadcast volume at least (machines-1) * payload.
        assert!(rt.metrics().total_sent_words() >= 7 * params.total_grid_words() / 2);
    }

    #[test]
    fn compressed_mpc_tree_matches_sequential_size_and_metric() {
        let ps = generators::uniform_cube(30, 8, 256, 23);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let seq = SeqEmbedder::new(params.clone()).embed(&ps, 4).unwrap();
        let mut rt = runtime(1 << 15, 8);
        let par = embed_mpc(&mut rt, &ps, &params, 4).unwrap();
        let compressed = par.tree.compress();
        assert!(
            compressed.num_nodes() < par.tree.num_nodes(),
            "compression removed nothing ({} nodes)",
            par.tree.num_nodes()
        );
        // The sequential tree truncates chains but keeps a zero-weight
        // leaf merge point less often; sizes agree within 2x and the
        // metric exactly.
        assert!(compressed.num_nodes() <= 2 * seq.tree.num_nodes());
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let a = seq.tree_distance(i, j);
                let b = compressed.distance(i, j);
                assert!((a - b).abs() < 1e-9 * (1.0 + a), "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn paths_reproduce_the_tree_metric() {
        let ps = generators::uniform_cube(24, 8, 256, 17);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let mut rt = runtime(1 << 15, 6);
        let full = crate::mpc_embed::embed_mpc_full(&mut rt, &ps, &params, 5).unwrap();
        let paths = rt.gather(full.paths);
        assert_eq!(paths.len(), 24);
        let by_point: std::collections::HashMap<u32, &PointPath> =
            paths.iter().map(|p| (p.point, p)).collect();
        for i in 0..24u32 {
            for j in (i + 1)..24 {
                let from_paths = by_point[&i].distance(by_point[&j]);
                let from_tree = full.embedding.tree_distance(i as usize, j as usize);
                assert!(
                    (from_paths - from_tree).abs() < 1e-9 * (1.0 + from_tree),
                    "({i},{j}): {from_paths} vs {from_tree}"
                );
            }
        }
    }

    #[test]
    fn path_levels_are_sequential() {
        let ps = generators::uniform_cube(8, 8, 128, 19);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let mut rt = runtime(1 << 15, 2);
        let full = crate::mpc_embed::embed_mpc_full(&mut rt, &ps, &params, 1).unwrap();
        for path in rt.gather(full.paths) {
            assert_eq!(path.nodes.len(), params.num_levels());
            for (i, &(_, w, level)) in path.nodes.iter().enumerate() {
                assert_eq!(level as usize, i);
                assert!(w > 0.0);
            }
        }
    }

    #[test]
    fn too_small_capacity_reports_failure() {
        let ps = generators::uniform_cube(64, 8, 256, 4);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        // Capacity far below the grid payload: broadcast must fail.
        let mut rt = runtime(64, 8);
        let err = embed_mpc(&mut rt, &ps, &params, 1).unwrap_err();
        assert!(matches!(err, EmbedError::Mpc(_)), "{err:?}");
    }
}
