//! Tree-embedding-guided approximate Euclidean MST (Corollary 1(2)).
//!
//! An MST under the tree metric is immediate: within every internal
//! node, stitch its children's clusters together through representative
//! leaves (any spanning structure over the children is optimal up to a
//! factor 2 in the tree metric, since all cross-child distances through
//! the node are equal up to leaf depths). We price the chosen edges in
//! *Euclidean* space, so the result is a genuine spanning tree of the
//! input whose expected cost is within the embedding's distortion of
//! the true MST.

use crate::exact::prim::SpanningTree;
use treeemb_core::seq::Embedding;
use treeemb_geom::metrics::dist;
use treeemb_geom::PointSet;

/// Builds the tree-guided spanning tree and prices it in Euclidean
/// space.
///
/// # Panics
/// Panics if the embedding and point set disagree on cardinality.
pub fn tree_mst(emb: &Embedding, ps: &PointSet) -> SpanningTree {
    let t = &emb.tree;
    assert_eq!(t.num_points(), ps.len(), "embedding/point-set mismatch");
    let reps = t.subtree_representatives();
    let mut edges = Vec::with_capacity(ps.len().saturating_sub(1));
    let mut cost = 0.0;
    for id in t.node_ids() {
        let children = t.children(id);
        if children.len() < 2 {
            continue;
        }
        // Chain consecutive child representatives.
        let child_reps: Vec<usize> = children.iter().filter_map(|&c| reps[c]).collect();
        for pair in child_reps.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            edges.push((a, b));
            cost += dist(ps.point(a), ps.point(b));
        }
    }
    SpanningTree { edges, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::prim;
    use treeemb_core::params::HybridParams;
    use treeemb_core::seq::SeqEmbedder;
    use treeemb_geom::generators;

    fn embed(ps: &PointSet, seed: u64) -> Embedding {
        let params = HybridParams::for_dataset(ps, 4).unwrap();
        SeqEmbedder::new(params).embed(ps, seed).unwrap()
    }

    #[test]
    fn produces_a_spanning_tree() {
        let ps = generators::uniform_cube(50, 8, 512, 3);
        let emb = embed(&ps, 1);
        let st = tree_mst(&emb, &ps);
        assert!(prim::is_spanning_tree(50, &st.edges), "not a spanning tree");
    }

    #[test]
    fn cost_at_least_exact_mst() {
        let ps = generators::uniform_cube(40, 8, 512, 5);
        let emb = embed(&ps, 2);
        let approx = tree_mst(&emb, &ps);
        let exact = prim::mst(&ps);
        assert!(approx.cost >= exact.cost * (1.0 - 1e-9));
    }

    #[test]
    fn approximation_ratio_is_moderate() {
        let ps = generators::gaussian_clusters(60, 8, 4, 3.0, 1 << 10, 7);
        let emb = embed(&ps, 3);
        let approx = tree_mst(&emb, &ps);
        let exact = prim::mst(&ps);
        let ratio = approx.cost / exact.cost;
        // Theorem-2 distortion bound here is O(sqrt(d*r) logΔ) ~ 60; in
        // practice the ratio is small. Loose regression guard:
        assert!(ratio < 10.0, "MST ratio {ratio}");
    }

    #[test]
    fn euclidean_cost_below_tree_metric_cost() {
        let ps = generators::uniform_cube(30, 8, 256, 9);
        let emb = embed(&ps, 4);
        let st = tree_mst(&emb, &ps);
        // Domination prices every chosen edge at least as high in the tree.
        let tree_cost: f64 = st.edges.iter().map(|&(a, b)| emb.tree_distance(a, b)).sum();
        assert!(st.cost <= tree_cost * (1.0 + 1e-9));
    }

    #[test]
    fn two_points_connect_directly() {
        let ps = PointSet::from_rows(&[vec![1.0, 1.0], vec![50.0, 80.0]]);
        let emb = embed(&ps, 5);
        let st = tree_mst(&emb, &ps);
        assert_eq!(st.edges.len(), 1);
        let direct = treeemb_geom::metrics::dist(ps.point(0), ps.point(1));
        assert!((st.cost - direct).abs() < 1e-9);
    }
}
