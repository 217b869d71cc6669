//! Bicriteria densest ball via the tree embedding (Corollary 1(1)).
//!
//! Given a target diameter `D`, the tree algorithm returns the heaviest
//! tree node whose subtree *tree*-diameter is at most `β·D`. By
//! domination the Euclidean diameter of the returned cluster is also at
//! most `β·D`; and because close points stay together in expectation,
//! the count is near-optimal — the paper's
//! `(1 − O(1/log log n), O(log^1.5 n))` bicriteria guarantee.

use treeemb_core::seq::Embedding;
use treeemb_hst::NodeId;

/// Result of the tree densest-ball query.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseCluster {
    /// The chosen tree node.
    pub node: NodeId,
    /// Number of points in its subtree.
    pub count: usize,
    /// Upper bound on the cluster's tree (hence Euclidean) diameter.
    pub tree_diameter_bound: f64,
    /// The cluster's point ids.
    pub points: Vec<usize>,
}

/// Finds the heaviest tree node whose subtree tree-diameter is at most
/// `max_tree_diameter` (callers typically pass `β·D` with `β` the
/// distortion they are willing to pay).
pub fn densest_cluster(emb: &Embedding, max_tree_diameter: f64) -> DenseCluster {
    let t = &emb.tree;
    // Height in weight: the max weight-path from the node down to a leaf.
    let mut down = vec![0.0f64; t.num_nodes()];
    for id in t.post_order() {
        let mut h: f64 = 0.0;
        for &c in t.children(id) {
            h = h.max(down[c] + t.node(c).weight_to_parent);
        }
        down[id] = h;
    }
    let counts = t.subtree_counts();
    let mut best: Option<(NodeId, usize, f64)> = None;
    for id in t.node_ids() {
        let diam = 2.0 * down[id];
        if diam <= max_tree_diameter {
            let better = match best {
                None => true,
                Some((_, c, bd)) => counts[id] > c || (counts[id] == c && diam < bd),
            };
            if better {
                best = Some((id, counts[id], diam));
            }
        }
    }
    let (node, count, diam) = best.expect("leaves always satisfy any non-negative diameter bound");
    DenseCluster {
        node,
        count,
        tree_diameter_bound: diam,
        points: t.subtree_points(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_core::params::HybridParams;
    use treeemb_core::seq::SeqEmbedder;
    use treeemb_geom::{generators, metrics, PointSet};

    fn embed(ps: &PointSet, r: usize, seed: u64) -> Embedding {
        let params = HybridParams::for_dataset(ps, r).unwrap();
        SeqEmbedder::new(params).embed(ps, seed).unwrap()
    }

    #[test]
    fn finds_a_cluster_with_bounded_euclidean_diameter() {
        let inst = generators::planted_ball(80, 8, 30, 12.0, 1 << 11, 3);
        let emb = embed(&inst.points, 4, 1);
        let result = densest_cluster(&emb, 12.0 * 12.0); // beta = 12
        let cluster = inst.points.select(&result.points);
        let diam = metrics::diameter(&cluster);
        assert!(
            diam <= result.tree_diameter_bound + 1e-9,
            "domination violated"
        );
        assert!(result.count >= 2, "found only a singleton");
    }

    #[test]
    fn recovers_most_of_a_well_separated_plant() {
        // A tight plant in a huge empty space: some level isolates it.
        // The guarantee is per random tree with constant probability, so
        // take the best recovery over a handful of seeds.
        let inst = generators::planted_ball(60, 8, 25, 8.0, 1 << 14, 5);
        let best = (1..=5)
            .map(|seed| {
                let emb = embed(&inst.points, 4, seed);
                // Generous beta (the paper allows O(log^1.5 n)).
                densest_cluster(&emb, 8.0 * 40.0).count
            })
            .max()
            .unwrap();
        assert!(
            best >= 20,
            "expected most of the 25 planted points, got {best}"
        );
    }

    #[test]
    fn zero_diameter_budget_returns_leafish_cluster() {
        let ps = generators::uniform_cube(20, 8, 256, 7);
        let emb = embed(&ps, 4, 3);
        let result = densest_cluster(&emb, 0.0);
        assert_eq!(result.count, 1);
    }

    #[test]
    fn larger_budget_never_shrinks_count() {
        let ps = generators::gaussian_clusters(50, 8, 3, 3.0, 1 << 10, 9);
        let emb = embed(&ps, 4, 4);
        let small = densest_cluster(&emb, 10.0).count;
        let large = densest_cluster(&emb, 1000.0).count;
        assert!(large >= small);
    }

    #[test]
    fn infinite_budget_returns_everything() {
        let ps = generators::uniform_cube(15, 8, 128, 11);
        let emb = embed(&ps, 4, 5);
        let result = densest_cluster(&emb, f64::INFINITY);
        assert_eq!(result.count, 15);
    }
}
