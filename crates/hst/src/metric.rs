//! The tree metric: `dist_T`, LCA, and pairwise audits.

use crate::tree::{Hst, NodeId, PointId};

impl Hst {
    /// Lowest common ancestor of two nodes (walk-up by depth; paths in
    /// our hierarchies have length `O(logΔ + log d)`, so this is cheap
    /// and needs no preprocessing).
    pub fn lca(&self, mut a: NodeId, mut b: NodeId) -> NodeId {
        while self.nodes[a].depth > self.nodes[b].depth {
            a = self.nodes[a].parent.expect("deeper node must have parent");
        }
        while self.nodes[b].depth > self.nodes[a].depth {
            b = self.nodes[b].parent.expect("deeper node must have parent");
        }
        while a != b {
            a = self.nodes[a].parent.expect("nodes share a root");
            b = self.nodes[b].parent.expect("nodes share a root");
        }
        a
    }

    /// Weight of the tree path between two nodes.
    pub fn node_distance(&self, a: NodeId, b: NodeId) -> f64 {
        let l = self.lca(a, b);
        let up = |mut x: NodeId| {
            let mut w = 0.0;
            while x != l {
                w += self.nodes[x].weight_to_parent;
                x = self.nodes[x].parent.expect("path to lca exists");
            }
            w
        };
        up(a) + up(b)
    }

    /// The tree metric between two input points:
    /// `dist_T(p, q) = node_distance(leaf(p), leaf(q))`.
    pub fn distance(&self, p: PointId, q: PointId) -> f64 {
        if p == q {
            return 0.0;
        }
        self.node_distance(self.leaf_of(p), self.leaf_of(q))
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::HstBuilder;
    use crate::Hst;

    fn fixture() -> Hst {
        let mut b = HstBuilder::new();
        let root = b.add_root();
        let a = b.add_child(root, 4.0, None);
        let bb = b.add_child(root, 4.0, None);
        b.add_child(a, 1.0, Some(0));
        b.add_child(a, 1.0, Some(1));
        b.add_child(bb, 1.0, Some(2));
        b.finish().unwrap()
    }

    #[test]
    fn sibling_leaves_meet_at_parent() {
        let t = fixture();
        assert_eq!(t.distance(0, 1), 2.0);
    }

    #[test]
    fn cross_subtree_path_passes_root() {
        let t = fixture();
        assert_eq!(t.distance(0, 2), 1.0 + 4.0 + 4.0 + 1.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let t = fixture();
        assert_eq!(t.distance(1, 1), 0.0);
    }

    #[test]
    fn lca_of_siblings_is_parent() {
        let t = fixture();
        let l = t.lca(t.leaf_of(0), t.leaf_of(1));
        assert_eq!(Some(l), t.parent(t.leaf_of(0)));
    }

    #[test]
    fn lca_with_ancestor_is_ancestor() {
        let t = fixture();
        let a = t.parent(t.leaf_of(0)).unwrap();
        assert_eq!(t.lca(t.leaf_of(0), a), a);
        assert_eq!(t.lca(t.root(), t.leaf_of(2)), t.root());
    }

    #[test]
    fn metric_axioms_on_fixture() {
        let t = fixture();
        let n = t.num_points();
        for i in 0..n {
            assert_eq!(t.distance(i, i), 0.0);
            for j in 0..n {
                assert_eq!(t.distance(i, j), t.distance(j, i), "symmetry");
                for k in 0..n {
                    assert!(
                        t.distance(i, k) <= t.distance(i, j) + t.distance(j, k) + 1e-12,
                        "triangle inequality"
                    );
                }
            }
        }
    }
}
