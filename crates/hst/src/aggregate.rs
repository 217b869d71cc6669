//! Subtree aggregates: bottom-up folds over the tree.
//!
//! The tree applications all reduce to per-node subtree statistics:
//! EMD needs `|A ∩ subtree| − |B ∩ subtree|`, densest ball needs point
//! counts per node, MST needs representatives per child cluster.

use crate::tree::{Hst, PointId};

impl Hst {
    /// Generic bottom-up subtree fold. `leaf_value(point)` seeds leaves
    /// carrying points; `merge` folds children into parents. Every node
    /// gets a value (internal nodes with no point start from
    /// `identity`).
    pub fn subtree_fold<A: Clone>(
        &self,
        identity: A,
        leaf_value: impl Fn(PointId) -> A,
        merge: impl Fn(&A, &A) -> A,
    ) -> Vec<A> {
        let mut acc: Vec<A> = vec![identity; self.num_nodes()];
        for id in self.post_order() {
            if let Some(p) = self.node(id).point {
                acc[id] = merge(&acc[id], &leaf_value(p));
            }
            if let Some(parent) = self.parent(id) {
                acc[parent] = merge(&acc[parent], &acc[id]);
            }
        }
        acc
    }

    /// Number of input points in each node's subtree.
    pub fn subtree_counts(&self) -> Vec<usize> {
        self.subtree_fold(0usize, |_| 1usize, |a, b| a + b)
    }

    /// Per-node weighted count for an arbitrary point weighting (e.g.
    /// +1 for multiset A, −1 for multiset B in the EMD flow).
    pub fn subtree_signed_counts(&self, weight_of: impl Fn(PointId) -> i64) -> Vec<i64> {
        self.subtree_fold(0i64, weight_of, |a, b| a + b)
    }

    /// One representative point per node: the smallest point id in its
    /// subtree, or `None` for empty internal nodes (cannot happen in
    /// trees built by the pipelines, where every node has a descendant
    /// leaf).
    pub fn subtree_representatives(&self) -> Vec<Option<PointId>> {
        self.subtree_fold(None, Some, |a, b| match (a, b) {
            (None, x) => *x,
            (x, None) => *x,
            (Some(x), Some(y)) => Some(*x.min(y)),
        })
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
    fn counts_sum_to_n_at_root() {
        let t = fixture();
        let counts = t.subtree_counts();
        assert_eq!(counts[t.root()], 3);
        let a = t.parent(t.leaf_of(0)).unwrap();
        assert_eq!(counts[a], 2);
        assert_eq!(counts[t.leaf_of(2)], 1);
    }

    #[test]
    fn signed_counts_cancel() {
        let t = fixture();
        // A = {0}, B = {1}: the shared parent nets to zero.
        let signed = t.subtree_signed_counts(|p| match p {
            0 => 1,
            1 => -1,
            _ => 0,
        });
        let a = t.parent(t.leaf_of(0)).unwrap();
        assert_eq!(signed[a], 0);
        assert_eq!(signed[t.leaf_of(0)], 1);
        assert_eq!(signed[t.root()], 0);
    }

    #[test]
    fn representatives_pick_min_point() {
        let t = fixture();
        let reps = t.subtree_representatives();
        assert_eq!(reps[t.root()], Some(0));
        let bb = t.parent(t.leaf_of(2)).unwrap();
        assert_eq!(reps[bb], Some(2));
    }
}
