//! Arena-allocated weighted rooted tree.

/// Index of a node in the tree arena.
pub type NodeId = usize;

/// Index of an input point (leaf identity).
pub type PointId = usize;

/// A node of the tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent node; `None` for the root.
    pub parent: Option<NodeId>,
    /// Weight of the edge to the parent; `0.0` for the root.
    pub weight_to_parent: f64,
    /// The input point this leaf represents, if a leaf.
    pub point: Option<PointId>,
    /// Depth (root = 0).
    pub depth: u32,
}

/// A weighted rooted tree whose leaves carry input points.
#[derive(Debug, Clone)]
pub struct Hst {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// `leaf_of[p]` = arena id of point `p`'s leaf.
    pub(crate) leaf_of: Vec<NodeId>,
    /// `child_ids[child_start[id]..child_start[id + 1]]` = the children
    /// of `id`, ascending.
    child_start: Vec<usize>,
    child_ids: Vec<NodeId>,
}

impl Hst {
    /// Wraps a validated arena, indexing children from the parent
    /// pointers with a stable counting sort over ids. Builders give every
    /// node a larger id than its parent and siblings ids in insertion
    /// order, so each child list is in insertion order.
    pub(crate) fn from_arena(nodes: Vec<Node>, root: NodeId, leaf_of: Vec<NodeId>) -> Hst {
        // Count children per parent, then prefix-sum: `child_start[p]`
        // is the end of `p`'s run until the fill below walks it back.
        let mut child_start = vec![0usize; nodes.len() + 1];
        for p in nodes.iter().filter_map(|n| n.parent) {
            child_start[p] += 1;
        }
        let mut end = 0;
        for s in &mut child_start {
            end += *s;
            *s = end;
        }
        // Filling each run from its back in descending id order leaves
        // it ascending and `child_start[p]` at its start.
        let mut child_ids = vec![0; end];
        for (id, n) in nodes.iter().enumerate().rev() {
            if let Some(p) = n.parent {
                child_start[p] -= 1;
                child_ids[child_start[p]] = id;
            }
        }
        Hst {
            nodes,
            root,
            leaf_of,
            child_start,
            child_ids,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of input points (leaves with point ids).
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.leaf_of.len()
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The leaf node holding point `p`.
    #[must_use]
    pub fn leaf_of(&self, p: PointId) -> NodeId {
        self.leaf_of[p]
    }

    /// Parent of `id`, if any.
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id].parent
    }

    /// Children of `id`, in insertion order (ascending ids).
    #[must_use]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.child_ids[self.child_start[id]..self.child_start[id + 1]]
    }

    /// Iterator over all node ids, root first (ids are assigned in
    /// topological order by the builder).
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// Sum of all edge weights.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.nodes.iter().map(|n| n.weight_to_parent).sum()
    }

    /// Maximum leaf depth.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Sum of edge weights from `id` up to the root.
    #[must_use]
    pub fn weight_to_root(&self, mut id: NodeId) -> f64 {
        let mut total = 0.0;
        while let Some(p) = self.nodes[id].parent {
            total += self.nodes[id].weight_to_parent;
            id = p;
        }
        total
    }

    /// Post-order traversal of node ids (children before parents) —
    /// the order subtree folds consume.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                out.push(id);
            } else {
                stack.push((id, true));
                for &c in self.children(id) {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// The point ids in the subtree rooted at `id`.
    pub fn subtree_points(&self, id: NodeId) -> Vec<PointId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let Some(p) = self.nodes[n].point {
                out.push(p);
            }
            stack.extend_from_slice(self.children(n));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::HstBuilder;

    /// Builds the small fixture tree used across this crate's tests:
    ///
    /// ```text
    ///        root
    ///       /    \  (w=4)
    ///      a      b
    ///    /  \      \   (w=1)
    ///   p0   p1     p2
    /// ```
    pub(crate) fn fixture() -> crate::Hst {
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
    fn structure_counters() {
        let t = fixture();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_points(), 3);
        assert_eq!(t.height(), 2);
        assert_eq!(t.total_weight(), 4.0 + 4.0 + 1.0 + 1.0 + 1.0);
    }

    #[test]
    fn weight_to_root_walks_up() {
        let t = fixture();
        assert_eq!(t.weight_to_root(t.leaf_of(0)), 5.0);
        assert_eq!(t.weight_to_root(t.root()), 0.0);
    }

    #[test]
    fn post_order_visits_children_first() {
        let t = fixture();
        let order = t.post_order();
        assert_eq!(order.len(), t.num_nodes());
        assert_eq!(*order.last().unwrap(), t.root());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for id in t.node_ids() {
            if let Some(p) = t.parent(id) {
                assert!(pos[&id] < pos[&p], "child after parent");
            }
        }
    }

    #[test]
    fn subtree_points_collects_leaves() {
        let t = fixture();
        let mut all = t.subtree_points(t.root());
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
        let a = t.parent(t.leaf_of(0)).unwrap();
        let mut under_a = t.subtree_points(a);
        under_a.sort_unstable();
        assert_eq!(under_a, vec![0, 1]);
    }

    #[test]
    fn depths_increase_from_root() {
        let t = fixture();
        assert_eq!(t.node(t.root()).depth, 0);
        assert_eq!(t.node(t.leaf_of(2)).depth, 2);
    }
}
