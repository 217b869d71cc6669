//! Incremental and edge-list construction of [`Hst`]s, with validation.

use crate::tree::{Hst, Node, NodeId, PointId};
use std::fmt;

/// Errors raised while assembling a tree.
#[derive(Debug, Clone, PartialEq)]
pub enum HstError {
    /// No root was declared / found.
    NoRoot,
    /// More than one root candidate in an edge list.
    MultipleRoots(u64, u64),
    /// A point id appears on two different leaves.
    DuplicatePoint(PointId),
    /// An edge references a parent key that never appears as a node.
    MissingParent(u64),
    /// Point ids must be dense `0..n`; this one is out of range.
    SparsePointIds(PointId, usize),
    /// A cycle or disconnected component was detected.
    NotATree,
    /// Free-form structural failure (e.g. a parse error while loading).
    NotATreeMsg(String),
    /// An edge weight is not a finite non-negative number.
    BadWeight(f64),
}

impl fmt::Display for HstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HstError::NoRoot => write!(f, "tree has no root"),
            HstError::MultipleRoots(a, b) => write!(f, "multiple roots: {a:#x} and {b:#x}"),
            HstError::DuplicatePoint(p) => write!(f, "point {p} appears on two leaves"),
            HstError::MissingParent(k) => write!(f, "edge references unknown parent {k:#x}"),
            HstError::SparsePointIds(p, n) => {
                write!(
                    f,
                    "point id {p} out of range for {n} points (ids must be dense)"
                )
            }
            HstError::NotATree => write!(f, "edge list does not form a single tree"),
            HstError::NotATreeMsg(msg) => write!(f, "invalid tree document: {msg}"),
            HstError::BadWeight(w) => write!(f, "bad edge weight {w}"),
        }
    }
}

impl std::error::Error for HstError {}

/// Incremental builder: add the root, then children in any order.
#[derive(Debug, Default)]
pub struct HstBuilder {
    nodes: Vec<Node>,
    root: Option<NodeId>,
    points: Vec<(PointId, NodeId)>,
}

impl HstBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the root node. Must be called exactly once, first.
    ///
    /// # Panics
    /// Panics if a root already exists.
    pub fn add_root(&mut self) -> NodeId {
        assert!(self.root.is_none(), "root already added");
        self.nodes.push(Node {
            parent: None,
            weight_to_parent: 0.0,
            point: None,
            depth: 0,
        });
        self.root = Some(0);
        0
    }

    /// Adds a child of `parent` with the given edge weight; `point`
    /// marks the node as the leaf of that input point.
    ///
    /// # Panics
    /// Panics on an unknown parent id.
    pub fn add_child(&mut self, parent: NodeId, weight: f64, point: Option<PointId>) -> NodeId {
        assert!(parent < self.nodes.len(), "unknown parent");
        let id = self.nodes.len();
        let depth = self.nodes[parent].depth + 1;
        self.nodes.push(Node {
            parent: Some(parent),
            weight_to_parent: weight,
            point,
            depth,
        });
        if let Some(p) = point {
            self.points.push((p, id));
        }
        id
    }

    /// Validates and produces the tree.
    pub fn finish(mut self) -> Result<Hst, HstError> {
        let root = self.root.ok_or(HstError::NoRoot)?;
        for n in &self.nodes {
            if !n.weight_to_parent.is_finite() || n.weight_to_parent < 0.0 {
                return Err(HstError::BadWeight(n.weight_to_parent));
            }
        }
        let n_points = self.points.len();
        let mut leaf_of = vec![usize::MAX; n_points];
        for (p, id) in self.points.drain(..) {
            if p >= n_points {
                return Err(HstError::SparsePointIds(p, n_points));
            }
            if leaf_of[p] != usize::MAX {
                return Err(HstError::DuplicatePoint(p));
            }
            leaf_of[p] = id;
        }
        Ok(Hst::from_arena(self.nodes, root, leaf_of))
    }
}

/// One edge of a distributed tree description: Algorithm 2's machines
/// emit these for every node on every point's root-to-leaf path (after
/// deduplication, each node appears once).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeRec {
    /// Structural key of the node.
    pub node: u64,
    /// Structural key of the parent (equal to `node` for the root).
    pub parent: u64,
    /// Weight of the edge to the parent (ignored for the root).
    pub weight: f64,
    /// Leaf payload: the point this node represents, if any.
    pub point: Option<PointId>,
}

/// Assembles a tree from a deduplicated edge list.
///
/// `n_points` fixes the leaf-map size; every point in `0..n_points` must
/// appear exactly once.
///
/// Assembly is two sorts, a merge-join and one BFS pass, with no
/// per-node search: `known` lists the node keys, `children` the
/// `(parent key, known index)` pairs, and one pass over both gives every
/// known node its run of children. The BFS over those runs writes the
/// arena, children in node-key order, so the arena does not depend on
/// edge-list order.
pub fn from_edge_list(edges: &[EdgeRec], n_points: usize) -> Result<Hst, HstError> {
    // Locate the root (parent == node).
    let mut root_key: Option<u64> = None;
    for e in edges {
        if e.parent == e.node {
            match root_key {
                None => root_key = Some(e.node),
                Some(r) if r != e.node => return Err(HstError::MultipleRoots(r, e.node)),
                _ => {}
            }
        }
    }
    let root_key = root_key.ok_or(HstError::NoRoot)?;

    // One record per node key, the first in edge-list order winning (the
    // dedup step upstream should have removed any repeats).
    let mut known: Vec<(u64, usize)> = edges.iter().enumerate().map(|(i, e)| (e.node, i)).collect();
    known.sort_unstable();
    known.dedup_by_key(|k| k.0);

    // Children grouped under parents; within a run the known index,
    // like the node key, ascends.
    let mut children: Vec<(u64, usize)> = known
        .iter()
        .enumerate()
        .filter_map(|(k, &(node, i))| (edges[i].parent != node).then_some((edges[i].parent, k)))
        .collect();
    children.sort_unstable();

    // Merge-join: `children[first_child[k]..first_child[k + 1]]` are the
    // children of `known[k]`. A child whose parent key falls between
    // known keys has an unknown parent.
    let mut first_child = Vec::with_capacity(known.len() + 1);
    let mut c = 0;
    let mut unknown_parent = false;
    for &(key, _) in &known {
        let skipped = children[c..].iter().take_while(|ch| ch.0 < key).count();
        unknown_parent |= skipped > 0;
        c += skipped;
        first_child.push(c);
        c += children[c..].iter().take_while(|ch| ch.0 == key).count();
    }
    unknown_parent |= c < children.len();
    first_child.push(children.len());
    // `MissingParent` names the first edge in edge-list order whose
    // parent is unknown; a repeated record outside `known` can be that
    // edge too, so repeats also take the exact scan.
    if unknown_parent || known.len() < edges.len() {
        let is_known = |key: u64| known.binary_search_by_key(&key, |k| k.0).is_ok();
        if let Some(e) = edges
            .iter()
            .find(|e| e.parent != e.node && !is_known(e.parent))
        {
            return Err(HstError::MissingParent(e.parent));
        }
    }

    // Each child's payload, copied into `children` order so the BFS
    // reads a run contiguously instead of one random record per node.
    let payload: Vec<(f64, Option<PointId>)> = children
        .iter()
        .map(|&(_, k)| {
            let e = &edges[known[k].1];
            (e.weight, e.point)
        })
        .collect();

    // BFS from the root, building the arena: the arena ids are assigned
    // in BFS order, so `queue[id]` (the known index of arena node `id`)
    // doubles as the queue. A cycle through the root would place nodes
    // forever; more placements than nodes stops it.
    let mut b = HstBuilder {
        nodes: Vec::with_capacity(known.len()),
        ..HstBuilder::default()
    };
    b.add_root();
    let mut queue: Vec<usize> = Vec::with_capacity(known.len());
    queue.push(known.partition_point(|k| k.0 < root_key));
    let mut arena = 0usize;
    while arena < queue.len() && queue.len() <= known.len() {
        let k = queue[arena];
        for c in first_child[k]..first_child[k + 1] {
            let (weight, point) = payload[c];
            b.add_child(arena, weight, point);
            queue.push(children[c].1);
        }
        arena += 1;
    }
    if queue.len() != known.len() {
        return Err(HstError::NotATree);
    }
    let t = b.finish()?;
    if t.num_points() != n_points {
        return Err(HstError::SparsePointIds(t.num_points(), n_points));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(node: u64, parent: u64, weight: f64, point: Option<usize>) -> EdgeRec {
        EdgeRec {
            node,
            parent,
            weight,
            point,
        }
    }

    #[test]
    fn builder_produces_valid_tree() {
        let mut b = HstBuilder::new();
        let r = b.add_root();
        let c = b.add_child(r, 2.0, None);
        b.add_child(c, 1.0, Some(0));
        let t = b.finish().unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_points(), 1);
        assert_eq!(t.node(t.leaf_of(0)).depth, 2);
    }

    #[test]
    fn duplicate_point_rejected() {
        let mut b = HstBuilder::new();
        let r = b.add_root();
        b.add_child(r, 1.0, Some(0));
        b.add_child(r, 1.0, Some(0));
        assert_eq!(b.finish().unwrap_err(), HstError::DuplicatePoint(0));
    }

    #[test]
    fn sparse_point_ids_rejected() {
        let mut b = HstBuilder::new();
        let r = b.add_root();
        b.add_child(r, 1.0, Some(5));
        assert!(matches!(
            b.finish().unwrap_err(),
            HstError::SparsePointIds(5, 1)
        ));
    }

    #[test]
    fn negative_weight_rejected() {
        let mut b = HstBuilder::new();
        let r = b.add_root();
        b.add_child(r, -1.0, Some(0));
        assert_eq!(b.finish().unwrap_err(), HstError::BadWeight(-1.0));
    }

    #[test]
    fn edge_list_round_trip() {
        let edges = vec![
            edge(10, 10, 0.0, None),
            edge(20, 10, 4.0, None),
            edge(21, 10, 4.0, None),
            edge(30, 20, 1.0, Some(0)),
            edge(31, 20, 1.0, Some(1)),
            edge(32, 21, 1.0, Some(2)),
        ];
        let t = from_edge_list(&edges, 3).unwrap();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.weight_to_root(t.leaf_of(2)), 5.0);
    }

    #[test]
    fn edge_list_order_does_not_matter() {
        let mut edges = vec![
            edge(30, 20, 1.0, Some(0)),
            edge(10, 10, 0.0, None),
            edge(20, 10, 4.0, None),
        ];
        let a = from_edge_list(&edges, 1).unwrap();
        edges.reverse();
        let b = from_edge_list(&edges, 1).unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(
            a.weight_to_root(a.leaf_of(0)),
            b.weight_to_root(b.leaf_of(0))
        );
    }

    #[test]
    fn missing_parent_detected() {
        let edges = vec![edge(10, 10, 0.0, None), edge(30, 99, 1.0, Some(0))];
        assert_eq!(
            from_edge_list(&edges, 1).unwrap_err(),
            HstError::MissingParent(99)
        );
    }

    #[test]
    fn no_root_detected() {
        let edges = vec![edge(30, 20, 1.0, Some(0)), edge(20, 30, 1.0, None)];
        assert_eq!(from_edge_list(&edges, 1).unwrap_err(), HstError::NoRoot);
    }

    #[test]
    fn multiple_roots_detected() {
        let edges = vec![edge(1, 1, 0.0, None), edge(2, 2, 0.0, None)];
        assert!(matches!(
            from_edge_list(&edges, 0).unwrap_err(),
            HstError::MultipleRoots(_, _)
        ));
    }

    #[test]
    fn disconnected_component_detected() {
        let edges = vec![
            edge(1, 1, 0.0, None),
            edge(2, 1, 1.0, Some(0)),
            // Island: 5 <-> 6 cycle, unreachable from root.
            edge(5, 6, 1.0, None),
            edge(6, 5, 1.0, None),
        ];
        assert_eq!(from_edge_list(&edges, 1).unwrap_err(), HstError::NotATree);
    }

    #[test]
    fn cycle_through_the_root_is_not_a_tree() {
        // The root key's first record hangs it under node 2, which hangs
        // under the root: assembly must stop, not place nodes forever.
        let edges = vec![
            edge(1, 2, 1.0, None),
            edge(1, 1, 0.0, None),
            edge(2, 1, 1.0, Some(0)),
        ];
        assert_eq!(from_edge_list(&edges, 1).unwrap_err(), HstError::NotATree);
    }
}
