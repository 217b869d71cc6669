//! Property tests for the tree substrate: randomly generated trees must
//! satisfy the metric axioms and aggregate identities.

use proptest::prelude::*;
use treeemb_hst::builder::{from_edge_list, EdgeRec};
use treeemb_hst::{Hst, HstBuilder, HstError};

/// The binary-search assembly `from_edge_list` replaced, kept as the
/// oracle its merge-join must agree with, tree for tree and error for
/// error.
fn reference_from_edge_list(edges: &[EdgeRec], n_points: usize) -> Result<Hst, HstError> {
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
    let is_known = |key: u64| known.binary_search_by_key(&key, |k| k.0).is_ok();
    if let Some(e) = edges
        .iter()
        .find(|e| e.parent != e.node && !is_known(e.parent))
    {
        return Err(HstError::MissingParent(e.parent));
    }

    // Children grouped under parents, each run ordered by node key, so
    // the arena does not depend on edge-list order.
    let mut children: Vec<(u64, u64, usize)> = known
        .iter()
        .map(|&(node, i)| (edges[i].parent, node, i))
        .filter(|&(parent, node, _)| parent != node)
        .collect();
    children.sort_unstable();

    // BFS from the root, building the arena: the arena ids are assigned
    // in BFS order, so `keys[id]` doubles as the queue. A cycle through
    // the root would place nodes forever; more placements than nodes
    // stops it.
    let mut b = HstBuilder::new();
    b.add_root();
    let mut keys: Vec<u64> = Vec::with_capacity(known.len());
    keys.push(root_key);
    let mut arena = 0usize;
    while arena < keys.len() && keys.len() <= known.len() {
        let key = keys[arena];
        let first = children.partition_point(|c| c.0 < key);
        for &(_, node, i) in children[first..].iter().take_while(|c| c.0 == key) {
            b.add_child(arena, edges[i].weight, edges[i].point);
            keys.push(node);
        }
        arena += 1;
    }
    if keys.len() != known.len() {
        return Err(HstError::NotATree);
    }
    let t = b.finish()?;
    if t.num_points() != n_points {
        return Err(HstError::SparsePointIds(t.num_points(), n_points));
    }
    Ok(t)
}

/// Builds a random tree: `shape[i]` attaches node i+1 under one of the
/// existing nodes; every node without children becomes a point leaf.
fn random_tree(shape: &[(usize, f64)]) -> Hst {
    let mut b = HstBuilder::new();
    let root = b.add_root();
    let mut nodes = vec![root];
    let mut children_of: Vec<Vec<usize>> = vec![Vec::new()];
    for &(parent_pick, weight) in shape {
        let parent = nodes[parent_pick % nodes.len()];
        let id = b.add_child(parent, weight.abs() + 0.001, None);
        children_of[parent].push(id);
        nodes.push(id);
        children_of.push(Vec::new());
    }
    // Attach a point leaf under every childless node (point ids dense).
    let mut point = 0usize;
    for (&node, kids) in nodes.iter().zip(&children_of) {
        if kids.is_empty() {
            b.add_child(node, 0.5, Some(point));
            point += 1;
        }
    }
    b.finish().expect("valid random tree")
}

/// The tree's edge list with node keys scrambled, so key order differs
/// from arena order the way structural hashes do.
fn scrambled_edges(t: &Hst) -> Vec<EdgeRec> {
    let key = |id: u64| id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
    t.to_document()
        .edges
        .into_iter()
        .map(|(node, parent, weight, point)| EdgeRec {
            node: key(node),
            parent: key(parent),
            weight,
            point,
        })
        .collect()
}

/// Shuffles `edges` by the given swaps and inserts the given repeats,
/// the orders and duplicates an upstream dedup may leave behind.
fn shuffle_and_repeat(
    edges: &[EdgeRec],
    swaps: &[(usize, usize)],
    repeats: &[(usize, usize)],
) -> Vec<EdgeRec> {
    let mut out = edges.to_vec();
    for &(a, b) in swaps {
        let n = out.len();
        out.swap(a % n, b % n);
    }
    for &(from, at) in repeats {
        let copy = out[from % out.len()].clone();
        out.insert(at % (out.len() + 1), copy);
    }
    out
}

/// Applies corruption `kind` (0 leaves the list intact) at the records
/// `a` and `b` pick: drop a record, add a second root, hang the root's
/// first record under another node, give a record a NaN or negative
/// weight, duplicate a point id, use a point id ≥ `n_points`, or repeat
/// a record under a parent key no record has.
fn corrupt(edges: &mut Vec<EdgeRec>, n_points: usize, kind: usize, a: usize, b: usize) {
    let len = edges.len();
    let (a, b) = (a % len, b % len);
    let fresh_key = edges
        .iter()
        .map(|e| e.node)
        .max()
        .unwrap_or(0)
        .wrapping_add(1);
    match kind {
        1 => {
            edges.remove(a);
        }
        2 => edges.insert(
            b % (len + 1),
            EdgeRec {
                node: fresh_key,
                parent: fresh_key,
                weight: 0.0,
                point: None,
            },
        ),
        3 => {
            let root = edges.iter().position(|e| e.parent == e.node).unwrap();
            let mut first = edges[root].clone();
            first.parent = edges[a].node;
            let at = edges.iter().position(|e| e.node == first.node).unwrap();
            edges.insert(at, first);
        }
        4 => edges[a].weight = [f64::NAN, -1.0][b % 2],
        5 => edges[a].point = edges.iter().find_map(|e| e.point),
        6 => edges[a].point = Some(n_points + b),
        7 => {
            let mut orphan = edges[a].clone();
            orphan.parent = fresh_key;
            edges.insert(b % (len + 1), orphan);
        }
        _ => {}
    }
}

/// A result as comparable text: the tree document on `Ok`, the error's
/// `Debug` form on `Err` (`HstError::BadWeight(NaN)` is not equal to
/// itself under `PartialEq`).
fn outcome(r: Result<Hst, HstError>) -> Result<String, String> {
    r.map(|t| t.to_json()).map_err(|e| format!("{e:?}"))
}

/// `children(id)` is exactly the ids whose parent is `id`, ascending,
/// and the child lists together hold every non-root node once.
fn check_child_index(t: &Hst) -> Result<(), TestCaseError> {
    let mut total = 0;
    for id in t.node_ids() {
        let want: Vec<usize> = t.node_ids().filter(|&c| t.parent(c) == Some(id)).collect();
        prop_assert_eq!(t.children(id), &want[..], "children of {}", id);
        total += t.children(id).len();
    }
    prop_assert_eq!(total, t.num_nodes() - 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edge_list_assembly_matches_the_reference(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
        swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
        repeats in proptest::collection::vec((0usize..1000, 0usize..1000), 0..8),
        (kind, a, b) in (0usize..8, 0usize..1000, 0usize..1000),
    ) {
        let t = random_tree(&shape);
        let n = t.num_points();
        let mut edges = shuffle_and_repeat(&scrambled_edges(&t), &swaps, &repeats);
        corrupt(&mut edges, n, kind, a, b);
        prop_assert_eq!(
            outcome(from_edge_list(&edges, n)),
            outcome(reference_from_edge_list(&edges, n))
        );
    }

    #[test]
    fn child_index_lists_exactly_the_children(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
        swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
    ) {
        let t = random_tree(&shape);
        check_child_index(&t)?;
        let edges = shuffle_and_repeat(&scrambled_edges(&t), &swaps, &[]);
        check_child_index(&from_edge_list(&edges, t.num_points()).unwrap())?;
    }

    #[test]
    fn edge_list_assembly_ignores_order_and_repeats(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
        swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
        repeats in proptest::collection::vec((0usize..1000, 0usize..1000), 0..8),
    ) {
        let t = random_tree(&shape);
        let edges = scrambled_edges(&t);
        let want = from_edge_list(&edges, t.num_points()).unwrap().to_json();
        let shuffled = shuffle_and_repeat(&edges, &swaps, &repeats);
        let got = from_edge_list(&shuffled, t.num_points()).unwrap();
        prop_assert_eq!(got.to_json(), want);
        prop_assert_eq!(got.num_nodes(), t.num_nodes());
    }

    #[test]
    fn tree_metric_axioms(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
    ) {
        let t = random_tree(&shape);
        let n = t.num_points();
        for p in 0..n {
            prop_assert_eq!(t.distance(p, p), 0.0);
            for q in (p + 1)..n {
                let d = t.distance(p, q);
                prop_assert!(d > 0.0, "distinct leaves at distance zero");
                prop_assert_eq!(d, t.distance(q, p));
                for r in 0..n {
                    prop_assert!(
                        t.distance(p, r) <= d + t.distance(q, r) + 1e-9,
                        "triangle inequality"
                    );
                }
            }
        }
    }

    #[test]
    fn lca_properties(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
    ) {
        let t = random_tree(&shape);
        let n = t.num_points();
        for p in 0..n {
            for q in 0..n {
                let l = t.lca(t.leaf_of(p), t.leaf_of(q));
                // The LCA's depth is minimal along both paths.
                prop_assert!(t.node(l).depth <= t.node(t.leaf_of(p)).depth);
                // Distance decomposes through the LCA.
                let via = (t.weight_to_root(t.leaf_of(p)) - t.weight_to_root(l))
                    + (t.weight_to_root(t.leaf_of(q)) - t.weight_to_root(l));
                prop_assert!((t.distance(p, q) - via).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn subtree_counts_are_consistent(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
    ) {
        let t = random_tree(&shape);
        let counts = t.subtree_counts();
        prop_assert_eq!(counts[t.root()], t.num_points());
        for id in t.node_ids() {
            let from_children: usize = t.children(id).iter().map(|&c| counts[c]).sum();
            let own = usize::from(t.node(id).point.is_some());
            prop_assert_eq!(counts[id], from_children + own);
            prop_assert_eq!(counts[id], t.subtree_points(id).len());
        }
    }

    #[test]
    fn post_order_is_a_valid_topological_order(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
    ) {
        let t = random_tree(&shape);
        let order = t.post_order();
        prop_assert_eq!(order.len(), t.num_nodes());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        for id in t.node_ids() {
            for &c in t.children(id) {
                prop_assert!(pos[&c] < pos[&id]);
            }
        }
    }

    #[test]
    fn representatives_belong_to_their_subtrees(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
    ) {
        let t = random_tree(&shape);
        let reps = t.subtree_representatives();
        for id in t.node_ids() {
            let pts = t.subtree_points(id);
            match reps[id] {
                Some(r) => {
                    prop_assert!(pts.contains(&r));
                    prop_assert_eq!(r, *pts.iter().min().unwrap());
                }
                None => prop_assert!(pts.is_empty()),
            }
        }
    }
}
