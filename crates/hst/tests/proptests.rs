//! Property tests for the tree substrate: randomly generated trees must
//! satisfy the metric axioms and aggregate identities.

use proptest::prelude::*;
use treeemb_hst::builder::{from_edge_list, EdgeRec};
use treeemb_hst::{Hst, HstBuilder};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edge_list_assembly_ignores_order_and_repeats(
        shape in proptest::collection::vec((0usize..50, 0f64..100.0), 0..25),
        swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
        repeats in proptest::collection::vec((0usize..1000, 0usize..1000), 0..8),
    ) {
        let t = random_tree(&shape);
        let edges = scrambled_edges(&t);
        let want = from_edge_list(&edges, t.num_points()).unwrap().to_json();
        let mut shuffled = edges.clone();
        for &(a, b) in &swaps {
            let n = shuffled.len();
            shuffled.swap(a % n, b % n);
        }
        for &(from, at) in &repeats {
            let copy = shuffled[from % shuffled.len()].clone();
            shuffled.insert(at % (shuffled.len() + 1), copy);
        }
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
