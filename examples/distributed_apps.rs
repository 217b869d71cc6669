//! Corollary 1 as the paper states it: the *applications themselves*
//! run in O(1) MPC rounds on the distributed embedding — no host-side
//! tree assembly needed. This example runs Algorithm 2 once, keeps the
//! per-point paths distributed, and answers EMD / densest-ball / MST
//! queries with a handful of extra rounds each.
//!
//! ```text
//! cargo run --release --example distributed_apps
//! ```

use treeemb::apps::exact::prim;
use treeemb::apps::mpc::{mpc_densest_cluster, mpc_mst_edges, mpc_tree_emd};
use treeemb::core::mpc_embed::embed_mpc_full;
use treeemb::core::mpc_tree::{root_paths, TreeEdge};
use treeemb::prelude::*;

fn main() {
    let n = 120;
    let points = generators::gaussian_clusters(n, 8, 5, 3.0, 1 << 11, 99);
    let params = HybridParams::for_dataset(&points, 4).expect("schedule");
    let cap = (params.total_grid_words() * 4).max(1 << 16);
    let mut rt = Runtime::builder()
        .config(MpcConfig::explicit(n * 9, cap, 16).with_threads(4))
        .build();

    // Algorithm 2, keeping the distributed paths.
    let full = embed_mpc_full(&mut rt, &points, &params, 7).expect("embed");
    let embed_rounds = rt.metrics().rounds();
    println!(
        "embedding: {} nodes on {} machines in {embed_rounds} rounds",
        full.embedding.tree.num_nodes(),
        rt.num_machines()
    );

    // EMD between the first and second half, fully distributed.
    let before = rt.metrics().rounds();
    let half = (n / 2) as u32;
    let emd = mpc_tree_emd(
        &mut rt,
        full.paths.clone(),
        move |p| {
            if p < half {
                1
            } else {
                -1
            }
        },
    )
    .expect("emd");
    println!(
        "EMD(first half, second half) = {emd:.1}  [{} extra rounds]",
        rt.metrics().rounds() - before
    );

    // Densest cluster with tree diameter <= 400.
    let before = rt.metrics().rounds();
    let dense = mpc_densest_cluster(&mut rt, full.paths.clone(), 400.0).expect("densest");
    println!(
        "densest cluster: {} points within tree-diameter {:.1}  [{} extra rounds]",
        dense.count,
        dense.tree_diameter_bound,
        rt.metrics().rounds() - before
    );

    // Spanning tree edges, priced in Euclidean space on the host.
    let before = rt.metrics().rounds();
    let edges = mpc_mst_edges(&mut rt, full.paths.clone()).expect("mst");
    let e: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(a, b)| (a as usize, b as usize))
        .collect();
    let cost = prim::edges_cost(&points, &e);
    let exact = prim::mst(&points).cost;
    println!(
        "tree-guided MST: cost {cost:.1} (exact {exact:.1}, ratio {:.3})  [{} extra rounds]",
        cost / exact,
        rt.metrics().rounds() - before
    );

    // Bonus: §1.3.3 — evaluate root paths of the *tree itself* as a
    // distributed edge list via pointer doubling (O(log depth) rounds).
    let doc = full.embedding.tree.to_document();
    let tree_edges: Vec<TreeEdge> = doc
        .edges
        .iter()
        .map(|&(node, parent, weight, _)| TreeEdge {
            node,
            parent,
            weight,
        })
        .collect();
    let mut rt2 = Runtime::builder()
        .config(MpcConfig::explicit(1 << 16, 1 << 14, 16).with_threads(4))
        .build();
    let dist = rt2.distribute(tree_edges).expect("distribute");
    let paths = root_paths(&mut rt2, dist).expect("pointer doubling");
    let max_depth = rt2
        .gather(paths)
        .into_iter()
        .map(|p| p.depth)
        .max()
        .unwrap_or(0);
    println!(
        "pointer doubling over the distributed tree: depth {max_depth} resolved in {} rounds",
        rt2.metrics().rounds()
    );
}
