//! Approximate Euclidean MST on clustered data via the tree embedding
//! (Corollary 1(2)), compared against exact Prim.
//!
//! ```text
//! cargo run --release --example mst_clustering
//! ```

use treeemb::apps::exact::prim;
use treeemb::apps::mst::tree_mst;
use treeemb::core::seq::GridEmbedder;
use treeemb::prelude::*;

fn main() {
    // A mixture of 6 Gaussian clusters — the workload where spanning
    // trees have strong cluster structure.
    let n = 400;
    let points = generators::gaussian_clusters(n, 8, 6, 5.0, 1 << 11, 2024);
    let exact = prim::mst(&points);
    println!("exact MST (Prim O(n^2 d)): cost {:.1}", exact.cost);

    let hybrid = SeqEmbedder::new(HybridParams::for_dataset(&points, 4).expect("schedule"));
    let grid = GridEmbedder::for_dataset(&points).expect("schedule");

    let seeds = 5;
    let mut h_best = f64::INFINITY;
    let mut h_sum = 0.0;
    let mut g_sum = 0.0;
    for seed in 0..seeds {
        let he = hybrid.embed(&points, seed).expect("embed");
        let st = tree_mst(&he, &points);
        assert!(prim::is_spanning_tree(n, &st.edges));
        h_best = h_best.min(st.cost);
        h_sum += st.cost;

        let ge = grid.embed(&points, seed).expect("embed");
        g_sum += tree_mst(&ge, &points).cost;
    }
    let h_mean = h_sum / seeds as f64;
    let g_mean = g_sum / seeds as f64;
    println!(
        "hybrid-tree MST: mean cost {:.1} (ratio {:.3}), best-of-{seeds} {:.1} (ratio {:.3})",
        h_mean,
        h_mean / exact.cost,
        h_best,
        h_best / exact.cost
    );
    println!(
        "grid-tree MST (Arora baseline): mean cost {:.1} (ratio {:.3})",
        g_mean,
        g_mean / exact.cost
    );
    println!(
        "hybrid improves on grid by {:.1}% on this workload",
        100.0 * (1.0 - h_mean / g_mean)
    );
}
