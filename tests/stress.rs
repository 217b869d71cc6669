//! Scale stress tests — `#[ignore]`d so `cargo test` stays fast.
//! Run explicitly with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```

use treeemb::apps::mst::tree_mst;
use treeemb::core::params::HybridParams;
use treeemb::core::pipeline::{run, PipelineConfig};
use treeemb::core::seq::SeqEmbedder;
use treeemb::geom::generators;

#[test]
#[ignore = "release-mode scale test (~seconds)"]
fn embed_ten_thousand_points() {
    let n = 10_000;
    let ps = generators::uniform_cube(n, 8, 1 << 16, 1);
    let params = HybridParams::for_dataset(&ps, 4).unwrap();
    let emb = SeqEmbedder::new(params)
        .embed_parallel(&ps, 7, 8)
        .expect("embed 10k");
    assert_eq!(emb.tree.num_points(), n);
    // Spot-check domination on a sample of pairs.
    for i in (0..n).step_by(397) {
        for j in (i + 1..n).step_by(401) {
            let e = treeemb::geom::metrics::dist(ps.point(i), ps.point(j));
            assert!(emb.tree_distance(i, j) >= e * (1.0 - 1e-9));
        }
    }
}

#[test]
#[ignore = "release-mode scale test (~tens of seconds)"]
fn pipeline_two_thousand_points_high_dim() {
    let n = 2000;
    let ps = generators::noisy_line(n, 1024, 1 << 14, 2.0, 3);
    let cfg = PipelineConfig::builder().xi(0.7).threads(8).build();
    let report = run(&ps, &cfg).expect("pipeline at scale");
    assert!(report.jl_applied);
    assert!(report.rounds <= 12, "rounds {}", report.rounds);
    assert_eq!(report.embedding.tree.num_points(), n);
}

#[test]
#[ignore = "release-mode scale test (~seconds)"]
fn mst_at_scale_stays_reasonable() {
    let n = 4000;
    let ps = generators::gaussian_clusters(n, 8, 16, 4.0, 1 << 14, 5);
    let params = HybridParams::for_dataset(&ps, 4).unwrap();
    let emb = SeqEmbedder::new(params)
        .embed_parallel(&ps, 11, 8)
        .expect("embed");
    let st = tree_mst(&emb, &ps);
    assert!(treeemb::apps::exact::prim::is_spanning_tree(n, &st.edges));
    let exact = treeemb::apps::exact::prim::mst(&ps);
    let ratio = st.cost / exact.cost;
    assert!((1.0..10.0).contains(&ratio), "MST ratio {ratio}");
}
