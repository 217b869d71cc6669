//! Approximate nearest-neighbor search via the hierarchy — the
//! application the FJLT was originally built for (Ailon–Chazelle,
//! the paper's reference [2]).
//!
//! Queries cost O(logΔ) hash probes each, independent of n; quality
//! improves with a small best-of-k ensemble of independently seeded
//! indices.
//!
//! ```text
//! cargo run --release --example ann_search
//! ```

use std::time::Instant;
use treeemb::apps::ann::{exact_nearest, AnnIndex};
use treeemb::prelude::*;

fn main() {
    let n = 5000;
    let points = generators::gaussian_clusters(n, 8, 20, 4.0, 1 << 12, 31);
    let params = HybridParams::for_dataset(&points, 4).expect("schedule");

    let t0 = Instant::now();
    let ensemble: Vec<AnnIndex> = (0..4)
        .map(|s| AnnIndex::build(&points, &params, 900 + s).expect("index"))
        .collect();
    println!("built 4 indices over n={n} in {:.2?}", t0.elapsed());

    // Queries: perturbed copies of held-out positions.
    let queries: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            points
                .point((i * 13) % n)
                .iter()
                .map(|x| x + ((i % 7) as f64) - 3.0)
                .collect()
        })
        .collect();

    let t_ann = Instant::now();
    let approx: Vec<usize> = queries
        .iter()
        .map(|q| AnnIndex::query_best_of(&ensemble, &points, q).expect("query"))
        .collect();
    let ann_time = t_ann.elapsed();

    let t_exact = Instant::now();
    let exact: Vec<usize> = queries
        .iter()
        .map(|q| exact_nearest(&points, q).expect("query"))
        .collect();
    let exact_time = t_exact.elapsed();

    let mut ratio_sum = 0.0;
    let mut exact_hits = 0usize;
    for ((q, &a), &e) in queries.iter().zip(&approx).zip(&exact) {
        let ra = metrics::dist(points.point(a), q);
        let re = metrics::dist(points.point(e), q).max(1e-9);
        ratio_sum += ra / re;
        if a == e || ra <= re * (1.0 + 1e-9) {
            exact_hits += 1;
        }
    }
    println!(
        "200 queries: ANN {ann_time:.2?} vs linear scan {exact_time:.2?} ({:.1}x faster)",
        exact_time.as_secs_f64() / ann_time.as_secs_f64()
    );
    println!(
        "quality: mean distance ratio {:.2}, {exact_hits}/200 queries answered exactly",
        ratio_sum / 200.0
    );
}
