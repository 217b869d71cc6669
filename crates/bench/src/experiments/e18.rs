//! E18 — approximate nearest neighbors (paper reference \[2\]: the
//! FJLT's original application). Queries probe O(logΔ) hash maps
//! instead of scanning n points; quality is bounded by the embedding's
//! distortion and improves with a best-of-k ensemble.

use crate::{table::fnum, Scale, Table};
use treeemb_apps::ann::{exact_nearest, AnnIndex};
use treeemb_core::params::HybridParams;
use treeemb_geom::{generators, metrics};

/// Runs E18.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = scale.pick(300, 2000);
    let queries = scale.pick(60, 300);
    let ps = generators::gaussian_clusters(n, 8, 8, 4.0, 1 << 11, 47);
    let params = HybridParams::for_dataset(&ps, 4).unwrap();
    let mut t = Table::new(
        "E18",
        "approximate nearest neighbors: quality vs ensemble size k (best-of-k over seeds)",
        &[
            "k (indices)",
            "mean dist ratio",
            "p95 ratio",
            "exact-hit rate",
            "probes/query",
        ],
    );
    let ensemble: Vec<AnnIndex> = (0..8u64)
        .map(|s| AnnIndex::build(&ps, &params, 700 + s).unwrap())
        .collect();
    for &k in &[1usize, 2, 4, 8] {
        let mut ratios = Vec::with_capacity(queries);
        let mut hits = 0usize;
        for i in 0..queries {
            let q: Vec<f64> = ps
                .point((i * 29) % n)
                .iter()
                .map(|x| x + ((i % 9) as f64) - 4.0)
                .collect();
            let a = AnnIndex::query_best_of(&ensemble[..k], &ps, &q).unwrap();
            let e = exact_nearest(&ps, &q).unwrap();
            let ra = metrics::dist(ps.point(a), &q);
            let re = metrics::dist(ps.point(e), &q);
            // 0/0 (query coincides with an indexed point and we return
            // it) counts as a perfect answer, not a free win.
            ratios.push(ra.max(1e-12) / re.max(1e-12));
            if ra <= re * (1.0 + 1e-9) + 1e-12 {
                hits += 1;
            }
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let p95 = ratios[(ratios.len() * 95) / 100 - 1];
        t.row(vec![
            k.to_string(),
            fnum(mean),
            fnum(p95),
            fnum(hits as f64 / queries as f64),
            params.num_levels().to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_quality_improves_with_ensemble_size() {
        let tables = run(Scale::quick());
        let means: Vec<f64> = tables[0]
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(
            means.last().unwrap() <= &(means[0] + 1e-9),
            "best-of-8 should not be worse than best-of-1: {means:?}"
        );
        assert!(means[3] < 5.0, "best-of-8 mean ratio {}", means[3]);
    }
}
