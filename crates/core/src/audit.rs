//! Embedding audits: the two Theorem-2 guarantees, measured.
//!
//! 1. **Domination** — `dist_T(p,q) ≥ ‖p−q‖₂` for every pair, for every
//!    tree (deterministic in our construction; see DESIGN.md note 1);
//! 2. **Expected distortion** — `E_T[dist_T(p,q)] ≤ α·‖p−q‖₂`. The
//!    expectation is over trees, so the estimator averages `dist_T` over
//!    independently seeded embeddings before taking the worst pair.

use crate::error::EmbedError;
use crate::seq::Embedding;
use treeemb_geom::metrics::dist;
use treeemb_geom::PointSet;

/// Result of a domination check.
#[derive(Debug, Clone, PartialEq)]
pub struct DominationReport {
    /// True when every pair satisfies `dist_T ≥ (1−tol)·euclid`.
    pub ok: bool,
    /// Minimum of `dist_T / euclid` over all distinct pairs.
    pub worst_ratio: f64,
    /// Pairs checked.
    pub pairs: usize,
}

/// Checks domination of the tree metric over the Euclidean metric.
pub fn check_domination(emb: &Embedding, ps: &PointSet) -> DominationReport {
    let _sp = treeemb_obs::span!("audit.domination", "n" = ps.len());
    let n = ps.len();
    let mut worst = f64::INFINITY;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let e = dist(ps.point(i), ps.point(j));
            if e == 0.0 {
                continue;
            }
            let t = emb.tree_distance(i, j);
            worst = worst.min(t / e);
            pairs += 1;
        }
    }
    if pairs == 0 {
        return DominationReport {
            ok: true,
            worst_ratio: 1.0,
            pairs: 0,
        };
    }
    DominationReport {
        ok: worst >= 1.0 - 1e-9,
        worst_ratio: worst,
        pairs,
    }
}

/// Empirical expected-distortion estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct DistortionEstimate {
    /// `max_pairs mean_T[dist_T]/euclid` — the empirical expected
    /// distortion (the `α` of Theorem 2).
    pub expected_distortion: f64,
    /// Mean over pairs of `mean_T[dist_T]/euclid`.
    pub mean_ratio: f64,
    /// Worst single-tree ratio observed (no averaging) — bounds the
    /// tail, not the expectation.
    pub worst_single_tree: f64,
    /// Number of trees averaged.
    pub trees: usize,
    /// Pairs audited.
    pub pairs: usize,
}

/// Estimates the expected distortion of a randomized embedder by
/// averaging `trials` independently seeded trees.
///
/// `build(seed)` runs the embedder (sequential or MPC) for one seed.
pub fn estimate_expected_distortion(
    ps: &PointSet,
    trials: usize,
    mut build: impl FnMut(u64) -> Result<Embedding, EmbedError>,
) -> Result<DistortionEstimate, EmbedError> {
    let _sp = treeemb_obs::span!("audit.expected_distortion", "trials" = trials);
    assert!(trials >= 1);
    let n = ps.len();
    let mut sums = vec![0.0f64; n * n];
    let mut worst_single: f64 = 0.0;
    for t in 0..trials {
        let emb = build(t as u64)?;
        for i in 0..n {
            for j in (i + 1)..n {
                let td = emb.tree_distance(i, j);
                sums[i * n + j] += td;
                let e = dist(ps.point(i), ps.point(j));
                if e > 0.0 {
                    worst_single = worst_single.max(td / e);
                }
            }
        }
    }
    let mut max_ratio: f64 = 0.0;
    let mut sum_ratio = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let e = dist(ps.point(i), ps.point(j));
            if e == 0.0 {
                continue;
            }
            let mean_t = sums[i * n + j] / trials as f64;
            let ratio = mean_t / e;
            max_ratio = max_ratio.max(ratio);
            sum_ratio += ratio;
            pairs += 1;
        }
    }
    Ok(DistortionEstimate {
        expected_distortion: max_ratio,
        mean_ratio: if pairs > 0 {
            sum_ratio / pairs as f64
        } else {
            1.0
        },
        worst_single_tree: worst_single,
        trees: trials,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HybridParams;
    use crate::seq::{GridEmbedder, SeqEmbedder};
    use treeemb_geom::generators;

    #[test]
    fn domination_report_on_hybrid() {
        let ps = generators::uniform_cube(24, 8, 256, 1);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 2).unwrap();
        let rep = check_domination(&emb, &ps);
        assert!(rep.ok, "worst ratio {}", rep.worst_ratio);
        assert_eq!(rep.pairs, 24 * 23 / 2);
    }

    #[test]
    fn expected_distortion_estimator_runs() {
        let ps = generators::uniform_cube(12, 8, 128, 3);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let emb = SeqEmbedder::new(params);
        let est = estimate_expected_distortion(&ps, 6, |seed| emb.embed(&ps, seed)).unwrap();
        assert!(
            est.expected_distortion >= 1.0,
            "domination implies ratio >= 1"
        );
        assert!(est.expected_distortion <= est.worst_single_tree + 1e-9);
        assert_eq!(est.trees, 6);
    }

    #[test]
    fn averaging_tightens_the_estimate() {
        // E[dist_T]/dist <= worst single tree ratio, usually strictly.
        let ps = generators::uniform_cube(14, 8, 256, 5);
        let emb = GridEmbedder::for_dataset(&ps).unwrap();
        let est = estimate_expected_distortion(&ps, 8, |seed| emb.embed(&ps, seed)).unwrap();
        assert!(est.mean_ratio <= est.expected_distortion);
        assert!(est.expected_distortion < est.worst_single_tree * (1.0 + 1e-9));
    }

    #[test]
    fn duplicate_only_sets_have_no_pairs() {
        let ps = PointSet::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let params = HybridParams::for_dataset(&ps, 2).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 1).unwrap();
        let rep = check_domination(&emb, &ps);
        assert!(rep.ok);
        assert_eq!(rep.pairs, 0);
    }
}
