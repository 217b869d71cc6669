//! Distortion audits: compare embedded to original pairwise distances.

use treeemb_geom::metrics::dist;
use treeemb_geom::PointSet;

/// Summary of pairwise distortion of an embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct DistortionReport {
    /// Largest ratio `emb/orig` over all pairs (≥ 1 means expansion).
    pub max_expansion: f64,
    /// Smallest ratio `emb/orig` over all pairs (≤ 1 means contraction).
    pub max_contraction: f64,
    /// Mean ratio.
    pub mean_ratio: f64,
    /// Root-mean-square deviation of the ratio from 1.
    pub rms_deviation: f64,
    /// Number of pairs audited.
    pub pairs: usize,
}

impl DistortionReport {
    /// True when every pairwise ratio lies within `(1±xi)`.
    pub fn within(&self, xi: f64) -> bool {
        self.max_expansion <= 1.0 + xi && self.max_contraction >= 1.0 - xi
    }
}

/// Per-row partial of the pair sweep, folded in row order.
struct RowPartial {
    max_expansion: f64,
    max_contraction: f64,
    sum: f64,
    sum_sq_dev: f64,
    pairs: usize,
}

/// Audits all pairs (`O(n²·d)`): original vs embedded distances. Pairs
/// of coincident original points are skipped.
///
/// # Panics
/// Panics if the sets disagree on cardinality.
pub fn distortion_report(original: &PointSet, embedded: &PointSet) -> DistortionReport {
    assert_eq!(original.len(), embedded.len(), "point count mismatch");
    let _sp = treeemb_obs::span!("audit.distortion", "n" = original.len());
    let n = original.len();
    let rows = (0..n).map(|i| {
        let mut row = RowPartial {
            max_expansion: f64::MIN,
            max_contraction: f64::MAX,
            sum: 0.0,
            sum_sq_dev: 0.0,
            pairs: 0,
        };
        for j in (i + 1)..n {
            let orig = dist(original.point(i), original.point(j));
            if orig == 0.0 {
                continue;
            }
            let emb = dist(embedded.point(i), embedded.point(j));
            let ratio = emb / orig;
            row.max_expansion = row.max_expansion.max(ratio);
            row.max_contraction = row.max_contraction.min(ratio);
            row.sum += ratio;
            row.sum_sq_dev += (ratio - 1.0) * (ratio - 1.0);
            row.pairs += 1;
        }
        row
    });
    let mut max_expansion = f64::MIN;
    let mut max_contraction = f64::MAX;
    let mut sum = 0.0;
    let mut sum_sq_dev = 0.0;
    let mut pairs = 0usize;
    for row in rows {
        max_expansion = max_expansion.max(row.max_expansion);
        max_contraction = max_contraction.min(row.max_contraction);
        sum += row.sum;
        sum_sq_dev += row.sum_sq_dev;
        pairs += row.pairs;
    }
    if pairs == 0 {
        return DistortionReport {
            max_expansion: 1.0,
            max_contraction: 1.0,
            mean_ratio: 1.0,
            rms_deviation: 0.0,
            pairs: 0,
        };
    }
    DistortionReport {
        max_expansion,
        max_contraction,
        mean_ratio: sum / pairs as f64,
        rms_deviation: (sum_sq_dev / pairs as f64).sqrt(),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_embedding_has_unit_ratios() {
        let ps = PointSet::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]]);
        let r = distortion_report(&ps, &ps);
        assert_eq!(r.max_expansion, 1.0);
        assert_eq!(r.max_contraction, 1.0);
        assert_eq!(r.pairs, 3);
        assert!(r.within(0.01));
    }

    #[test]
    fn doubling_map_reports_expansion_two() {
        let a = PointSet::from_rows(&[vec![0.0], vec![1.0]]);
        let b = PointSet::from_rows(&[vec![0.0], vec![2.0]]);
        let r = distortion_report(&a, &b);
        assert_eq!(r.max_expansion, 2.0);
        assert!(!r.within(0.5));
    }

    #[test]
    fn coincident_pairs_are_skipped() {
        let a = PointSet::from_rows(&[vec![0.0], vec![0.0], vec![1.0]]);
        let b = PointSet::from_rows(&[vec![5.0], vec![9.0], vec![6.0]]);
        let r = distortion_report(&a, &b);
        assert_eq!(r.pairs, 2);
    }

    #[test]
    fn degenerate_sets_report_cleanly() {
        let a = PointSet::from_rows(&[vec![1.0]]);
        let r = distortion_report(&a, &a);
        assert_eq!(r.pairs, 0);
        assert!(r.within(0.0));
    }
}
