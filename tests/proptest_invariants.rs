//! Property-based tests of the core invariants, across crates.
//!
//! These are the paper's *deterministic* guarantees — they must hold for
//! every input and every seed, so they are stated as properties:
//!
//! * domination: `dist_T(p,q) ≥ ‖p−q‖₂` (Lemma 2), on integer input and
//!   on fractional, signed input of any magnitude;
//! * seq ≡ MPC: `pipeline::run` without the FJLT gives `SeqEmbedder`'s
//!   metric;
//! * the tree metric is a metric (symmetry + triangle inequality);
//! * partition diameter: points sharing a hybrid partition at scale `w`
//!   are within `2√r·w` (Lemma 1, second part);
//! * the normalized WHT is an involution and an isometry;
//! * grid/ball assignments are shift-consistent.

use proptest::prelude::*;
use treeemb::core::params::HybridParams;
use treeemb::core::pipeline::{self, PipelineConfig};
use treeemb::core::seq::SeqEmbedder;
use treeemb::core::EmbedError;
use treeemb::geom::{metrics, PointSet};
use treeemb::linalg::wht;
use treeemb::partition::for_each_node_id;
use treeemb::partition::hybrid::HybridLevel;

/// Strategy: a small integer point set in [1, 64]^d with d in 2..=6.
fn point_set() -> impl Strategy<Value = PointSet> {
    (2usize..=6, 2usize..=12).prop_flat_map(|(d, n)| {
        proptest::collection::vec(proptest::collection::vec(1i32..=64, d), n).prop_map(
            move |rows| {
                let rows: Vec<Vec<f64>> = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(f64::from).collect())
                    .collect();
                PointSet::from_rows(&rows)
            },
        )
    })
}

/// Strategy: a small point set with fractional, signed coordinates, as
/// the FJLT hands them to the scan, and the `min_sep` to embed it with.
/// `d` is in 2..=6; the spread runs from 10⁻³ to 10¹², and the whole set
/// sits up to `2.5·10¹¹` from the origin, where the fine levels' cells
/// are past the first-covering screen's guard. `min_sep` is 1% or 50%
/// of the spread. Half the sets end with a copy of their first point
/// moved by `10⁻⁴` of the spread, finer than either `min_sep`.
fn fractional_point_set() -> impl Strategy<Value = (PointSet, f64)> {
    let shape = (
        2usize..=6,
        2usize..=10,
        0usize..5,
        0usize..3,
        0usize..2,
        0usize..2,
    );
    shape.prop_flat_map(|(d, n, spread, offset, sep, near)| {
        let spread = [1e-3, 1.0, 37.5, 1e6, 1e12][spread];
        let offset = [0.0, -3.3e7, 2.5e11][offset];
        let min_sep = [1e-2, 0.5][sep] * spread;
        proptest::collection::vec(proptest::collection::vec(-1f64..1.0, d), n).prop_map(
            move |rows| {
                let mut rows: Vec<Vec<f64>> = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(|x| offset + x * spread).collect())
                    .collect();
                if near == 1 {
                    let mut twin = rows[0].clone();
                    twin[0] += 1e-4 * spread;
                    rows.push(twin);
                }
                (PointSet::from_rows(&rows), min_sep)
            },
        )
    })
}

/// Passes only the typed failures Theorem 1 allows, where they really
/// happened. A coverage failure (probability at most the `fail_prob` of
/// `params`) must name the smallest point id that some grid sequence of
/// `seed`'s levels leaves uncovered, and its first uncovered (level,
/// bucket). A separation failure must name a distinct pair closer than
/// the schedule resolves: the reported pair, and the closest pair, are
/// at most the reported `min_sep` apart.
fn check_typed_failure(
    ps: &PointSet,
    params: &HybridParams,
    seed: u64,
    err: &EmbedError,
) -> Result<(), TestCaseError> {
    if let EmbedError::CoverageFailure {
        level,
        bucket,
        point,
    } = *err
    {
        let levels = SeqEmbedder::new(params.clone()).build_levels(seed);
        let padded = ps.zero_pad(params.dim);
        let walk = |i: usize| for_each_node_id(&levels, padded.point(i), |_, _| {});
        prop_assert_eq!(walk(point), Err((level, bucket)));
        prop_assert!(
            (0..point).all(|i| walk(i).is_ok()),
            "{err}: an earlier point fails"
        );
        return Ok(());
    }
    let EmbedError::SeparationViolated {
        p,
        q,
        dist,
        min_sep,
        ..
    } = *err
    else {
        return Err(TestCaseError::fail(format!("unexpected error: {err}")));
    };
    let closest = metrics::pairwise_extremes(ps).map_or(f64::INFINITY, |(lo, _)| lo);
    prop_assert_eq!(dist, metrics::dist(ps.point(p), ps.point(q)));
    prop_assert!(
        dist > 0.0 && dist <= min_sep,
        "pair ({p},{q}) at {dist} vs min_sep {min_sep}"
    );
    prop_assert!(
        closest <= min_sep,
        "closest pair {closest} vs min_sep {min_sep}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn domination_holds_on_fractional_signed_input(
        (ps, min_sep) in fractional_point_set(),
        seed in 0u64..1000,
    ) {
        let r = 2.min(ps.dim());
        let fail_prob = PipelineConfig::default().fail_prob;
        let params = HybridParams::for_dataset_with_sep(&ps, r, min_sep, fail_prob).unwrap();
        match SeqEmbedder::new(params.clone()).embed(&ps, seed) {
            Ok(emb) => {
                for i in 0..ps.len() {
                    for j in (i + 1)..ps.len() {
                        let e = metrics::dist(ps.point(i), ps.point(j));
                        let t = emb.tree_distance(i, j);
                        prop_assert!(t >= e * (1.0 - 1e-9), "({i},{j}): tree {t} < euclid {e}");
                    }
                }
            }
            Err(e) => check_typed_failure(&ps, &params, seed, &e)?,
        }
    }

    #[test]
    fn pipeline_without_jl_matches_seq_on_fractional_signed_input(
        (ps, min_sep) in fractional_point_set(),
        seed in 0u64..1000,
        r in 1usize..=2,
    ) {
        let cfg = PipelineConfig::builder()
            .r(r)
            .seed(seed)
            .min_sep(min_sep)
            .skip_jl(true)
            .threads(2)
            .build();
        let params = HybridParams::for_dataset_with_sep(&ps, r, min_sep, cfg.fail_prob).unwrap();
        let seq = SeqEmbedder::new(params.clone()).embed(&ps, seed);
        let mpc = pipeline::run(&ps, &cfg).map(|report| report.embedding);
        match (seq, mpc) {
            (Ok(seq), Ok(mpc)) => {
                for i in 0..ps.len() {
                    for j in (i + 1)..ps.len() {
                        let (a, b) = (seq.tree_distance(i, j), mpc.tree_distance(i, j));
                        prop_assert!((a - b).abs() <= 1e-9 * a, "({i},{j}): seq {a} vs mpc {b}");
                    }
                }
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string());
                check_typed_failure(&ps, &params, seed, &a)?;
            }
            (a, b) => prop_assert!(false, "seq {:?} vs mpc {:?}", a.err(), b.err()),
        }
    }

    #[test]
    fn domination_holds_for_every_input_and_seed(ps in point_set(), seed in 0u64..1000) {
        let r = 2.min(ps.dim());
        let params = HybridParams::for_dataset(&ps, r).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, seed).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                let t = emb.tree_distance(i, j);
                prop_assert!(t >= e * (1.0 - 1e-9), "({i},{j}): tree {t} < euclid {e}");
            }
        }
    }

    #[test]
    fn tree_metric_satisfies_metric_axioms(ps in point_set(), seed in 0u64..1000) {
        let r = 2.min(ps.dim());
        let params = HybridParams::for_dataset(&ps, r).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, seed).unwrap();
        let n = ps.len();
        for i in 0..n {
            prop_assert_eq!(emb.tree_distance(i, i), 0.0);
            for j in 0..n {
                let dij = emb.tree_distance(i, j);
                prop_assert!((dij - emb.tree_distance(j, i)).abs() < 1e-12);
                for k in 0..n {
                    prop_assert!(
                        emb.tree_distance(i, k) <= dij + emb.tree_distance(j, k) + 1e-9,
                        "triangle violated"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hybrid_partition_diameter_bound(
        seed in 0u64..10_000,
        w in 0.5f64..64.0,
        coords in proptest::collection::vec((0f64..100.0, 0f64..100.0, 0f64..100.0, 0f64..100.0), 2..20),
    ) {
        let level = HybridLevel::new(4, 2, w, 600, seed);
        let bound = level.diameter_bound() + 1e-9;
        let points: Vec<[f64; 4]> = coords.iter().map(|&(a, b, c, d)| [a, b, c, d]).collect();
        let mut groups: std::collections::HashMap<_, Vec<usize>> = std::collections::HashMap::new();
        for (i, p) in points.iter().enumerate() {
            if let Some(a) = level.assign(p) {
                groups.entry(a).or_default().push(i);
            }
        }
        for members in groups.values() {
            for &a in members {
                for &b in members {
                    let d = metrics::dist(&points[a], &points[b]);
                    prop_assert!(d <= bound, "{d} > {bound} at w={w}");
                }
            }
        }
    }

    #[test]
    fn wht_is_involutive_isometry(data in proptest::collection::vec(-100f64..100.0, 1..=64)) {
        let mut padded = data.clone();
        padded.resize(wht::next_pow2(data.len()), 0.0);
        let original = padded.clone();
        let norm_before: f64 = padded.iter().map(|x| x * x).sum();
        wht::wht_normalized_inplace(&mut padded);
        let norm_after: f64 = padded.iter().map(|x| x * x).sum();
        prop_assert!((norm_before - norm_after).abs() <= 1e-9 * (1.0 + norm_before));
        wht::wht_normalized_inplace(&mut padded);
        for (a, b) in padded.iter().zip(&original) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn grid_cells_are_translation_consistent(
        seed in 0u64..10_000,
        x in -1000f64..1000.0,
        y in -1000f64..1000.0,
        k in -20i64..20,
    ) {
        // Shifting a point by exactly k cells moves its cell id by k.
        use treeemb::partition::grid::ShiftedGrid;
        let w = 4.0;
        let g = ShiftedGrid::from_seed(2, w, seed);
        let c0 = g.cell_of(&[x, y]);
        let c1 = g.cell_of(&[x + k as f64 * w, y]);
        prop_assert_eq!(c1[0], c0[0] + k);
        prop_assert_eq!(c1[1], c0[1]);
    }
}
