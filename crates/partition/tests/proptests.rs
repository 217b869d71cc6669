//! Property tests for the partitioning layer: geometric invariants that
//! must hold for every point, scale, and seed.
//!
//! Case count defaults to 64 (fast, every CI run); set
//! `TREEEMB_PROPTEST_CASES=2048` (or higher) for the promoted nightly
//! sweep — in particular the node-id chain vs materialized-assignment
//! parity property, which guards the grouping every embedder uses.

use proptest::prelude::*;
use treeemb_geom::metrics::dist;
use treeemb_partition::ball::{BallGrid, GridSequence};
use treeemb_partition::grid::ShiftedGrid;
use treeemb_partition::hybrid::HybridLevel;
use treeemb_partition::StructuralHash;

/// `TREEEMB_PROPTEST_CASES` override, defaulting to 64.
fn cases() -> u32 {
    // lint:allow(env-read): test-harness knob (case-count budget), not
    // runtime configuration.
    std::env::var("TREEEMB_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn covered_point_is_within_radius_of_its_ball(
        seed in 0u64..100_000,
        x in -500f64..500.0,
        y in -500f64..500.0,
        w in 0.5f64..50.0,
    ) {
        let g = BallGrid::from_seed(2, 4.0 * w, w, seed);
        if let Some(cell) = g.ball_of(&[x, y]) {
            // Reconstruct the ball center: shift + cell * cell-length.
            let center: Vec<f64> = cell
                .iter()
                .zip(g.shift())
                .map(|(&c, &s)| s + c as f64 * 4.0 * w)
                .collect();
            prop_assert!(dist(&center, &[x, y]) <= w * (1.0 + 1e-9));
        }
    }

    #[test]
    fn points_in_same_ball_are_within_diameter(
        seed in 0u64..100_000,
        x in -100f64..100.0,
        y in -100f64..100.0,
        dx in -10f64..10.0,
        dy in -10f64..10.0,
        w in 1.0f64..20.0,
    ) {
        let g = BallGrid::from_seed(2, 4.0 * w, w, seed);
        let p = [x, y];
        let q = [x + dx, y + dy];
        if let (Some(cp), Some(cq)) = (g.ball_of(&p), g.ball_of(&q)) {
            if cp == cq {
                prop_assert!(dist(&p, &q) <= 2.0 * w * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn sequence_assignment_respects_priority(
        seed in 0u64..100_000,
        x in -100f64..100.0,
        y in -100f64..100.0,
    ) {
        let seq = GridSequence::build(2, 2.0, 40, seed);
        if let Some(a) = seq.assign(&[x, y]) {
            for u in 0..a.grid_index as usize {
                prop_assert!(
                    seq.grids()[u].ball_of(&[x, y]).is_none(),
                    "earlier grid {u} covered the point"
                );
            }
        }
    }

    #[test]
    fn grid_cells_partition_space_consistently(
        seed in 0u64..100_000,
        x in -1000f64..1000.0,
        w in 0.1f64..100.0,
    ) {
        // A point strictly inside a cell stays in the same cell under
        // tiny perturbation.
        let g = ShiftedGrid::from_seed(1, w, seed);
        let cell = g.cell_of(&[x]);
        let lo = g.cell_of(&[x - 1e-12 * w]);
        let hi = g.cell_of(&[x + 1e-12 * w]);
        prop_assert!(cell == lo || cell == hi);
    }

    #[test]
    fn hybrid_equals_bucketwise_ball_partitions(
        seed in 0u64..100_000,
        coords in proptest::collection::vec(-50f64..50.0, 6),
    ) {
        // Definition 3: the hybrid assignment IS the tuple of per-bucket
        // ball assignments of the projections.
        let lvl = HybridLevel::new(6, 3, 5.0, 200, seed);
        let p: Vec<f64> = coords;
        if let Some(a) = lvl.assign(&p) {
            prop_assert_eq!(a.buckets.len(), 3);
            for (j, seq) in lvl.sequences().iter().enumerate() {
                let proj = &p[j * 2..(j + 1) * 2];
                let direct = seq.assign(proj).expect("bucket covered in hybrid");
                prop_assert_eq!(&a.buckets[j], &direct);
            }
        }
    }

    #[test]
    fn chain_and_materialized_assignments_induce_identical_partitions(
        seed in 0u64..100_000,
        bucket_dim in 1usize..4,
        r in 1usize..4,
        w in 0.5f64..20.0,
        probe in 0u64..1000,
    ) {
        // The streamed node-id chain must group points exactly as the
        // materialized per-bucket assignments do, for every geometry.
        let dim = bucket_dim * r;
        let lvl = HybridLevel::new(dim, r, w, 40, seed);
        let point = |t: u64| -> Vec<f64> {
            (0..dim)
                .map(|j| {
                    let u = treeemb_linalg::random::unit_f64(probe ^ 0x9E37, t * 31 + j as u64);
                    (u - 0.5) * 80.0
                })
                .collect()
        };
        let pts: Vec<Vec<f64>> = (0..12).map(point).collect();
        let exact: Vec<_> = pts.iter().map(|p| lvl.assign(p)).collect();
        let chains: Vec<_> = pts
            .iter()
            .map(|p| lvl.absorb_assignment_into(p, StructuralHash::root()))
            .collect();
        for (e, c) in exact.iter().zip(&chains) {
            prop_assert_eq!(e.is_some(), c.is_ok());
        }
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if exact[i].is_some() && exact[j].is_some() {
                    prop_assert_eq!(exact[i] == exact[j], chains[i] == chains[j]);
                }
            }
        }
    }

    #[test]
    fn first_covering_matches_per_grid_ball_of_scan(
        seed in 0u64..100_000,
        dim in 1usize..=8,
        count_index in 0usize..10,
        factor_index in 0usize..4,
        w in 0.25f64..20.0,
        kind in 0u8..7,
        target in 0usize..100_000,
        lattice in -4i64..4,
        nudge in -3i32..=3,
        unit in proptest::collection::vec(-1f64..1.0, 8),
    ) {
        // The f32 screen plus f64 confirm against the per-grid reference
        // on random points, points near a chosen grid's ball centre,
        // rounding ties, coordinates far out (up to 2^37 cells, screened),
        // on both sides of the screen guard (2^50 cells) and up to 1e17
        // cells (where only `round` is exact), non-finite input, points
        // near a vertex of the unshifted lattice (where a padding lane
        // past grid U − 1 would pass the screen if its phase were 0, not
        // NaN), and points a few ulps across a chosen ball's boundary.
        // 7, 9, 63, 65 and 71 sit at the lane-group and block boundaries
        // (LANES ∓ 1, BLOCK ∓ 1, BLOCK + LANES − 1 at 8 lanes and 64-grid
        // blocks).
        let count = [1, 7, 8, 9, 13, 63, 65, 71, 72, 1039][count_index];
        let factor = [2.0, 2.5, 3.0, 4.0][factor_index];
        let cell = factor * w;
        let seq = GridSequence::build_with_cell_factor(dim, w, factor, count, seed);
        let grids = seq.grids();
        let grid = &grids[target % count];
        let s = grid.shift();
        let j0 = target % dim;
        let centre = |j: usize| s[j] + lattice as f64 * cell;
        let p: Vec<f64> = match kind {
            6 => {
                // Bisect the ray from the centre along `unit` down to
                // adjacent floats, where the reference's sum crosses w².
                let home = grid.ball_of(&(0..dim).map(centre).collect::<Vec<_>>());
                let at = |lam: f64| -> Vec<f64> {
                    (0..dim).map(|j| centre(j) + lam * unit[j]).collect()
                };
                let norm = unit[..dim].iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-3);
                let (mut lo, mut hi) = (0.0f64, 1.5 * w / norm);
                for _ in 0..2100 {
                    let mid = lo + (hi - lo) / 2.0;
                    if mid <= lo || mid >= hi {
                        break;
                    }
                    if grid.ball_of(&at(mid)) == home {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                let mut lam = if nudge < 0 { lo } else { hi };
                for _ in 0..nudge.unsigned_abs() {
                    lam = if nudge < 0 { lam.next_down() } else { lam.next_up() };
                }
                at(lam)
            }
            _ => (0..dim)
                .map(|j| match kind {
                    0 => unit[j] * 40.0 * w,
                    1 => centre(j) + unit[j] * w,
                    2 if j == j0 => centre(j) + 0.5 * cell,
                    2 => centre(j),
                    3 => unit[j] * [2f64.powi(37), 2f64.powi(51), 1e17][target % 3] * cell,
                    4 if j == j0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][target % 3],
                    4 => unit[j] * 40.0 * w,
                    _ => lattice as f64 * cell + unit[j] * w / 4.0,
                })
                .collect(),
        };
        let slow = grids
            .iter()
            .position(|g| g.ball_of(&p).is_some())
            .map(|u| u as u32);
        prop_assert_eq!(seq.first_covering(&p), slow);
    }

    #[test]
    fn cell_factor_two_covers_dimension_one_completely(
        seed in 0u64..100_000,
        x in -1000f64..1000.0,
        w in 0.5f64..50.0,
    ) {
        // In 1-D with cell = 2w, every point is within w of some vertex.
        let seq = GridSequence::build_with_cell_factor(1, w, 2.0, 1, seed);
        prop_assert!(seq.assign(&[x]).is_some());
    }
}
