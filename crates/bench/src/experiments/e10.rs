//! E10 — headline scaling. Two views:
//!
//! (a) distortion vs `n` with `Δ = n²` (the paper's aspect-ratio regime;
//!     hybrid tracks a `log^1.5`-shaped curve, grid a `log²` one);
//! (b) distortion vs `d` at fixed `r` — the gap the paper proves:
//!     hybrid's `√(d·r)·logΔ` grows like `√d` while grid's `d·logΔ`
//!     grows linearly, so the grid/hybrid ratio should rise ≈ `√(d/r)`.
//!     This is the regime ("high dimensional spaces") the title is
//!     about; at small `d` the ball-boundary constant hides the gap.

use crate::{table::fnum, Scale, Table};
use treeemb_core::audit::estimate_expected_distortion;
use treeemb_core::params::HybridParams;
use treeemb_core::seq::{GridEmbedder, SeqEmbedder};
use treeemb_geom::generators;

/// Runs E10.
pub fn run(scale: Scale) -> Vec<Table> {
    let trials = scale.pick(6, 16);

    // (a) vs n.
    let mut ta = Table::new(
        "E10a",
        "expected distortion vs n with Δ = n² (d=16, r=4)",
        &[
            "n",
            "Δ",
            "hybrid α (max)",
            "grid α (max)",
            "hybrid mean",
            "grid mean",
            "grid/hybrid (mean)",
            "log^1.5 n (ref)",
            "log² n (ref)",
        ],
    );
    let ns = scale.pick(vec![16usize, 32, 64], vec![32usize, 64, 128, 256]);
    for &n in &ns {
        let delta = (n * n) as u64;
        let d = 16;
        let ps = generators::uniform_cube(n, d, delta, 11 + n as u64);
        let hybrid = SeqEmbedder::new(HybridParams::for_dataset(&ps, 4).unwrap());
        let grid = GridEmbedder::for_dataset(&ps).unwrap();
        let h = estimate_expected_distortion(&ps, trials, |s| hybrid.embed(&ps, s)).unwrap();
        let g = estimate_expected_distortion(&ps, trials, |s| grid.embed(&ps, s)).unwrap();
        let ln2 = (n as f64).ln() / std::f64::consts::LN_2;
        ta.row(vec![
            n.to_string(),
            delta.to_string(),
            fnum(h.expected_distortion),
            fnum(g.expected_distortion),
            fnum(h.mean_ratio),
            fnum(g.mean_ratio),
            fnum(g.mean_ratio / h.mean_ratio),
            fnum(ln2.powf(1.5)),
            fnum(ln2 * ln2),
        ]);
    }

    // (b) vs d at fixed r.
    let mut tb = Table::new(
        "E10b",
        "expected distortion vs d at fixed r=4 (Δ=2^10): grid grows ~d, hybrid ~√(4d); ratio ≈ √(d/r)·const",
        &["d", "m=d/4", "hybrid mean", "grid mean", "grid/hybrid (mean)", "√(d/r) (ref)"],
    );
    let n = scale.pick(40, 96);
    let ds = scale.pick(vec![8usize, 16, 24], vec![8usize, 16, 24, 28]);
    for &d in &ds {
        let ps = generators::uniform_cube(n, d, 1 << 10, 19 + d as u64);
        let hybrid = SeqEmbedder::new(HybridParams::for_dataset(&ps, 4).unwrap());
        let grid = GridEmbedder::for_dataset(&ps).unwrap();
        let h = estimate_expected_distortion(&ps, trials, |s| hybrid.embed(&ps, s)).unwrap();
        let g = estimate_expected_distortion(&ps, trials, |s| grid.embed(&ps, s)).unwrap();
        tb.row(vec![
            d.to_string(),
            d.div_ceil(4).to_string(),
            fnum(h.mean_ratio),
            fnum(g.mean_ratio),
            fnum(g.mean_ratio / h.mean_ratio),
            fnum((d as f64 / 4.0).sqrt()),
        ]);
    }
    vec![ta, tb]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_gap_grows_with_dimension() {
        let tables = run(Scale::quick());
        let tb = &tables[1];
        let first: f64 = tb.rows.first().unwrap()[4].parse().unwrap();
        let last: f64 = tb.rows.last().unwrap()[4].parse().unwrap();
        assert!(
            last > first * 0.95,
            "grid/hybrid ratio should not shrink with d: {first} -> {last}"
        );
        // At the largest d the hybrid should be at least competitive.
        assert!(last > 0.85, "hybrid loses badly at high d: ratio {last}");
    }
}
