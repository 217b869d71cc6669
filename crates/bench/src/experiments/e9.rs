//! E9 — Corollary 1(3): tree EMD vs exact Hungarian EMD.

use crate::{table::fnum, Scale, Table};
use treeemb_apps::emd::{exact_emd, tree_emd};
use treeemb_core::params::HybridParams;
use treeemb_core::seq::{GridEmbedder, SeqEmbedder};
use treeemb_geom::generators;

/// Runs E9.
pub fn run(scale: Scale) -> Vec<Table> {
    let seeds = scale.pick(4u64, 10);
    let mut t = Table::new(
        "E9",
        "EMD approximation (Cor 1(3): EMD ≤ E[EMD_T] ≤ O~(log^1.5 n)·EMD; hybrid vs grid)",
        &[
            "pairs",
            "d",
            "exact EMD",
            "hybrid E[EMD_T]/EMD",
            "grid E[EMD_T]/EMD",
            "hybrid/grid",
        ],
    );
    let sizes = scale.pick(vec![8usize, 16], vec![16usize, 32, 64]);
    for &half in &sizes {
        let n = 2 * half;
        let d = 8;
        let ps = generators::gaussian_clusters(n, d, 3, 3.0, 1 << 10, 5 + n as u64);
        let a: Vec<usize> = (0..half).collect();
        let b: Vec<usize> = (half..n).collect();
        let exact = exact_emd(&ps, &a, &b).max(1e-12);
        let hybrid = SeqEmbedder::new(HybridParams::for_dataset(&ps, 4).unwrap());
        let grid = GridEmbedder::for_dataset(&ps).unwrap();
        let mut h_sum = 0.0;
        let mut g_sum = 0.0;
        for s in 0..seeds {
            h_sum += tree_emd(&hybrid.embed(&ps, 200 + s).unwrap(), &a, &b);
            g_sum += tree_emd(&grid.embed(&ps, 200 + s).unwrap(), &a, &b);
        }
        let h_ratio = h_sum / seeds as f64 / exact;
        let g_ratio = g_sum / seeds as f64 / exact;
        t.row(vec![
            half.to_string(),
            d.to_string(),
            fnum(exact),
            fnum(h_ratio),
            fnum(g_ratio),
            fnum(h_ratio / g_ratio),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_tree_emd_dominates_and_is_bounded() {
        let tables = run(Scale::quick());
        for row in &tables[0].rows {
            let h: f64 = row[3].parse().unwrap();
            assert!(h >= 1.0 - 1e-9, "tree EMD must dominate, got {h}");
            assert!(h < 80.0, "hybrid EMD ratio {h} beyond theory scale");
        }
    }
}
