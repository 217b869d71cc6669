//! E8 — Corollary 1(2): tree-guided MST vs exact Prim, hybrid vs grid
//! embeddings across `n`.

use crate::{table::fnum, Scale, Table};
use treeemb_apps::exact::prim;
use treeemb_apps::mst::tree_mst;
use treeemb_core::params::HybridParams;
use treeemb_core::seq::{GridEmbedder, SeqEmbedder};
use treeemb_geom::generators;

/// Runs E8.
pub fn run(scale: Scale) -> Vec<Table> {
    let seeds = scale.pick(3u64, 8);
    let mut t = Table::new(
        "E8",
        "MST approximation ratio vs n (Cor 1(2); hybrid should beat the grid baseline)",
        &[
            "n",
            "d",
            "exact cost",
            "hybrid ratio",
            "grid ratio",
            "hybrid/grid",
        ],
    );
    let ns = scale.pick(vec![32usize, 64], vec![64usize, 128, 256, 512]);
    for &n in &ns {
        let d = 8;
        let ps = generators::gaussian_clusters(n, d, 4, 4.0, 1 << 10, 3 + n as u64);
        let exact = prim::mst(&ps).cost;
        let hp = HybridParams::for_dataset(&ps, 4).unwrap();
        let hybrid = SeqEmbedder::new(hp);
        let grid = GridEmbedder::for_dataset(&ps).unwrap();
        let mut h_sum = 0.0;
        let mut g_sum = 0.0;
        for s in 0..seeds {
            let he = hybrid.embed(&ps, 100 + s).unwrap();
            let ge = grid.embed(&ps, 100 + s).unwrap();
            let hst = tree_mst(&he, &ps);
            let gst = tree_mst(&ge, &ps);
            assert!(prim::is_spanning_tree(n, &hst.edges));
            assert!(prim::is_spanning_tree(n, &gst.edges));
            h_sum += hst.cost / exact;
            g_sum += gst.cost / exact;
        }
        let h_ratio = h_sum / seeds as f64;
        let g_ratio = g_sum / seeds as f64;
        t.row(vec![
            n.to_string(),
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
    fn e8_ratios_are_sane() {
        let tables = run(Scale::quick());
        for row in &tables[0].rows {
            let h: f64 = row[3].parse().unwrap();
            let g: f64 = row[4].parse().unwrap();
            assert!(h >= 1.0 - 1e-9 && g >= 1.0 - 1e-9);
            assert!(h < 12.0, "hybrid MST ratio {h} out of range");
            assert!(g < 20.0, "grid MST ratio {g} out of range");
        }
    }
}
