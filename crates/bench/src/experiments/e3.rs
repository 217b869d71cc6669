//! E3 — Theorem 3: FJLT distortion `(1±ξ)`, sparse `|P|` vs dense `d·k`,
//! O(1) MPC rounds.

use crate::{table::fnum, Scale, Table};
use treeemb_fjlt::audit::distortion_report;
use treeemb_fjlt::fjlt::{Fjlt, FjltParams};
use treeemb_fjlt::mpc::fjlt_mpc;
use treeemb_geom::generators;
use treeemb_mpc::{MpcConfig, Runtime};

/// Runs E3.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = scale.pick(48, 160);
    let mut t = Table::new(
        "E3",
        "FJLT quality & cost (Theorem 3: all-pairs (1±ξ), |P| = O(ξ⁻²log³n) ≪ d·k, O(1) rounds)",
        &[
            "n",
            "d",
            "xi",
            "k",
            "max expansion",
            "max contraction",
            "|P| nnz",
            "dense d*k",
            "space saving",
            "MPC rounds",
            "max |seq−mpc|",
        ],
    );
    let ds = scale.pick(vec![256usize, 1024], vec![512usize, 2048, 8192]);
    for &d in &ds {
        for &xi in &[0.25f64, 0.5] {
            let ps = generators::noisy_line(n, d, 1 << 12, 2.0, 17 + d as u64);
            let params = FjltParams::for_dataset(n, d, xi, 55);
            let f = Fjlt::new(params);
            let seq = f.apply(&ps);
            let report = distortion_report(&ps, &seq);
            let dense = params.k * params.d_pad;
            // MPC run (capacity sized for the WHT classes + P fan-out).
            let cap = (8 * n * params.d_pad / 4).max(1 << 14);
            let mut rt = Runtime::builder()
                .config(MpcConfig::explicit(n * d, cap, 8).with_threads(4))
                .build();
            let par = fjlt_mpc(&mut rt, &ps, &params).expect("mpc fjlt failed");
            let mut max_diff: f64 = 0.0;
            for i in 0..ps.len() {
                for j in 0..params.k {
                    max_diff = max_diff.max((seq.point(i)[j] - par.point(i)[j]).abs());
                }
            }
            t.row(vec![
                n.to_string(),
                d.to_string(),
                fnum(xi),
                params.k.to_string(),
                fnum(report.max_expansion),
                fnum(report.max_contraction),
                f.projection_nnz().to_string(),
                dense.to_string(),
                format!("{:.1}x", dense as f64 / f.projection_nnz().max(1) as f64),
                rt.metrics().rounds().to_string(),
                fnum(max_diff),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_mpc_matches_sequential_and_rounds_are_constant() {
        let tables = run(Scale::quick());
        let t = &tables[0];
        for row in &t.rows {
            let diff: f64 = row[10].parse().unwrap();
            assert!(diff < 1e-8, "seq/mpc divergence {diff}");
            let rounds: usize = row[9].parse().unwrap();
            assert!(rounds <= 12, "rounds {rounds}");
        }
    }
}
