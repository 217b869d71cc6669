//! E11 — ablation (§1.3.2/§5): why the pipeline needs the FJLT. Without
//! dimension reduction, either the grid budget `U` explodes (small `r`)
//! or the `√r` distortion factor does (large `r`); with it, both stay
//! controlled and total space is near `O(nd)`.

use crate::{table::fnum, Scale, Table};
use treeemb_core::params::{estimate_grid_words, pipeline_r};
use treeemb_core::pipeline::{run as run_pipeline, PipelineConfig};
use treeemb_fjlt::fjlt::target_dimension;
use treeemb_geom::generators;

/// Runs E11.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = scale.pick(48, 128);
    let xi = 0.75;
    let mut analytic = Table::new(
        "E11a",
        "no-JL ablation, analytic: grid words and √(d·r) distortion factor vs d (min_sep=1, diag=√d·Δ)",
        &[
            "d",
            "r (m=5)",
            "√(d·r) factor",
            "grid words (no JL)",
            "k after JL",
            "r after JL",
            "√(k·r) factor",
            "grid words (JL)",
        ],
    );
    let delta = 1u64 << 10;
    for &d in &[64usize, 256, 1024, 4096] {
        let diag = (d as f64).sqrt() * delta as f64;
        let r_raw = pipeline_r(n, d);
        let words_raw = estimate_grid_words(n, d, r_raw, diag, 1.0, 1e-3);
        let k = target_dimension(n, xi).min(d);
        let r_jl = pipeline_r(n, k);
        let words_jl = estimate_grid_words(n, k, r_jl, diag, 1.0 - xi, 1e-3);
        analytic.row(vec![
            d.to_string(),
            r_raw.to_string(),
            fnum(((d.div_ceil(r_raw) * r_raw * r_raw) as f64).sqrt()),
            words_raw.to_string(),
            k.to_string(),
            r_jl.to_string(),
            fnum(((k.div_ceil(r_jl) * r_jl * r_jl) as f64).sqrt()),
            words_jl.to_string(),
        ]);
    }

    // Measured: run the pipeline with and without the JL step on a
    // moderate d and compare resources (forcing no-JL by xi≈1 keeps the
    // target above d).
    let mut measured = Table::new(
        "E11b",
        "measured pipeline with/without JL (d=256)",
        &[
            "variant",
            "rounds",
            "peak machine words",
            "peak total words",
            "r used",
        ],
    );
    let d = 256;
    let ps = generators::noisy_line(n, d, 1 << 10, 1.0, 9);
    let with_jl = run_pipeline(&ps, &PipelineConfig::builder().xi(xi).threads(4).build())
        .expect("with-JL pipeline failed");
    measured.row(vec![
        "FJLT + hybrid".into(),
        with_jl.rounds.to_string(),
        with_jl.peak_machine_words.to_string(),
        with_jl.peak_total_words.to_string(),
        with_jl.params.r.to_string(),
    ]);
    let no_jl = run_pipeline(
        &ps,
        &PipelineConfig::builder()
            .xi(xi)
            .skip_jl(true)
            .threads(4)
            .build(),
    );
    match no_jl {
        Ok(rep) => measured.row(vec![
            "hybrid only".into(),
            rep.rounds.to_string(),
            rep.peak_machine_words.to_string(),
            rep.peak_total_words.to_string(),
            rep.params.r.to_string(),
        ]),
        Err(e) => measured.row(vec![
            format!("hybrid only: FAILED ({e})"),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]),
    }
    vec![analytic, measured]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_jl_reduces_distortion_factor_at_high_d() {
        let tables = run(Scale::quick());
        let a = &tables[0];
        for row in &a.rows {
            let raw: f64 = row[2].parse().unwrap();
            let jl: f64 = row[6].parse().unwrap();
            let d: usize = row[0].parse().unwrap();
            if d >= 1024 {
                assert!(jl < raw, "JL should shrink the √(dr) factor at d={d}");
            }
        }
    }
}
