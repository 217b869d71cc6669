//! End-to-end tests of the `treeemb` CLI binary.

use std::process::Command;
use treeemb::prelude::{HybridParams, SeqEmbedder};

fn treeemb(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_treeemb"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("treeemb-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn gen_embed_mst_pipeline() {
    let pts = tmp("pipe.csv");
    let tree = tmp("pipe.json");
    let (ok, out, err) = treeemb(&["gen", "--n", "40", "--d", "6", "--seed", "3", "--out", &pts]);
    assert!(ok, "gen failed: {err}");
    assert!(out.contains("wrote 40 x 6"));

    let (ok, out, err) = treeemb(&[
        "embed", "--input", &pts, "--r", "3", "--seed", "5", "--out", &tree,
    ]);
    assert!(ok, "embed failed: {err}");
    assert!(out.contains("embedded n=40"));

    // The saved tree round-trips through the persistence layer.
    let json = std::fs::read_to_string(&tree).unwrap();
    let t = treeemb::hst::Hst::from_json(&json).unwrap();
    assert_eq!(t.num_points(), 40);
    // It is the library's tree for the same points, schedule and seed,
    // byte for byte.
    let ps = treeemb::io::points_from_csv(&std::fs::read_to_string(&pts).unwrap()).unwrap();
    let params = HybridParams::for_dataset(&ps, 3).unwrap();
    let emb = SeqEmbedder::new(params).embed(&ps, 5).unwrap();
    assert_eq!(json, emb.tree.to_json());

    let (ok, out, err) = treeemb(&["mst", "--input", &pts, "--r", "3", "--exact"]);
    assert!(ok, "mst failed: {err}");
    assert!(out.contains("approximation ratio"));
    let ratio: f64 = out
        .lines()
        .find(|l| l.contains("ratio"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("ratio parses");
    assert!((1.0..20.0).contains(&ratio), "ratio {ratio}");
}

/// A zero-cost exact MST (one point, or only duplicates) prints no
/// approximation ratio, where dividing by it printed `NaN`.
#[test]
fn mst_exact_prints_no_ratio_for_a_zero_cost_tree() {
    for (name, csv) in [("mst-one.csv", "3,4\n"), ("mst-dups.csv", "1,2\n1,2\n")] {
        let pts = tmp(name);
        std::fs::write(&pts, csv).unwrap();
        let (ok, out, err) = treeemb(&["mst", "--input", &pts, "--exact"]);
        assert!(ok, "{name}: {err}");
        assert!(
            out.contains("exact MST (Prim): cost 0.000"),
            "{name}: {out}"
        );
        assert!(
            !out.contains("ratio") && !out.contains("NaN"),
            "{name}: {out}"
        );
    }
}

#[test]
fn emd_and_kmedian_subcommands() {
    let pts = tmp("apps.csv");
    let (ok, _, err) = treeemb(&[
        "gen", "--n", "30", "--d", "6", "--kind", "clusters", "--seed", "9", "--out", &pts,
    ]);
    assert!(ok, "{err}");

    let (ok, out, err) = treeemb(&[
        "emd", "--input", &pts, "--split", "10", "--trees", "3", "--exact",
    ]);
    assert!(ok, "emd failed: {err}");
    assert!(out.contains("tree EMD") && out.contains("exact EMD"));

    let (ok, out, err) = treeemb(&["kmedian", "--input", &pts, "--k", "2", "--trees", "3"]);
    assert!(ok, "kmedian failed: {err}");
    assert!(out.contains("2-median"));
}

/// Tree `t` of a run uses seed `seed + t`, wrapping at `u64::MAX`: a
/// two-tree run at the largest seed embeds with seeds `u64::MAX` and 0.
const MAX_SEED: &str = "18446744073709551615";

fn clusters_csv(name: &str) -> String {
    let pts = tmp(name);
    let (ok, _, err) = treeemb(&[
        "gen", "--n", "24", "--d", "4", "--kind", "clusters", "--seed", "5", "--out", &pts,
    ]);
    assert!(ok, "{err}");
    pts
}

#[test]
fn emd_wraps_the_largest_seed() {
    let pts = clusters_csv("emd-seed.csv");
    let emd = |seed: &str, trees: &str| -> f64 {
        let (ok, out, err) = treeemb(&[
            "emd", "--input", &pts, "--split", "5", "--seed", seed, "--trees", trees,
        ]);
        assert!(ok, "emd --seed {seed} --trees {trees} failed: {err}");
        out.split("): ")
            .nth(1)
            .and_then(|v| v.split(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("tree EMD parses from {out}"))
    };
    let both = emd(MAX_SEED, "2");
    let mean = (emd(MAX_SEED, "1") + emd("0", "1")) / 2.0;
    assert!((both - mean).abs() <= 1e-3, "{both} vs {mean}");
}

#[test]
fn kmedian_wraps_the_largest_seed() {
    let pts = clusters_csv("kmedian-seed.csv");
    let best = |seed: &str, trees: &str| -> (f64, String) {
        let (ok, out, err) = treeemb(&[
            "kmedian", "--input", &pts, "--k", "3", "--seed", seed, "--trees", trees,
        ]);
        assert!(ok, "kmedian --seed {seed} --trees {trees} failed: {err}");
        let answer = out.split("cost ").nth(1).expect("cost printed").trim();
        let cost = answer.split(',').next().unwrap().parse().unwrap();
        (cost, answer.to_string())
    };
    let (last, first) = (best(MAX_SEED, "1"), best("0", "1"));
    let want = if first.0 < last.0 { first } else { last };
    assert_eq!(best(MAX_SEED, "2").1, want.1);
}

#[test]
fn bad_usage_reports_errors() {
    let (ok, _, err) = treeemb(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown subcommand"));

    let (ok, _, err) = treeemb(&["embed"]);
    assert!(!ok);
    assert!(err.contains("--input"));

    let pts = tmp("bad.csv");
    std::fs::write(&pts, "1,2\n3\n").unwrap();
    let (ok, _, err) = treeemb(&["embed", "--input", &pts]);
    assert!(!ok);
    assert!(err.contains("columns"), "stderr: {err}");

    // A flag the subcommand does not take is an error, not ignored.
    let (ok, _, err) = treeemb(&["embed", "--input", &pts, "--sed", "7"]);
    assert!(!ok);
    assert!(err.contains("--sed"), "stderr: {err}");
    let (ok, _, err) = treeemb(&["embed", "--input", &pts, "--exact"]);
    assert!(!ok);
    assert!(err.contains("--exact"), "stderr: {err}");

    // Zero values that would panic or print a meaningless answer are
    // usage errors naming the flag.
    let good = tmp("zero.csv");
    std::fs::write(&good, "0,0\n1,1\n2,0\n3,1\n").unwrap();
    let (ok, _, err) = treeemb(&["embed", "--input", &good, "--r", "0"]);
    assert!(!ok);
    assert!(err.contains("r = 0"), "stderr: {err}");
    let (ok, _, err) = treeemb(&["kmedian", "--input", &good, "--k", "2", "--trees", "0"]);
    assert!(!ok);
    assert!(err.contains("--trees"), "stderr: {err}");
    let (ok, _, err) = treeemb(&["emd", "--input", &good, "--split", "2", "--trees", "0"]);
    assert!(!ok);
    assert!(err.contains("--trees"), "stderr: {err}");
}

/// `gen` with a zero size is a usage error naming the flag (exit 1), not
/// a library panic (exit 101) or a file no other subcommand reads.
#[test]
fn gen_rejects_zero_sizes() {
    let pts = tmp("zero-size.csv");
    for flag in ["--n", "--d", "--delta"] {
        let mut args = vec!["gen", "--n", "5", "--d", "2", "--delta", "8", "--out", &pts];
        let at = args.iter().position(|a| *a == flag).unwrap();
        args[at + 1] = "0";
        let out = Command::new(env!("CARGO_BIN_EXE_treeemb"))
            .args(&args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 0: {err}");
        assert!(err.contains(&format!("{flag} must")), "{flag} 0: {err}");
    }
}

/// A coordinate span whose bounding-box diagonal overflows `f64` is a
/// clean error naming the diagonal, not a library panic (exit 101).
#[test]
fn overflowing_coordinates_are_a_typed_error() {
    let huge = tmp("huge.csv");
    std::fs::write(&huge, "0,0\n1e300,1\n2,3\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_treeemb"))
        .args(["embed", "--input", &huge])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert_ne!(out.status.code(), Some(101), "panicked: {err}");
    assert!(err.contains("diagonal"), "stderr: {err}");
}

/// Distinct points closer than the level schedule separates used to
/// share every level silently (tree distance 0, domination broken); the
/// embedder now reports the pair, its distance and the resolved
/// `min_sep`.
#[test]
fn points_finer_than_the_schedule_are_a_typed_error() {
    let line = tmp("line64.csv");
    let rows: Vec<String> = (0..64)
        .map(|i| format!("{},0\n", f64::from(i) * 0.01))
        .collect();
    std::fs::write(&line, rows.concat()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_treeemb"))
        .args(["embed", "--input", &line, "--r", "4", "--seed", "7"])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(
        err.contains("0.01 apart") && err.contains("min_sep = 0.5"),
        "stderr: {err}"
    );
}

#[test]
fn help_prints_usage() {
    let (ok, out, _) = treeemb(&["help"]);
    assert!(ok);
    assert!(out.contains("subcommands"));

    // `--help` / `-h` after any subcommand, wherever a flag may stand.
    for args in [
        &["embed", "--help"][..],
        &["mst", "-h"],
        &["gen", "--n", "4", "--help"],
        &["kmedian", "--k", "2", "-h"],
    ] {
        let (ok, out, err) = treeemb(args);
        assert!(ok, "{args:?}: {err}");
        assert!(out.contains("subcommands"), "{args:?}");
    }
}
