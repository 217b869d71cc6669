//! `treeemb` — command-line front end.
//!
//! ```text
//! treeemb gen   --n 200 --d 8 --delta 1024 --kind uniform --out points.csv
//! treeemb embed --input points.csv --r 4 --seed 7 --out tree.json [--dot tree.dot]
//! treeemb mst   --input points.csv [--seed 7] [--exact]
//! treeemb emd   --input points.csv --split 100 [--seed 7] [--trees 5]
//! treeemb kmedian --input points.csv --k 3 [--seed 7]
//! ```
//!
//! CSV format: one point per line, comma-separated coordinates; `#`
//! comments allowed. Trees are saved as JSON edge-list documents
//! (`treeemb::hst::persist`).

use std::collections::HashMap;
use std::process::ExitCode;
use treeemb::apps::emd::{exact_emd, tree_emd};
use treeemb::apps::exact::prim;
use treeemb::apps::kmedian::{kmedian_cost_euclid, tree_kmedian};
use treeemb::apps::mst::tree_mst;
use treeemb::io::{points_from_csv, points_to_csv};
use treeemb::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `treeemb help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let Some(&(_, values, switches, handler)) = SUBCOMMANDS.iter().find(|(name, ..)| name == cmd)
    else {
        return Err(format!("unknown subcommand {cmd:?}"));
    };
    match parse_flags(cmd, values, switches, &args[1..])? {
        Some(flags) => handler(&flags),
        None => {
            println!("{HELP}");
            Ok(())
        }
    }
}

type Handler = fn(&Flags) -> Result<(), String>;

/// Each subcommand with the flags that take a value, the switches it
/// accepts (any other flag is a usage error) and its handler.
const SUBCOMMANDS: [(&str, &[&str], &[&str], Handler); 5] = [
    (
        "gen",
        &["n", "d", "delta", "kind", "seed", "out"],
        &[],
        cmd_gen,
    ),
    (
        "embed",
        &["input", "r", "seed", "out", "dot"],
        &[],
        cmd_embed,
    ),
    ("mst", &["input", "r", "seed"], &["exact"], cmd_mst),
    (
        "emd",
        &["input", "split", "r", "seed", "trees"],
        &["exact"],
        cmd_emd,
    ),
    (
        "kmedian",
        &["input", "k", "r", "seed", "trees"],
        &[],
        cmd_kmedian,
    ),
];

const HELP: &str = "treeemb — tree embeddings for high-dimensional data (SPAA'23)

subcommands:
  gen      --n N --d D [--delta 1024] [--kind uniform|clusters|line] [--seed S] --out FILE
  embed    --input FILE [--r R] [--seed S] [--out tree.json] [--dot tree.dot]
  mst      --input FILE [--r R] [--seed S] [--exact]
  emd      --input FILE --split K [--r R] [--seed S] [--trees T] [--exact]
  kmedian  --input FILE --k K [--r R] [--seed S] [--trees T]

`--help` or `-h` after any subcommand prints this text.
";

type Flags = HashMap<String, String>;

/// Parses `cmd`'s flags; `None` when `--help` or `-h` asks for usage.
fn parse_flags(
    cmd: &str,
    values: &[&str],
    switches: &[&str],
    args: &[String],
) -> Result<Option<Flags>, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            return Ok(None);
        }
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got {a:?}"));
        };
        if switches.contains(&name) {
            flags.insert(name.to_string(), "true".into());
        } else if values.contains(&name) {
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), v.clone());
        } else {
            return Err(format!("`{cmd}` takes no flag --{name}"));
        }
    }
    Ok(Some(flags))
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for --{name}: {v:?}")),
    }
}

fn req<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<T, String> {
    get(flags, name)?.ok_or_else(|| format!("missing required --{name}"))
}

fn load_points(flags: &Flags) -> Result<PointSet, String> {
    let path: String = req(flags, "input")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    points_from_csv(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// The embedder of the `--r` flag (default: the pipeline's `r`) for `ps`,
/// with the `--seed` flag's seed.
fn embedder(ps: &PointSet, flags: &Flags) -> Result<(SeqEmbedder, u64), String> {
    let r: usize =
        get(flags, "r")?.unwrap_or_else(|| treeemb::core::params::pipeline_r(ps.len(), ps.dim()));
    let seed: u64 = get(flags, "seed")?.unwrap_or(42);
    let params = HybridParams::for_dataset(ps, r).map_err(|e| e.to_string())?;
    Ok((SeqEmbedder::new(params), seed))
}

fn embed(embedder: &SeqEmbedder, ps: &PointSet, seed: u64) -> Result<Embedding, String> {
    embedder.embed(ps, seed).map_err(|e| e.to_string())
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let n: usize = req(flags, "n")?;
    let d: usize = req(flags, "d")?;
    let delta: u64 = get(flags, "delta")?.unwrap_or(1024);
    let seed: u64 = get(flags, "seed")?.unwrap_or(42);
    let kind: String = get(flags, "kind")?.unwrap_or_else(|| "uniform".into());
    let out: String = req(flags, "out")?;
    for (flag, value) in [("n", n as u64), ("d", d as u64), ("delta", delta)] {
        if value == 0 {
            return Err(format!("--{flag} must be at least 1"));
        }
    }
    let ps = match kind.as_str() {
        "uniform" => generators::uniform_cube(n, d, delta, seed),
        "clusters" => generators::gaussian_clusters(n, d, (n / 20).max(2), 3.0, delta, seed),
        "line" => generators::noisy_line(n, d, delta, 1.0, seed),
        other => return Err(format!("unknown --kind {other:?}")),
    };
    std::fs::write(&out, points_to_csv(&ps)).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {n} x {d} points to {out}");
    Ok(())
}

fn cmd_embed(flags: &Flags) -> Result<(), String> {
    let ps = load_points(flags)?;
    let (embedder, seed) = embedder(&ps, flags)?;
    let emb = embed(&embedder, &ps, seed)?;
    println!(
        "embedded n={} d={} (seed {seed}): {} nodes, height {}",
        ps.len(),
        ps.dim(),
        emb.tree.num_nodes(),
        emb.tree.height()
    );
    if let Some(out) = flags.get("out") {
        std::fs::write(out, emb.tree.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("tree document -> {out}");
    }
    if let Some(dot) = flags.get("dot") {
        std::fs::write(dot, emb.tree.to_dot()).map_err(|e| format!("writing {dot}: {e}"))?;
        println!("DOT rendering -> {dot}");
    }
    Ok(())
}

fn cmd_mst(flags: &Flags) -> Result<(), String> {
    let ps = load_points(flags)?;
    let (embedder, seed) = embedder(&ps, flags)?;
    let st = tree_mst(&embed(&embedder, &ps, seed)?, &ps);
    println!(
        "tree-guided MST: {} edges, cost {:.3}",
        st.edges.len(),
        st.cost
    );
    if flags.contains_key("exact") {
        let exact = prim::mst(&ps).cost;
        // A zero-cost MST (one point, or only duplicates) has no ratio.
        if exact > 0.0 {
            println!(
                "exact MST (Prim): cost {exact:.3}; approximation ratio {:.4}",
                st.cost / exact
            );
        } else {
            println!("exact MST (Prim): cost {exact:.3}");
        }
    }
    Ok(())
}

fn cmd_emd(flags: &Flags) -> Result<(), String> {
    let ps = load_points(flags)?;
    let split: usize = req(flags, "split")?;
    if split == 0 || 2 * split > ps.len() {
        return Err(format!(
            "--split must satisfy 0 < split <= n/2 (n = {})",
            ps.len()
        ));
    }
    let a: Vec<usize> = (0..split).collect();
    let b: Vec<usize> = (split..2 * split).collect();
    let trees: u64 = get(flags, "trees")?.unwrap_or(5);
    if trees == 0 {
        return Err("--trees must be at least 1".into());
    }
    let (embedder, seed) = embedder(&ps, flags)?;
    let mut sum = 0.0;
    for t in 0..trees {
        let emb = embed(&embedder, &ps, seed.wrapping_add(t))?;
        sum += tree_emd(&emb, &a, &b);
    }
    let mean = sum / trees as f64;
    println!(
        "tree EMD (points 0..{split} vs {split}..{}): {mean:.3} (mean of {trees} trees)",
        2 * split
    );
    if flags.contains_key("exact") {
        let exact = exact_emd(&ps, &a, &b);
        println!(
            "exact EMD (Hungarian): {exact:.3}; ratio {:.3}",
            mean / exact.max(1e-12)
        );
    }
    Ok(())
}

fn cmd_kmedian(flags: &Flags) -> Result<(), String> {
    let ps = load_points(flags)?;
    let k: usize = req(flags, "k")?;
    if k == 0 || k > ps.len() {
        return Err(format!("--k must be in 1..={}", ps.len()));
    }
    let trees: u64 = get(flags, "trees")?.unwrap_or(5);
    if trees == 0 {
        return Err("--trees must be at least 1".into());
    }
    let (embedder, seed) = embedder(&ps, flags)?;
    let mut best = (f64::INFINITY, Vec::new());
    for t in 0..trees {
        let emb = embed(&embedder, &ps, seed.wrapping_add(t))?;
        let result = tree_kmedian(&emb, k);
        let euclid = kmedian_cost_euclid(&ps, &result.medians);
        if euclid < best.0 {
            best = (euclid, result.medians);
        }
    }
    println!(
        "{k}-median (best of {trees} trees): cost {:.3}, medians {:?}",
        best.0, best.1
    );
    Ok(())
}
