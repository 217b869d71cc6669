//! Exact work-counter gate: small fixed inputs of the benchmark's three
//! workload shapes, run at 1 and 2 executor threads, must reproduce
//! pinned deterministic counters — MPC rounds, total sent words, peak
//! machine words, tree nodes and grid probes — and a fingerprint of the
//! tree arena itself (FNV-1a of `tree.to_json()`, which lists nodes in
//! arena order). None of these depend on the host or the thread count,
//! so a change that moves one is a change in what the program computes
//! or meters, and must update the literal here on purpose.

use treeemb::core::params::HybridParams;
use treeemb::core::pipeline::{run, PipelineConfig, PipelineReport};
use treeemb::core::seq::SeqEmbedder;
use treeemb::fjlt::mpc::fjlt_mpc;
use treeemb::geom::{generators, PointSet};
use treeemb::mpc::{MpcConfig, Runtime};

/// The pipeline's default master seed, used for `SeqEmbedder` too.
const EMBED_SEED: u64 = 0x7EED;
/// Input seed of every workload.
const INPUT_SEED: u64 = 1;
/// Coordinates of every input lie in `[1, DELTA]`.
const DELTA: u64 = 1 << 10;

#[derive(Debug, PartialEq, Eq)]
struct Counters {
    rounds: usize,
    sent_words: usize,
    peak_machine_words: usize,
    tree_nodes: usize,
    grid_probes: u64,
    tree_fnv: u64,
}

/// 64-bit FNV-1a of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `first_covering` replayed over every (level, point, bucket) of the
/// embedding of `working` under `params`: a call returning grid `u`
/// made `u + 1` probes, an uncovered call made `U`.
fn grid_probes(working: &PointSet, params: &HybridParams) -> u64 {
    let padded = working.zero_pad(params.dim);
    let m = params.dim / params.r;
    let mut probes = 0;
    for level in SeqEmbedder::new(params.clone()).build_levels(EMBED_SEED) {
        for p in padded.iter() {
            for (j, seq) in level.sequences().iter().enumerate() {
                probes += seq
                    .first_covering(&p[j * m..(j + 1) * m])
                    .map_or(seq.len() as u64, |u| u64::from(u) + 1);
            }
        }
    }
    probes
}

/// The point set the pipeline embedded: `ps` itself, or its FJLT
/// projection recomputed on a runtime shaped like the report's.
fn working_set(ps: &PointSet, report: &PipelineReport, threads: usize) -> PointSet {
    match &report.fjlt {
        None => ps.clone(),
        Some(fp) => {
            let cfg = MpcConfig::explicit(
                ps.len() * (ps.dim() + 1),
                report.capacity_words,
                report.machines,
            )
            .with_threads(threads);
            let mut rt = Runtime::builder().config(cfg).build();
            fjlt_mpc(&mut rt, ps, fp).expect("fjlt replay")
        }
    }
}

fn pipeline_counters(ps: &PointSet, threads: usize) -> (Counters, bool) {
    let cfg = PipelineConfig::builder().threads(threads).build();
    let report = run(ps, &cfg).expect("pipeline");
    let working = working_set(ps, &report, threads);
    let counters = Counters {
        rounds: report.rounds,
        sent_words: report.metrics.total_sent_words(),
        peak_machine_words: report.peak_machine_words,
        tree_nodes: report.embedding.tree.num_nodes(),
        grid_probes: grid_probes(&working, &report.params),
        tree_fnv: fnv1a(&report.embedding.tree.to_json()),
    };
    (counters, report.jl_applied)
}

#[test]
fn mpc_lowdim_counters_are_pinned() {
    let ps = generators::uniform_cube(512, 16, DELTA, INPUT_SEED);
    for threads in [1, 2] {
        let (got, jl) = pipeline_counters(&ps, threads);
        assert!(!jl, "512x16 must skip the FJLT");
        let want = Counters {
            rounds: 6,
            sent_words: 48_364_943,
            peak_machine_words: 324_480,
            tree_nodes: 7_673,
            grid_probes: 1_496_670,
            tree_fnv: 0x8d65_939c_e441_284d,
        };
        assert_eq!(got, want, "threads {threads}");
    }
}

#[test]
fn mpc_highdim_counters_are_pinned() {
    let ps = generators::uniform_cube(32, 512, DELTA, INPUT_SEED);
    for threads in [1, 2] {
        let (got, jl) = pipeline_counters(&ps, threads);
        assert!(jl, "32x512 must take the FJLT path");
        let want = Counters {
            rounds: 7,
            sent_words: 2_458_855_615,
            peak_machine_words: 12_740_132,
            tree_nodes: 669,
            grid_probes: 3_432_611,
            tree_fnv: 0x11b3_1907_8745_addb,
        };
        assert_eq!(got, want, "threads {threads}");
    }
}

#[test]
fn seq_clustered_counters_are_pinned() {
    let ps = generators::gaussian_clusters(512, 16, 16, 8.0, DELTA, INPUT_SEED);
    let params = HybridParams::for_dataset(&ps, 4).expect("schedule");
    for threads in [1, 2] {
        let emb = SeqEmbedder::new(params.clone())
            .embed_parallel(&ps, EMBED_SEED, threads)
            .expect("embed");
        let got = (
            emb.tree.num_nodes(),
            grid_probes(&ps, &params),
            fnv1a(&emb.tree.to_json()),
        );
        // (tree nodes, grid probes, arena fingerprint); no MPC runtime
        // is involved.
        let want = (802, 1_493_122, 0x69a0_0363_65fd_ca21);
        assert_eq!(got, want, "threads {threads}");
    }
}
