//! The traced run: the per-layer breakdown of one workload's operation.
//!
//! On the MPC workloads the benchmark replays the pipeline itself —
//! `fjlt_mpc`, `HybridParams::for_dataset_with_sep` and
//! `embed_mpc_full` on a runtime sized like the pipeline's — with each
//! call in a span of the benchmark's own, so it can reach the working
//! point set, the distributed paths and the runtime's meters. Layer
//! times come from the spans the program already emits, read back
//! through `treeemb_obs::capture_start`/`drain`; the benchmark adds no
//! span inside the program. Counters that need no clock (grid probes,
//! words, rounds, nodes) come from replaying public kernels.

use crate::workload::{
    pipeline_config, seq_op, Counters, Output, Prepared, Workload, EMBED_SEED, THREADS,
};
use crate::{median, secs_since, Metric, Tally};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use treeemb_core::mpc_embed::{embed_mpc_full, leaf_key, root_key, MpcEmbedding};
use treeemb_core::pipeline::PipelineReport;
use treeemb_core::{EmbedError, HybridParams, SeqEmbedder};
use treeemb_fjlt::mpc::fjlt_mpc;
use treeemb_geom::PointSet;
use treeemb_hst::builder::{from_edge_list, EdgeRec};
use treeemb_mpc::{exec, MpcConfig, Runtime};
use treeemb_obs::{Event, EventKind};

/// Fewest traced operations a traced run makes.
const MIN_TRACED: usize = 2;

/// Span names the benchmark reports: the pipeline stages it wraps, the
/// Algorithm-2 and FJLT steps the program emits, and the `SeqEmbedder`
/// and application calls it wraps.
const LAYER_PREFIXES: [&str; 5] = ["pipeline.", "embed.", "fjlt.", "seq.", "apps."];
/// The benchmark's span around one whole operation.
const OP_SPAN: &str = "bench.op";
/// Key of the attributed share in [`layer_times`]' output.
const ATTRIBUTED: &str = "trace.attributed_share";

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("pipeline.fjlt_s", "s"),
    ("pipeline.schedule_s", "s"),
    ("pipeline.embed_s", "s"),
    ("embed.grids_s", "s"),
    ("embed.load_s", "s"),
    ("embed.paths_s", "s"),
    ("embed.edges_s", "s"),
    ("embed.assemble_s", "s"),
    ("partition.covering_calls", "count"),
    ("partition.grid_probes", "count"),
    ("partition.probes_per_call", "ratio"),
    ("partition.ns_per_probe", "ns"),
    ("fjlt.transform_s", "s"),
    ("fjlt.project_s", "s"),
    ("fjlt.rounds", "count"),
    ("fjlt.sent_words", "words"),
    ("fjlt.words_per_input_word", "ratio"),
    ("mpc.rounds", "count"),
    ("mpc.round_s", "s"),
    ("mpc.max_round_sent_words", "words"),
    ("mpc.retried_rounds", "count"),
    ("mpc.load_skew", "ratio"),
    ("mpc.sent_words", "words"),
    ("mpc.peak_machine_words", "words"),
    ("exec.caller_busy_s", "s"),
    ("exec.worker_busy_s", "s"),
    ("exec.utilization", "ratio"),
    ("exec.speedup_2t", "ratio"),
    ("hst.nodes", "count"),
    ("hst.edges_emitted", "count"),
    ("hst.unique_over_emitted", "ratio"),
    ("hst.from_edge_list_s", "s"),
    ("seq.embed_s", "s"),
    ("seq.nodes", "count"),
    ("apps.tree_mst_s", "s"),
    ("apps.tree_emd_s", "s"),
    ("apps.tree_kmedian_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// Per-layer time metrics and the span each one reads.
const SPAN_METRICS: [(&str, &str); 14] = [
    ("pipeline.fjlt_s", "pipeline.fjlt"),
    ("pipeline.schedule_s", "pipeline.schedule"),
    ("pipeline.embed_s", "pipeline.embed"),
    ("embed.grids_s", "embed.grids"),
    ("embed.load_s", "embed.load"),
    ("embed.paths_s", "embed.paths"),
    ("embed.edges_s", "embed.edges"),
    ("embed.assemble_s", "embed.assemble"),
    ("fjlt.transform_s", "fjlt.transform"),
    ("fjlt.project_s", "fjlt.project"),
    ("seq.embed_s", "seq.embed"),
    ("apps.tree_mst_s", "apps.tree_mst"),
    ("apps.tree_emd_s", "apps.tree_emd"),
    ("apps.tree_kmedian_s", "apps.tree_kmedian"),
];

/// A replayed pipeline operation.
struct Replica {
    working: PointSet,
    params: HybridParams,
    full: MpcEmbedding,
    rt: Runtime,
}

/// The runtime configuration the pipeline resolved in `report`.
fn runtime_config(ps: &PointSet, report: &PipelineReport, threads: usize) -> MpcConfig {
    MpcConfig::explicit(
        ps.len() * (ps.dim() + 1),
        report.capacity_words,
        report.machines,
    )
    .with_threads(threads)
}

/// The pipeline's three calls, each in its own span, on a runtime built
/// from the report's `capacity_words`/`machines`.
fn replay_pipeline(
    ps: &PointSet,
    report: &PipelineReport,
    threads: usize,
) -> Result<Replica, EmbedError> {
    let cfg = pipeline_config(threads);
    let mut rt = Runtime::builder()
        .config(runtime_config(ps, report, threads))
        .build();
    let _op = treeemb_obs::span!(OP_SPAN);
    let (working, min_sep) = match &report.fjlt {
        Some(fp) => {
            let _sp = treeemb_obs::span!("pipeline.fjlt");
            (fjlt_mpc(&mut rt, ps, fp)?, cfg.min_sep * (1.0 - cfg.xi))
        }
        None => (ps.clone(), cfg.min_sep),
    };
    let params = {
        let _sp = treeemb_obs::span!("pipeline.schedule");
        HybridParams::for_dataset_with_sep(&working, report.params.r, min_sep, cfg.fail_prob)?
    };
    let full = {
        let _sp = treeemb_obs::span!("pipeline.embed");
        embed_mpc_full(&mut rt, &working, &params, cfg.seed)?
    };
    Ok(Replica {
        working,
        params,
        full,
        rt,
    })
}

/// What one traced-run operation leaves behind for the layer metrics.
enum Replayed {
    Mpc(Replica),
    Seq(Output),
}

/// One operation of the traced run, checked like every other: the
/// replayed pipeline must reproduce the report's tree metric and
/// counters exactly.
fn replay_op(prep: &Prepared, first: &Output, threads: usize) -> Result<Replayed, String> {
    match first {
        Output::Mpc(report) => {
            let rep = replay_pipeline(&prep.ps, report, threads).map_err(|e| e.to_string())?;
            prep.check_embedding(&rep.full.embedding, report.jl_applied)?;
            let counted = Counters {
                sent_words: rep.rt.metrics().total_sent_words(),
                peak_machine_words: rep.rt.metrics().peak_machine_words(),
                rounds: rep.rt.metrics().rounds(),
                tree_nodes: rep.full.embedding.tree.num_nodes(),
            };
            if counted != first.counters() || rep.params != report.params {
                return Err(format!(
                    "replayed pipeline differs from pipeline::run: {counted:?} vs {:?}",
                    first.counters()
                ));
            }
            Ok(Replayed::Mpc(rep))
        }
        Output::Seq(_) => {
            let out = {
                let _op = treeemb_obs::span!(OP_SPAN);
                seq_op(&prep.ps, threads).map(Output::Seq)
            }
            .map_err(|e| e.to_string())?;
            prep.check(&out)?;
            if out.counters() != first.counters() {
                return Err("tree changed between identical operations".into());
            }
            Ok(Replayed::Seq(out))
        }
    }
}

fn is_layer(name: &str) -> bool {
    LAYER_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Per-operation layer times from one traced operation's events on the
/// calling thread: the wall time inside each named span (seconds), plus
/// `trace.attributed_share`, the share of the operation spent inside a
/// leaf step — a named span with no named span inside it. Time in the
/// stage and `embed.run`/`fjlt.transform` wrappers outside their steps
/// is not attributed.
fn layer_times(events: &[Event], tid: u64) -> BTreeMap<String, f64> {
    let mut spans: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.tid == tid)
        .filter(|e| e.name == OP_SPAN || is_layer(&e.name))
        .collect();
    spans.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut has_child = vec![false; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if spans[top].start_ns + spans[top].dur_ns <= e.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            has_child[top] = true;
        }
        stack.push(i);
        *out.entry(e.name.clone()).or_default() += e.dur_ns as f64 * 1e-9;
    }
    let op = out.get(OP_SPAN).copied().unwrap_or(f64::NAN);
    let leaves: f64 = spans
        .iter()
        .zip(&has_child)
        .filter(|(e, &child)| !child && e.name != OP_SPAN)
        .map(|(e, _)| e.dur_ns as f64 * 1e-9)
        .sum();
    out.insert(ATTRIBUTED.into(), leaves / op);
    out
}

/// `GridSequence::first_covering` replayed over the working point set
/// for every (level, bucket), as `embed.paths` and `SeqEmbedder` scan
/// it: `(calls, probes, seconds)`, where a call that returns grid `u`
/// made `u + 1` probes.
fn replay_first_covering(working: &PointSet, params: &HybridParams) -> (u64, u64, f64) {
    let padded = working.zero_pad(params.dim);
    let levels = SeqEmbedder::new(params.clone()).build_levels(EMBED_SEED);
    let m = params.dim / params.r;
    let (mut calls, mut probes) = (0u64, 0u64);
    let t0 = treeemb_obs::now_ns();
    for level in &levels {
        for p in padded.iter() {
            for (j, seq) in level.sequences().iter().enumerate() {
                let u = std::hint::black_box(seq.first_covering(&p[j * m..(j + 1) * m]));
                calls += 1;
                probes += u.map_or(seq.len() as u64, |u| u as u64 + 1);
            }
        }
    }
    (calls, probes, secs_since(t0))
}

/// Rebuilds the tree from the distributed paths the way Algorithm 2's
/// edge step does: `(edges emitted, unique edges, from_edge_list
/// seconds, node count)`.
fn rebuild_tree(full: &MpcEmbedding, n: usize) -> Result<(usize, usize, f64, usize), String> {
    let mut edges: Vec<EdgeRec> = Vec::new();
    let edge = |node, parent, weight, point| EdgeRec {
        node,
        parent,
        weight,
        point,
    };
    for path in full.paths.parts().iter().flatten() {
        edges.push(edge(root_key(), root_key(), 0.0, None));
        let mut parent = root_key();
        for &(node, weight, _) in &path.nodes {
            edges.push(edge(node, parent, weight, None));
            parent = node;
        }
        edges.push(edge(
            leaf_key(parent, path.point),
            parent,
            0.0,
            Some(path.point as usize),
        ));
    }
    let emitted = edges.len();
    let mut seen = HashSet::with_capacity(emitted);
    edges.retain(|e| seen.insert(e.node));
    let t0 = treeemb_obs::now_ns();
    let tree = from_edge_list(&edges, n).map_err(|e| e.to_string())?;
    Ok((emitted, edges.len(), secs_since(t0), tree.num_nodes()))
}

/// Max ÷ mean records per machine when `Runtime::distribute` places
/// one record per working point, each as wide as Algorithm 2's.
fn load_skew(rep: &Replica, report: &PipelineReport, ps: &PointSet) -> Result<f64, String> {
    let mut rt = Runtime::builder()
        .config(runtime_config(ps, report, 1))
        .build();
    let padded = rep.working.zero_pad(rep.params.dim);
    let recs: Vec<Vec<f64>> = padded.iter().map(<[f64]>::to_vec).collect();
    let dist = rt.distribute(recs).map_err(|e| e.to_string())?;
    let max = dist.parts().iter().map(Vec::len).max().unwrap_or(0) as f64;
    Ok(max * dist.num_machines() as f64 / padded.len() as f64)
}

/// Runs the traced measurement for `budget` (at least [`MIN_TRACED`]
/// traced operations), writes a Chrome trace of the first traced
/// operation to `out/`, adds the sample count and the trace path to
/// `record`, and returns every per-layer metric.
pub fn traced(
    w: &Workload,
    seed: u64,
    prep: &Prepared,
    first: &Output,
    budget: f64,
    tally: &mut Tally,
    record: &mut Vec<(&'static str, String)>,
) -> Result<Vec<Metric>, String> {
    let tid = treeemb_obs::thread_id();
    let (mut untraced, mut traced_s, mut one_thread) = (Vec::new(), Vec::new(), Vec::new());
    let (mut caller_busy, mut worker_busy, mut utilization) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut first_events: Option<Vec<Event>> = None;
    let mut last = None;
    let t_start = treeemb_obs::now_ns();
    while secs_since(t_start) < budget || (layers.len() < MIN_TRACED && tally.failed == 0) {
        // Untraced at 2 threads, with the executor's counters.
        // Utilization is worker busy time over the workers' share of this
        // op's wall time; the pool's idle counter would also hold the
        // parked spell before the op.
        exec::reset_stats();
        let t0 = treeemb_obs::now_ns();
        let r = replay_op(prep, first, THREADS);
        let secs = secs_since(t0);
        let stats = exec::stats();
        if tally.record(r).is_some() {
            let busy = stats.worker_busy_ns.iter().sum::<u64>() as f64 * 1e-9;
            untraced.push(secs);
            caller_busy.push(stats.caller_busy_ns as f64 * 1e-9);
            worker_busy.push(busy);
            utilization.push(busy / (stats.workers_spawned.max(1) as f64 * secs));
        }
        // Traced at 2 threads.
        treeemb_obs::capture_start();
        drop(treeemb_obs::drain());
        let t0 = treeemb_obs::now_ns();
        let r = replay_op(prep, first, THREADS);
        let secs = secs_since(t0);
        treeemb_obs::capture_stop();
        let events = treeemb_obs::drain();
        if let Some(rep) = tally.record(r) {
            traced_s.push(secs);
            layers.push(layer_times(&events, tid));
            first_events.get_or_insert(events);
            last = Some(rep);
        }
        // Untraced at 1 thread.
        let t0 = treeemb_obs::now_ns();
        let r = replay_op(prep, first, 1);
        let secs = secs_since(t0);
        if tally.record(r).is_some() {
            one_thread.push(secs);
        }
    }
    let last = last.ok_or("every traced operation failed")?;

    let trace_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.json", w.name));
    if let Some(dir) = trace_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    treeemb_obs::export::write_chrome_trace(&trace_file, first_events.as_deref().unwrap_or(&[]))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    // Layers a workload bypasses keep the value 0.
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per_op = |key: &str| {
        let values: Vec<f64> = layers
            .iter()
            .map(|m| m.get(key).copied().unwrap_or(0.0))
            .collect();
        median(&values)
    };
    for (metric, span) in SPAN_METRICS {
        v.insert(metric, per_op(span));
    }
    v.insert("trace.attributed_share", per_op(ATTRIBUTED));
    v.insert("exec.caller_busy_s", median(&caller_busy));
    v.insert("exec.worker_busy_s", median(&worker_busy));
    v.insert("exec.utilization", median(&utilization));
    v.insert("exec.speedup_2t", median(&one_thread) / median(&untraced));
    v.insert("trace.overhead", median(&traced_s) / median(&untraced));

    let (working, params) = match &last {
        Replayed::Mpc(rep) => (&rep.working, &rep.params),
        Replayed::Seq(out) => (&prep.ps, out.params()),
    };
    let (calls, probes, scan_s) = replay_first_covering(working, params);
    v.insert("partition.covering_calls", calls as f64);
    v.insert("partition.grid_probes", probes as f64);
    v.insert("partition.probes_per_call", probes as f64 / calls as f64);
    v.insert("partition.ns_per_probe", scan_s * 1e9 / probes as f64);

    match (&last, first) {
        (Replayed::Mpc(rep), Output::Mpc(report)) => {
            let n = prep.ps.len();
            let mt = rep.rt.metrics();
            let fjlt_words = mt.words_labeled("fjlt") as f64;
            let (emitted, unique, build_s, nodes) = rebuild_tree(&rep.full, n)?;
            let tree_nodes = rep.full.embedding.tree.num_nodes();
            if nodes != tree_nodes {
                return Err(format!(
                    "tree rebuilt from paths has {nodes} nodes, want {tree_nodes}"
                ));
            }
            v.insert("fjlt.rounds", mt.rounds_labeled("fjlt") as f64);
            v.insert("fjlt.sent_words", fjlt_words);
            v.insert(
                "fjlt.words_per_input_word",
                fjlt_words / (n * prep.ps.dim()) as f64,
            );
            v.insert("mpc.rounds", mt.rounds() as f64);
            let round_ns: u64 = mt.round_stats().iter().map(|r| r.wall_ns()).sum();
            v.insert("mpc.round_s", round_ns as f64 * 1e-9);
            v.insert("mpc.max_round_sent_words", mt.max_round_sent_words() as f64);
            v.insert("mpc.retried_rounds", mt.retried_rounds() as f64);
            v.insert("mpc.load_skew", load_skew(rep, report, &prep.ps)?);
            v.insert("mpc.sent_words", mt.total_sent_words() as f64);
            v.insert("mpc.peak_machine_words", mt.peak_machine_words() as f64);
            v.insert("hst.nodes", tree_nodes as f64);
            v.insert("hst.edges_emitted", emitted as f64);
            v.insert("hst.unique_over_emitted", unique as f64 / emitted as f64);
            v.insert("hst.from_edge_list_s", build_s);
            // On mpc-lowdim the reference SeqEmbedder run of the set-up
            // is this workload's SeqEmbedder measurement.
            if let Some((secs, nodes)) = prep.reference_run {
                v.insert("seq.embed_s", secs);
                v.insert("seq.nodes", nodes as f64);
            }
        }
        (Replayed::Seq(out), _) => {
            let nodes = out.embedding().tree.num_nodes() as f64;
            v.insert("hst.nodes", nodes);
            v.insert("seq.nodes", nodes);
        }
        _ => unreachable!("the replay follows the set-up operation's kind"),
    }
    debug_assert!(v
        .keys()
        .all(|k| PER_LAYER.iter().any(|(name, _)| name == k)));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, v.get(name).copied().unwrap_or(0.0)))
        .collect();
    record.push(("samples", traced_s.len().to_string()));
    record.push((
        "trace_file",
        format!("{:?}", trace_file.display().to_string()),
    ));
    Ok(metrics)
}
