//! The three workloads, the operation each one times, and the checks
//! every operation's output must pass.

use crate::secs_since;
use treeemb_apps::exact::prim::SpanningTree;
use treeemb_apps::kmedian::{tree_kmedian, KMedianResult};
use treeemb_apps::{emd::tree_emd, mst::tree_mst};
use treeemb_core::pipeline::{self, PipelineConfig, PipelineReport};
use treeemb_core::{EmbedError, Embedding, HybridParams, SeqEmbedder};
use treeemb_geom::{generators, metrics, PointSet};

/// Executor threads of every timed operation.
pub const THREADS: usize = 2;
/// Embedding seed of every operation: the pipeline's default master
/// seed, so `SeqEmbedder` and the pipeline draw the same grids.
pub const EMBED_SEED: u64 = 0x7EED;
/// Bucket count of the `seq-clustered` embedding.
const SEQ_R: usize = 4;
/// Clusters in the `seq-clustered` input and medians asked of it.
const CLUSTERS: usize = 16;
/// Coordinates of every input lie in `[1, DELTA]`.
const DELTA: u64 = 1 << 10;
/// Point pairs in the fixed domination / distortion sample.
const SAMPLE_PAIRS: usize = 20000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `pipeline::run` without the FJLT.
    MpcLowdim,
    /// `pipeline::run` through the FJLT.
    MpcHighdim,
    /// `SeqEmbedder::embed_parallel` plus the tree applications.
    SeqClustered,
}

/// One workload: which operation runs, on an input of which shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub n: usize,
    pub d: usize,
}

impl Workload {
    pub fn all() -> [Workload; 3] {
        [
            Workload {
                name: "mpc-lowdim",
                kind: Kind::MpcLowdim,
                n: 8192,
                d: 16,
            },
            Workload {
                name: "mpc-highdim",
                kind: Kind::MpcHighdim,
                n: 256,
                d: 4096,
            },
            Workload {
                name: "seq-clustered",
                kind: Kind::SeqClustered,
                n: 8192,
                d: 16,
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// The same workload at a size small enough for a self-test; the
    /// high-dimensional one still takes the FJLT path.
    pub fn reduced(&self) -> Workload {
        let (n, d) = match self.kind {
            Kind::MpcHighdim => (32, 512),
            _ => (512, self.d),
        };
        Workload {
            n,
            d,
            ..self.clone()
        }
    }

    /// The workload's input, a pure function of `seed`.
    pub fn generate(&self, seed: u64) -> PointSet {
        match self.kind {
            Kind::SeqClustered => {
                generators::gaussian_clusters(self.n, self.d, CLUSTERS, 8.0, DELTA, seed)
            }
            _ => generators::uniform_cube(self.n, self.d, DELTA, seed),
        }
    }

    /// Runs one operation on `ps` with `threads` executor threads.
    pub fn run_op(&self, ps: &PointSet, threads: usize) -> Result<Output, EmbedError> {
        match self.kind {
            Kind::SeqClustered => seq_op(ps, threads).map(Output::Seq),
            _ => pipeline::run(ps, &pipeline_config(threads)).map(Output::Mpc),
        }
    }
}

/// The default pipeline configuration at `threads` executor threads.
pub fn pipeline_config(threads: usize) -> PipelineConfig {
    PipelineConfig::builder().threads(threads).build()
}

/// What a `seq-clustered` operation produces.
pub struct SeqOutput {
    pub params: HybridParams,
    pub embedding: Embedding,
    pub mst: SpanningTree,
    pub emd: f64,
    pub kmedian: KMedianResult,
}

/// One operation's result.
pub enum Output {
    Mpc(PipelineReport),
    Seq(SeqOutput),
}

/// Work counters that depend only on the input, never on the host or
/// the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub sent_words: usize,
    pub peak_machine_words: usize,
    pub rounds: usize,
    pub tree_nodes: usize,
}

impl Output {
    pub fn embedding(&self) -> &Embedding {
        match self {
            Output::Mpc(r) => &r.embedding,
            Output::Seq(s) => &s.embedding,
        }
    }

    pub fn params(&self) -> &HybridParams {
        match self {
            Output::Mpc(r) => &r.params,
            Output::Seq(s) => &s.params,
        }
    }

    pub fn jl_applied(&self) -> bool {
        matches!(self, Output::Mpc(r) if r.jl_applied)
    }

    pub fn counters(&self) -> Counters {
        let tree_nodes = self.embedding().tree.num_nodes();
        match self {
            Output::Mpc(r) => Counters {
                sent_words: r.metrics.total_sent_words(),
                peak_machine_words: r.peak_machine_words,
                rounds: r.rounds,
                tree_nodes,
            },
            Output::Seq(_) => Counters {
                tree_nodes,
                ..Counters::default()
            },
        }
    }
}

/// `HybridParams::for_dataset` + `SeqEmbedder::embed_parallel`, then the
/// tree MST, the tree EMD between the two halves of the input and the
/// tree k-median. Each call sits in its own span for the traced run.
pub fn seq_op(ps: &PointSet, threads: usize) -> Result<SeqOutput, EmbedError> {
    let (params, embedding) = {
        let _sp = treeemb_obs::span!("seq.embed");
        let params = HybridParams::for_dataset(ps, SEQ_R)?;
        let embedding = SeqEmbedder::new(params.clone()).embed_parallel(ps, EMBED_SEED, threads)?;
        (params, embedding)
    };
    let mst = {
        let _sp = treeemb_obs::span!("apps.tree_mst");
        tree_mst(&embedding, ps)
    };
    let half = ps.len() / 2;
    let emd = {
        let _sp = treeemb_obs::span!("apps.tree_emd");
        let first: Vec<usize> = (0..half).collect();
        let second: Vec<usize> = (half..2 * half).collect();
        tree_emd(&embedding, &first, &second)
    };
    let kmedian = {
        let _sp = treeemb_obs::span!("apps.tree_kmedian");
        tree_kmedian(&embedding, CLUSTERS)
    };
    Ok(SeqOutput {
        params,
        embedding,
        mst,
        emd,
        kmedian,
    })
}

/// SplitMix64: the benchmark's own seeded stream for the pair sample.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input of a run with everything its checks need: a fixed seeded
/// sample of point pairs, their Euclidean distances and, on
/// `mpc-lowdim`, the `SeqEmbedder` tree distances the pipeline must
/// reproduce (E12).
pub struct Prepared {
    pub ps: PointSet,
    pairs: Vec<(usize, usize)>,
    euclid: Vec<f64>,
    reference: Option<Vec<f64>>,
    /// Wall time and node count of the reference `SeqEmbedder` run.
    pub reference_run: Option<(f64, usize)>,
}

impl Prepared {
    pub fn new(ps: PointSet, seed: u64) -> Self {
        let n = ps.len() as u64;
        let mut state = seed ^ 0xBE7C_4A11_5EED_0001;
        let mut pairs = Vec::with_capacity(SAMPLE_PAIRS);
        while n > 1 && pairs.len() < SAMPLE_PAIRS {
            let i = (splitmix(&mut state) % n) as usize;
            let j = (splitmix(&mut state) % n) as usize;
            if i != j {
                pairs.push((i, j));
            }
        }
        let euclid = pairs
            .iter()
            .map(|&(i, j)| metrics::dist(ps.point(i), ps.point(j)))
            .collect();
        Self {
            ps,
            pairs,
            euclid,
            reference: None,
            reference_run: None,
        }
    }

    /// Embeds the input with `SeqEmbedder` under `params` (the schedule
    /// the pipeline resolved) and keeps its tree distances on the
    /// sample as the reference later operations must match.
    pub fn set_reference(&mut self, params: &HybridParams) -> Result<(), EmbedError> {
        let t0 = treeemb_obs::now_ns();
        let seq = SeqEmbedder::new(params.clone()).embed_parallel(&self.ps, EMBED_SEED, THREADS)?;
        let secs = secs_since(t0);
        self.reference = Some(
            self.pairs
                .iter()
                .map(|&(i, j)| seq.tree_distance(i, j))
                .collect(),
        );
        self.reference_run = Some((secs, seq.tree.num_nodes()));
        Ok(())
    }

    /// Checks a tree embedding of the input: one leaf per point,
    /// domination on the pair sample (`dist_T ≥ ‖p−q‖`, or
    /// `≥ (1−ξ)‖p−q‖` after the FJLT) and agreement with the reference.
    /// Returns the mean distortion `dist_T / ‖p−q‖` over the sample.
    pub fn check_embedding(&self, emb: &Embedding, jl_applied: bool) -> Result<f64, String> {
        let n = self.ps.len();
        if emb.tree.num_points() != n {
            return Err(format!(
                "tree has {} leaves, want {n}",
                emb.tree.num_points()
            ));
        }
        let floor = if jl_applied {
            1.0 - pipeline_config(THREADS).xi
        } else {
            1.0
        };
        let (mut sum, mut count) = (0.0, 0usize);
        for (k, (&(i, j), &e)) in self.pairs.iter().zip(&self.euclid).enumerate() {
            let t = emb.tree_distance(i, j);
            if t.is_nan() || t < floor * e * (1.0 - 1e-9) {
                return Err(format!(
                    "domination fails on ({i},{j}): tree {t} < {floor}·{e}"
                ));
            }
            if let Some(r) = self.reference.as_ref().map(|r| r[k]) {
                if (t - r).abs() > 1e-9 * (1.0 + r) {
                    return Err(format!("seq/MPC distances differ on ({i},{j}): {r} vs {t}"));
                }
            }
            if e > 0.0 {
                sum += t / e;
                count += 1;
            }
        }
        Ok(if count == 0 { 1.0 } else { sum / count as f64 })
    }

    /// [`Self::check_embedding`] plus, on `seq-clustered`, checks of
    /// the application outputs.
    pub fn check(&self, out: &Output) -> Result<f64, String> {
        let distortion = self.check_embedding(out.embedding(), out.jl_applied())?;
        if let Output::Seq(s) = out {
            let n = self.ps.len();
            if s.mst.edges.len() + 1 != n || !(s.mst.cost.is_finite() && s.mst.cost > 0.0) {
                return Err(format!(
                    "tree MST has {} edges and cost {}",
                    s.mst.edges.len(),
                    s.mst.cost
                ));
            }
            if !(s.emd.is_finite() && s.emd > 0.0) {
                return Err(format!("tree EMD is {}", s.emd));
            }
            let mut medians = s.kmedian.medians.clone();
            medians.sort_unstable();
            medians.dedup();
            if medians.len() != CLUSTERS.min(n) || !s.kmedian.tree_cost.is_finite() {
                return Err(format!(
                    "tree k-median chose {} distinct medians, cost {}",
                    medians.len(),
                    s.kmedian.tree_cost
                ));
            }
        }
        Ok(distortion)
    }
}
