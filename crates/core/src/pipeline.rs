//! The full Theorem-1 pipeline: MPC FJLT → MPC hybrid partitioning.
//!
//! Given `n` points in `[Δ]^d`, the pipeline (paper §4, steps 1–4):
//!
//! 1. reduces the dimension to `k = Θ(ξ⁻² log n)` with the MPC FJLT
//!    (skipped when `d` is already that small);
//! 2. chooses `r = Θ(log log n)` buckets and the level schedule;
//! 3. runs the MPC hybrid-partitioning embedding;
//! 4. reports the tree together with the metered MPC costs, so the
//!    Theorem-1 claims (O(1) rounds, `O((nd)^ε)` local space, near-linear
//!    total space) are checkable numbers.

use crate::error::EmbedError;
use crate::mpc_embed::embed_mpc;
use crate::params::HybridParams;
use crate::seq::Embedding;
use treeemb_fjlt::fjlt::{target_dimension, FjltParams};
use treeemb_fjlt::mpc::fjlt_mpc;
use treeemb_geom::PointSet;
use treeemb_mpc::fault::{FaultEvent, FaultPlan};
use treeemb_mpc::metrics::Metrics;
use treeemb_mpc::{MpcConfig, Runtime};

/// Pipeline configuration.
///
/// Construct through [`PipelineConfig::builder`] /
/// [`PipelineBuilder`]; the struct is `#[non_exhaustive]`, so new knobs
/// can be added without breaking downstream code (fields stay readable
/// and individually assignable).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// JL distortion parameter `ξ` (the paper uses a constant).
    pub xi: f64,
    /// Bucket count override; `None` = `Θ(log log n)` per the paper.
    pub r: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Minimum pairwise distance of distinct input points (1 for `[Δ]^d`).
    pub min_sep: f64,
    /// Coverage failure probability budget.
    pub fail_prob: f64,
    /// Explicit per-machine capacity override (words).
    pub capacity: Option<usize>,
    /// Explicit machine count override.
    pub machines: Option<usize>,
    /// Executor threads.
    pub threads: usize,
    /// Skip the FJLT even for high-dimensional input (ablation runs).
    pub skip_jl: bool,
    /// Deterministic fault plan injected into the MPC runtime (chaos
    /// testing); `None` disables injection entirely.
    pub faults: Option<FaultPlan>,
    /// Whole-pipeline attempts when a run dies of *retryable* transient
    /// faults (see [`EmbedError::is_retryable`]); attempt `a`
    /// runs under `faults.for_attempt(a)`. Non-retryable errors
    /// (capacity, coverage) return immediately. Clamped to at least 1.
    pub fault_attempts: u32,
    /// Heterogeneous per-machine capacity overrides `(machine, words)`,
    /// forwarded to the MPC runtime on top of the sized configuration.
    pub machine_capacities: Vec<(usize, usize)>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            xi: 0.45,
            r: None,
            seed: 0x7EED,
            min_sep: 1.0,
            fail_prob: 1e-3,
            capacity: None,
            machines: None,
            threads: 4,
            skip_jl: false,
            faults: None,
            fault_attempts: 1,
            machine_capacities: Vec::new(),
        }
    }
}

impl PipelineConfig {
    /// Starts building a pipeline configuration — the one supported
    /// construction path.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }
}

/// Builder for [`PipelineConfig`]: one setter per pipeline-level knob.
///
/// ```
/// use treeemb_core::pipeline::PipelineConfig;
///
/// let cfg = PipelineConfig::builder()
///     .capacity_words(1 << 15)
///     .machines(8)
///     .r(4)
///     .threads(2)
///     .build();
/// assert_eq!(cfg.capacity, Some(1 << 15));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    cfg: PipelineConfig,
}

impl PipelineBuilder {
    /// JL distortion parameter `ξ`.
    pub fn xi(mut self, xi: f64) -> Self {
        self.cfg.xi = xi;
        self
    }

    /// Bucket count override (`Θ(log log n)` when unset).
    pub fn r(mut self, r: usize) -> Self {
        self.cfg.r = Some(r);
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Minimum pairwise distance of distinct input points.
    pub fn min_sep(mut self, min_sep: f64) -> Self {
        self.cfg.min_sep = min_sep;
        self
    }

    /// Coverage failure probability budget.
    pub fn fail_prob(mut self, fail_prob: f64) -> Self {
        self.cfg.fail_prob = fail_prob;
        self
    }

    /// Explicit per-machine capacity in words.
    pub fn capacity_words(mut self, words: usize) -> Self {
        self.cfg.capacity = Some(words);
        self
    }

    /// Explicit machine count.
    pub fn machines(mut self, machines: usize) -> Self {
        self.cfg.machines = Some(machines);
        self
    }

    /// Heterogeneous capacity override for one machine.
    pub fn machine_capacity(mut self, machine: usize, words: usize) -> Self {
        self.cfg.machine_capacities.push((machine, words));
        self
    }

    /// Executor threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Skip the FJLT even for high-dimensional input (ablations).
    pub fn skip_jl(mut self, skip: bool) -> Self {
        self.cfg.skip_jl = skip;
        self
    }

    /// Deterministic fault plan injected into the MPC runtime.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Whole-pipeline attempts on retryable transient-fault failures.
    pub fn fault_attempts(mut self, attempts: u32) -> Self {
        self.cfg.fault_attempts = attempts;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> PipelineConfig {
        self.cfg
    }
}

/// Per-stage resource breakdown of one pipeline run: wall time plus the
/// MPC rounds and communication attributable to the stage (metered as
/// deltas of the runtime's [`Metrics`] around the stage).
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name (`"fjlt"`, `"schedule"`, `"embed"`).
    pub name: &'static str,
    /// Wall-clock time spent in the stage, nanoseconds.
    pub wall_ns: u64,
    /// Communication rounds the stage consumed.
    pub rounds: usize,
    /// Words sent across machines during the stage.
    pub sent_words: usize,
}

/// Everything the pipeline produced and measured.
#[derive(Debug)]
pub struct PipelineReport {
    /// The tree embedding of the input points.
    pub embedding: Embedding,
    /// Hybrid schedule used.
    pub params: HybridParams,
    /// FJLT parameters, when dimension reduction ran.
    pub fjlt: Option<FjltParams>,
    /// Whether the JL step ran.
    pub jl_applied: bool,
    /// Communication rounds consumed (total).
    pub rounds: usize,
    /// Rounds spent in the FJLT phase.
    pub fjlt_rounds: usize,
    /// Peak resident words on any machine.
    pub peak_machine_words: usize,
    /// Peak cluster-wide resident words ("total space").
    pub peak_total_words: usize,
    /// Per-machine capacity the run was configured with.
    pub capacity_words: usize,
    /// Machine count.
    pub machines: usize,
    /// Per-stage wall/round/word breakdown, in execution order.
    pub stages: Vec<StageStats>,
    /// Full round-by-round meter log of the run (timestamps, labels,
    /// per-round word counts), attributable by label prefix through
    /// `rounds_labeled` / `words_labeled` — not just the scalar peaks
    /// above.
    pub metrics: Metrics,
}

/// Runs the full Theorem-1 pipeline.
///
/// With `TREEEMB_TRACE=path` set (or [`treeemb_obs::set_trace_path`]
/// called), the run also writes a Chrome-trace file on completion, with
/// one span per stage nesting every MPC round underneath.
pub fn run(ps: &PointSet, cfg: &PipelineConfig) -> Result<PipelineReport, EmbedError> {
    run_faulted(ps, cfg).0
}

/// Like [`run`], but also returns every fault the MPC runtime injected
/// across all attempts — the raw material chaos tooling shrinks a
/// failing seeded run from. With `cfg.faults` unset, the event list is
/// always empty and the result matches [`run`] exactly.
///
/// A configuration value the runtime cannot be sized with (zero
/// threads, capacity or machines, `ξ` or `fail_prob` outside
/// `(0, 1)`, a machine-capacity override outside the cluster or of zero
/// words) is reported as [`EmbedError::InvalidConfig`], and a `min_sep`
/// that is not positive and finite as [`EmbedError::BadSeparation`],
/// before any runtime is built.
pub fn run_faulted(
    ps: &PointSet,
    cfg: &PipelineConfig,
) -> (Result<PipelineReport, EmbedError>, Vec<FaultEvent>) {
    // The FJLT runs when `d` is above the JL target dimension and the
    // run does not skip it.
    let sized = validate(cfg).and_then(|()| {
        let k_target = target_dimension(ps.len(), cfg.xi);
        let jl_target = (ps.dim() > k_target && !cfg.skip_jl).then_some(k_target);
        Ok((size_mpc_config(ps, cfg, jl_target)?, jl_target.is_some()))
    });
    let (mpc_cfg, jl_planned) = match sized {
        Ok(sized) => sized,
        Err(e) => return (Err(e), Vec::new()),
    };
    let attempts = cfg.fault_attempts.max(1);
    let mut events: Vec<FaultEvent> = Vec::new();
    for attempt in 0..attempts {
        let mut builder = Runtime::builder().config(mpc_cfg.clone());
        if let Some(plan) = &cfg.faults {
            builder = builder.fault_plan(plan.for_attempt(attempt));
        }
        let mut rt = builder.build();
        let result = run_attempt(ps, cfg, jl_planned, &mut rt);
        events.extend(rt.take_fault_log());
        match result {
            Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                treeemb_obs::mark(
                    "pipeline.retry",
                    &[("attempt", attempt as u64 + 1), ("of", attempts as u64)],
                );
            }
            other => return (other, events),
        }
    }
    unreachable!("the last attempt always returns");
}

/// Rejects the scalar knobs `MpcConfig`'s constructors assert on and
/// `ξ`, then the schedule's budget inputs (`r`, `fail_prob`) through the
/// check [`HybridParams::for_dataset_with_sep`] runs.
fn validate(cfg: &PipelineConfig) -> Result<(), EmbedError> {
    let invalid = |field, value: &dyn std::fmt::Display, expected: &str| {
        Err(EmbedError::InvalidConfig {
            field,
            value: value.to_string(),
            expected: expected.to_string(),
        })
    };
    if cfg.threads == 0 {
        return invalid("threads", &cfg.threads, "at least 1");
    }
    if cfg.capacity == Some(0) {
        return invalid("capacity", &0, "at least 1 word");
    }
    if cfg.machines == Some(0) {
        return invalid("machines", &0, "at least 1");
    }
    if !(cfg.xi > 0.0 && cfg.xi < 1.0) {
        return invalid("xi", &cfg.xi, "a value in (0, 1)");
    }
    crate::params::check_budget(cfg.r, cfg.fail_prob)
}

/// Scalability exponent `ε` of the fully scalable sizing
/// (`s = N^ε`) used when no explicit capacity is given.
const EPSILON: f64 = 0.6;

/// Pre-sizes the MPC configuration for `ps`: machines must hold the
/// broadcast grids (Lemma 8). At asymptotic n the fully scalable `N^ε`
/// dominates the grid payload; at bench scales the payload's log
/// factors win, so we take the max of the two (with 4x slack for the
/// estimate). `jl_target` is the FJLT's target dimension when it runs.
/// Fails on the point-set checks [`HybridParams::for_dataset_with_sep`]
/// runs (empty input, `min_sep`, non-finite coordinates, an overflowing
/// diagonal), and when a machine-capacity override does not fit the
/// sized cluster.
fn size_mpc_config(
    ps: &PointSet,
    cfg: &PipelineConfig,
    jl_target: Option<usize>,
) -> Result<MpcConfig, EmbedError> {
    let n = ps.len();
    let d = ps.dim();
    let input_words = n * (d + 1);
    let working_dim_est = jl_target.unwrap_or(d);
    let r_est = cfg
        .r
        .unwrap_or_else(|| crate::params::pipeline_r(n, working_dim_est));
    let diag_est = crate::params::check_points(ps, cfg.min_sep)? * (1.0 + cfg.xi);
    let grid_words_est = crate::params::estimate_grid_words(
        n,
        working_dim_est,
        r_est,
        diag_est,
        cfg.min_sep * (1.0 - cfg.xi),
        cfg.fail_prob,
    );
    let mut mpc_cfg = if let Some(cap) = cfg.capacity {
        MpcConfig::explicit(input_words, cap, cfg.machines.unwrap_or(8))
    } else {
        let scalable = MpcConfig::fully_scalable(input_words, EPSILON);
        let cap = scalable
            .capacity_words
            .max(grid_words_est.saturating_mul(4));
        scalable.with_capacity(cap)
    };
    if let (Some(m), None) = (cfg.machines, cfg.capacity) {
        mpc_cfg = mpc_cfg.with_machines(m);
    }
    mpc_cfg = mpc_cfg.with_threads(cfg.threads);
    for &(machine, words) in &cfg.machine_capacities {
        if machine >= mpc_cfg.num_machines || words == 0 {
            return Err(EmbedError::InvalidConfig {
                field: "machine_capacities",
                value: format!("({machine}, {words})"),
                expected: format!(
                    "a machine in 0..{} and at least 1 word",
                    mpc_cfg.num_machines
                ),
            });
        }
        mpc_cfg = mpc_cfg.with_machine_capacity(machine, words);
    }
    Ok(mpc_cfg)
}

/// One attempt of the pipeline on a fresh runtime.
fn run_attempt(
    ps: &PointSet,
    cfg: &PipelineConfig,
    jl_planned: bool,
    rt: &mut Runtime,
) -> Result<PipelineReport, EmbedError> {
    let run_sp = treeemb_obs::span!("pipeline.run", "n" = ps.len(), "d" = ps.dim());
    let n = ps.len();
    let d = ps.dim();
    let mut stages: Vec<StageStats> = Vec::with_capacity(3);
    // Meters a stage as the (wall, rounds, sent-words) delta around `f`,
    // under a `pipeline.<name>` span so the MPC rounds inside nest.
    let staged = |name: &'static str,
                  rt: &mut Runtime,
                  stages: &mut Vec<StageStats>,
                  f: &mut dyn FnMut(&mut Runtime) -> Result<(), EmbedError>|
     -> Result<(), EmbedError> {
        let rounds0 = rt.metrics().rounds();
        let words0 = rt.metrics().total_sent_words();
        let t0 = treeemb_obs::now_ns();
        let sp = treeemb_obs::Span::enter_with(|| format!("pipeline.{name}"));
        let result = f(rt);
        drop(sp);
        stages.push(StageStats {
            name,
            wall_ns: treeemb_obs::now_ns().saturating_sub(t0),
            rounds: rt.metrics().rounds() - rounds0,
            sent_words: rt.metrics().total_sent_words() - words0,
        });
        result
    };

    // Step 1: dimension reduction, when it helps (d above the JL target).
    let (working, fjlt_params, min_sep) = if jl_planned {
        let params = FjltParams::for_dataset(n, d, cfg.xi, cfg.seed ^ 0xF17);
        let mut projected = None;
        staged("fjlt", rt, &mut stages, &mut |rt| {
            projected = Some(fjlt_mpc(rt, ps, &params)?);
            Ok(())
        })?;
        // JL contracts distances by at most (1 - ξ) w.h.p.
        (
            projected.expect("fjlt stage ran"),
            Some(params),
            cfg.min_sep * (1.0 - cfg.xi),
        )
    } else {
        (ps.clone(), None, cfg.min_sep)
    };

    // Step 2: schedule. The default r keeps bucket dimensions practical
    // (see params::pipeline_r). Machine-local: no rounds, only wall time.
    let mut params_slot = None;
    staged("schedule", rt, &mut stages, &mut |_| {
        let r = cfg
            .r
            .unwrap_or_else(|| crate::params::pipeline_r(n, working.dim()));
        params_slot = Some(HybridParams::for_dataset_with_sep(
            &working,
            r,
            min_sep,
            cfg.fail_prob,
        )?);
        Ok(())
    })?;
    let params = params_slot.expect("schedule stage ran");

    // Steps 3–4: embed and report.
    let mut embedding_slot = None;
    staged("embed", rt, &mut stages, &mut |rt| {
        embedding_slot = Some(embed_mpc(rt, &working, &params, cfg.seed)?);
        Ok(())
    })?;
    let embedding = embedding_slot.expect("embed stage ran");
    let metrics = rt.metrics().clone();
    let fjlt_rounds = stages
        .iter()
        .find(|s| s.name == "fjlt")
        .map_or(0, |s| s.rounds);
    drop(run_sp);
    // With TREEEMB_TRACE (or set_trace_path) configured, persist the
    // trace; a no-op returning None otherwise.
    let _ = treeemb_obs::flush_trace();
    Ok(PipelineReport {
        rounds: metrics.rounds(),
        peak_machine_words: metrics.peak_machine_words(),
        peak_total_words: metrics.peak_total_words(),
        embedding,
        params,
        jl_applied: fjlt_params.is_some(),
        fjlt: fjlt_params,
        fjlt_rounds,
        capacity_words: rt.capacity(),
        machines: rt.num_machines(),
        stages,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{GridEmbedder, SeqEmbedder};
    use treeemb_geom::{generators, metrics};

    fn quick_cfg() -> PipelineConfig {
        PipelineConfig::builder()
            .capacity_words(1 << 15)
            .machines(8)
            .r(4)
            .build()
    }

    #[test]
    fn low_dimensional_input_skips_jl() {
        let ps = generators::uniform_cube(32, 8, 256, 1);
        let report = run(&ps, &quick_cfg()).unwrap();
        assert!(!report.jl_applied);
        assert!(report.fjlt.is_none());
        assert_eq!(report.embedding.tree.num_points(), 32);
    }

    #[test]
    fn high_dimensional_input_takes_jl_path() {
        let ps = generators::noisy_line(24, 200, 1 << 12, 1.0, 2);
        let mut cfg = quick_cfg();
        cfg.xi = 0.45;
        cfg.r = None; // let the pipeline size r for the post-JL dimension
        cfg.capacity = None; // auto-size for the grid payload
        let report = run(&ps, &cfg).unwrap();
        assert!(report.jl_applied);
        let fp = report.fjlt.unwrap();
        assert!(
            fp.k < 200,
            "target dimension {} not smaller than input",
            fp.k
        );
    }

    #[test]
    fn skip_jl_forces_the_direct_path() {
        let ps = generators::noisy_line(24, 200, 1 << 12, 1.0, 2);
        let mut cfg = quick_cfg();
        cfg.r = None;
        cfg.capacity = None;
        cfg.skip_jl = true;
        let report = run(&ps, &cfg).unwrap();
        assert!(!report.jl_applied, "skip_jl must suppress the FJLT");
        assert!(report.fjlt.is_none());
        // The hybrid schedule then runs on the raw 200-dim data, so the
        // bucket count scales with d, not k.
        assert!(report.params.r >= 200usize.div_ceil(5));
        // And full domination holds (no JL contraction slack needed).
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                assert!(report.embedding.tree_distance(i, j) >= e * (1.0 - 1e-9));
            }
        }
    }

    #[test]
    fn pipeline_tree_dominates_within_jl_slack() {
        // After JL, domination holds w.r.t. the *projected* metric, which
        // is within (1±ξ) of the original: tree >= (1-ξ)·euclid.
        let ps = generators::uniform_cube(20, 128, 1 << 10, 3);
        let mut cfg = quick_cfg();
        cfg.xi = 0.4;
        cfg.r = None;
        cfg.capacity = None;
        let report = run(&ps, &cfg).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                let t = report.embedding.tree_distance(i, j);
                assert!(
                    t >= (1.0 - cfg.xi) * e * (1.0 - 1e-9),
                    "({i},{j}): {t} vs {e}"
                );
            }
        }
    }

    #[test]
    fn rounds_do_not_grow_with_n() {
        let mut rounds = Vec::new();
        for n in [16usize, 48] {
            let ps = generators::uniform_cube(n, 8, 256, 7);
            let report = run(&ps, &quick_cfg()).unwrap();
            rounds.push(report.rounds);
        }
        assert_eq!(rounds[0], rounds[1]);
    }

    #[test]
    fn report_carries_meters() {
        let ps = generators::uniform_cube(32, 8, 256, 9);
        let report = run(&ps, &quick_cfg()).unwrap();
        assert!(report.rounds > 0);
        assert!(report.peak_machine_words > 0);
        assert!(report.peak_total_words >= report.peak_machine_words);
        assert_eq!(report.machines, 8);
    }

    #[test]
    fn report_stage_breakdown_accounts_for_all_rounds() {
        let ps = generators::uniform_cube(32, 8, 256, 9);
        let report = run(&ps, &quick_cfg()).unwrap();
        // No JL on 8-dim input: stages are schedule + embed.
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["schedule", "embed"]);
        let stage_rounds: usize = report.stages.iter().map(|s| s.rounds).sum();
        assert_eq!(
            stage_rounds, report.rounds,
            "every round belongs to a stage"
        );
        let stage_words: usize = report.stages.iter().map(|s| s.sent_words).sum();
        assert_eq!(stage_words, report.metrics.total_sent_words());
        let embed = report.stages.iter().find(|s| s.name == "embed").unwrap();
        assert!(embed.rounds > 0 && embed.wall_ns > 0);
    }

    #[test]
    fn report_jl_run_leads_with_fjlt_stage() {
        let ps = generators::noisy_line(24, 200, 1 << 12, 1.0, 2);
        let mut cfg = quick_cfg();
        cfg.r = None;
        cfg.capacity = None;
        let report = run(&ps, &cfg).unwrap();
        assert!(report.jl_applied);
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["fjlt", "schedule", "embed"]);
        assert_eq!(report.stages[0].rounds, report.fjlt_rounds);
        assert_eq!(report.stages[1].rounds, 0, "scheduling is machine-local");
    }

    #[test]
    fn tree_is_invariant_to_threads_and_machines() {
        let ps = generators::uniform_cube(256, 8, 256, 13);
        let mut trees = Vec::new();
        for threads in [1, 2] {
            for machines in [Some(1), Some(13), None] {
                let mut b = PipelineConfig::builder().threads(threads);
                if let Some(m) = machines {
                    b = b.capacity_words(1 << 16).machines(m);
                }
                let report = run(&ps, &b.build()).unwrap();
                if let Some(m) = machines {
                    assert_eq!(report.machines, m);
                }
                trees.push((threads, machines, report.embedding.tree.to_json()));
            }
        }
        for (threads, machines, json) in &trees[1..] {
            assert!(
                *json == trees[0].2,
                "threads {threads}, machines {machines:?}: tree differs"
            );
        }
    }

    #[test]
    fn auto_sized_runtime_spreads_points_evenly() {
        let ps = generators::uniform_cube(2048, 16, 1 << 10, 5);
        let cfg = PipelineConfig::default();
        let mut rt = Runtime::builder()
            .config(size_mpc_config(&ps, &cfg, None).unwrap())
            .build();
        let r = crate::params::pipeline_r(ps.len(), ps.dim());
        let params =
            HybridParams::for_dataset_with_sep(&ps, r, cfg.min_sep, cfg.fail_prob).unwrap();
        let full = crate::mpc_embed::embed_mpc_full(&mut rt, &ps, &params, cfg.seed).unwrap();
        let loads: Vec<usize> = full
            .paths
            .parts()
            .iter()
            .map(Vec::len)
            .filter(|&n| n > 0)
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = ps.len() as f64 / loads.len() as f64;
        assert!(loads.len() > 1, "every point on one machine");
        assert!(
            max / mean <= 1.1,
            "max {max} vs mean {mean} points per machine"
        );
    }

    /// Each value `MpcConfig` would assert on is a typed error naming
    /// the field and the value, not a panic.
    #[test]
    fn invalid_config_values_are_typed_errors() {
        let ps = generators::uniform_cube(16, 4, 64, 3);
        let b = PipelineConfig::builder;
        let cases = [
            (b().threads(0), "threads", "0"),
            (b().capacity_words(0), "capacity", "0"),
            (b().machines(0), "machines", "0"),
            (b().r(0), "r", "0"),
            (
                b().machines(4).machine_capacity(9, 64),
                "machine_capacities",
                "(9, 64)",
            ),
            (b().machine_capacity(1, 0), "machine_capacities", "(1, 0)"),
        ];
        for (builder, field, value) in cases {
            let cfg = builder.build();
            let (result, events) = run_faulted(&ps, &cfg);
            match result {
                Err(EmbedError::InvalidConfig {
                    field: f, value: v, ..
                }) => {
                    assert_eq!((f, v.as_str()), (field, value), "{cfg:?}");
                }
                other => panic!("{field} = {value}: expected InvalidConfig, got {other:?}"),
            }
            assert!(events.is_empty());
            let msg = run(&ps, &cfg).unwrap_err().to_string();
            assert!(msg.contains(field) && msg.contains(value), "{msg}");
        }
    }

    /// Schedule inputs out of range are typed errors, not a hang in the
    /// level loop or a panic in the JL or coverage formulas.
    #[test]
    fn bad_schedule_values_are_typed_errors() {
        let ps = generators::uniform_cube(64, 8, 1024, 1);
        let b = PipelineConfig::builder;
        for bad in [0.0, 1.0, 2.0, f64::NAN] {
            for (cfg, field) in [(b().xi(bad), "xi"), (b().fail_prob(bad), "fail_prob")] {
                let err = run(&ps, &cfg.build()).unwrap_err();
                assert!(
                    matches!(err, EmbedError::InvalidConfig { field: f, .. } if f == field),
                    "{field} = {bad}: {err:?}"
                );
            }
        }
        for bad in [0.0, -1.0, f64::NAN] {
            let err = run(&ps, &b().min_sep(bad).build()).unwrap_err();
            assert!(
                matches!(err, EmbedError::BadSeparation(s) if s.to_bits() == bad.to_bits()),
                "{err:?}"
            );
        }
    }

    /// A coordinate span whose bounding-box diagonal overflows `f64`
    /// (here 1e300) is a typed error through both embedders, not a
    /// panic in the scale schedule.
    #[test]
    fn overflowing_diagonal_is_a_typed_error_in_both_embedders() {
        let ps = PointSet::from_rows(&[vec![0.0, 0.0], vec![1e300, 1.0], vec![2.0, 3.0]]);
        let is_diagonal_error = |e: &EmbedError| matches!(e, EmbedError::InvalidConfig { field: "diagonal", value, .. } if value == "inf");
        let seq = HybridParams::for_dataset(&ps, 2)
            .and_then(|params| SeqEmbedder::new(params).embed(&ps, 1));
        assert!(is_diagonal_error(seq.as_ref().unwrap_err()), "{seq:?}");
        let grid = GridEmbedder::for_dataset(&ps).unwrap_err();
        assert!(is_diagonal_error(&grid), "{grid:?}");
        let mpc = run(&ps, &quick_cfg()).unwrap_err();
        assert!(is_diagonal_error(&mpc), "{mpc:?}");
        assert!(mpc.to_string().contains("diagonal"), "{mpc}");
        // An infinite coordinate is named as such before the diagonal.
        let inf = PointSet::from_rows(&[vec![0.0, 0.0], vec![f64::INFINITY, 1.0]]);
        assert_eq!(
            run(&inf, &quick_cfg()).unwrap_err(),
            EmbedError::NonFiniteInput { point: 1 }
        );
    }

    #[test]
    fn report_metrics_clone_matches_scalar_summaries() {
        let ps = generators::uniform_cube(32, 8, 256, 9);
        let report = run(&ps, &quick_cfg()).unwrap();
        assert_eq!(report.metrics.rounds(), report.rounds);
        assert_eq!(
            report.metrics.peak_machine_words(),
            report.peak_machine_words
        );
        assert_eq!(report.metrics.peak_total_words(), report.peak_total_words);
        assert_eq!(report.metrics.round_stats().len(), report.rounds);
    }
}
