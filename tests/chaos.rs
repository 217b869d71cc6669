//! Chaos conformance suite (tier-1): under injected faults the pipeline
//! must either produce output bit-identical to the fault-free run or
//! return a typed error — never a silently wrong tree, never a panic.
//! Deeper per-stage sweeps live in the `treeemb-bench` `chaos` binary
//! (CI nightly); these tests pin the contract on every `cargo test`.

use treeemb_bench::chaos::{check_stage, plan_matrix, sweep, ChaosVerdict, Stage};
use treeemb_core::pipeline::{self, PipelineConfig};
use treeemb_core::EmbedError;
use treeemb_geom::generators;
use treeemb_mpc::fault::{FaultEvent, FaultPlan, FaultRates, FaultSpec};
use treeemb_mpc::MpcError;

fn pipeline_cfg(threads: usize) -> PipelineConfig {
    PipelineConfig::builder()
        .capacity_words(1 << 15)
        .machines(8)
        .r(4)
        .threads(threads)
        .seed(0x7EED)
        .build()
}

fn pinpoint_plan(seed: u64) -> FaultPlan {
    plan_matrix(seed)
        .into_iter()
        .find(|(name, _)| *name == "pinpoint")
        .map(|(_, plan)| plan)
        .expect("plan matrix always contains the pinpoint plan")
}

/// The core conformance claim: a deterministic retryable fault schedule
/// (one first-attempt message drop per round) leaves every stage's
/// output bit-identical to its fault-free run after the retry.
#[test]
fn retryable_faults_leave_output_bit_identical() {
    for stage in Stage::all() {
        let outcome = check_stage(stage, &pinpoint_plan(5), 5);
        assert_eq!(
            outcome.verdict,
            ChaosVerdict::Conformant,
            "stage {} diverged under a retryable schedule",
            stage.name()
        );
        assert!(
            outcome.faults > 0,
            "stage {} injected no faults; the schedule missed every round",
            stage.name()
        );
        assert!(
            outcome
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Injected(FaultSpec::Drop { .. }))),
            "stage {} log has no drop events",
            stage.name()
        );
    }
}

/// Acceptance check: a non-retryable capacity squeeze surfaces from
/// the full pipeline as a typed `MpcError` — not a panic, not a
/// silently truncated tree.
#[test]
fn capacity_squeeze_is_a_typed_error_from_the_full_pipeline() {
    let ps = generators::uniform_cube(24, 8, 256, 5);
    let plan = FaultPlan::new(5).with_fault(FaultSpec::Squeeze {
        from_round: 2,
        capacity_words: 32,
    });
    let mut cfg = pipeline_cfg(2);
    cfg.faults = Some(plan);
    cfg.fault_attempts = 2;
    let (result, events) = pipeline::run_faulted(&ps, &cfg);
    match result {
        Err(EmbedError::Mpc(e)) => {
            assert!(
                matches!(e, MpcError::CapacityExceeded { .. }),
                "expected a capacity error, got: {e}"
            );
            assert!(
                !e.is_retryable(),
                "a capacity squeeze must not be classified retryable"
            );
        }
        other => panic!("expected a typed MPC error, got {other:?}"),
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FaultEvent::Injected(FaultSpec::Squeeze { .. }))),
        "fault log must name the squeeze that caused the failure"
    );
}

/// Acceptance check: a fixed (seed, plan) pair reproduces the exact
/// same fault sequence and outcome regardless of `--threads`.
#[test]
fn fault_sequence_and_outcome_are_thread_count_invariant() {
    let ps = generators::uniform_cube(24, 8, 256, 9);
    let mut plan = FaultPlan::new(41)
        .with_rates(FaultRates {
            drop: 0.0005,
            unavailable: 0.003,
            crash: 0.0,
        })
        .with_max_retries(8);
    // First-attempt drops (as in the `pinpoint` plan) guarantee real
    // exchange retries, so the comparison covers retried rounds.
    for round in 0..6 {
        plan = plan.with_fault(FaultSpec::Drop {
            round,
            attempt: 0,
            src: 0,
            msg_index: 0,
        });
    }
    let mut baseline: Option<(Result<Vec<u64>, String>, Vec<_>)> = None;
    for threads in [1usize, 2, 7] {
        let mut cfg = pipeline_cfg(threads);
        cfg.faults = Some(plan.clone());
        cfg.fault_attempts = 2;
        let (result, events) = pipeline::run_faulted(&ps, &cfg);
        let attempts: Vec<u32> = result
            .as_ref()
            .map(|report| {
                report
                    .metrics
                    .round_stats()
                    .iter()
                    .map(|r| r.attempts)
                    .collect()
            })
            .unwrap_or_default();
        assert!(
            attempts.iter().any(|&a| a > 1),
            "no round retried at threads={threads} (attempts: {attempts:?})"
        );
        let digest = result
            .map(|report| {
                let emb = &report.embedding;
                let mut bits = Vec::new();
                for i in 0..ps.len() {
                    for j in (i + 1)..ps.len() {
                        bits.push(emb.tree_distance(i, j).to_bits());
                    }
                }
                bits
            })
            .map_err(|e| e.to_string());
        match &baseline {
            None => baseline = Some((digest, events)),
            Some((ref_digest, ref_events)) => {
                assert_eq!(
                    ref_digest, &digest,
                    "outcome changed between thread counts (threads={threads})"
                );
                assert_eq!(
                    ref_events, &events,
                    "fault sequence changed between thread counts (threads={threads})"
                );
            }
        }
    }
    let (_, events) = baseline.expect("loop ran");
    assert!(
        !events.is_empty(),
        "plan injected no faults; test is vacuous"
    );
}

/// A plan serialized to JSON and parsed back replays the identical run:
/// same verdict, same fault log. This is what makes the shrunk plans the
/// chaos binary prints actionable.
#[test]
fn json_round_tripped_plan_replays_identically() {
    let plan = pinpoint_plan(3);
    let reparsed = FaultPlan::from_json(&plan.to_json()).expect("plan JSON must parse");
    assert_eq!(plan, reparsed);
    // A plan file written when straggles, simulated backoff and
    // duplicates existed still parses to the same plan: the retired
    // straggle and backoff keys are ignored like any unknown key,
    // whatever their value, and so is the zero duplicate rate every such
    // file carries.
    let legacy = |duplicate: &str| {
        plan.to_json().replacen(
            "\"rates\": {",
            &format!(
                "\"backoff_ns\": 1000000,\n  \"rates\": {{\"straggle\": 0.5, \"straggle_ns\": -5.0, \"duplicate\": {duplicate}, "
            ),
            1,
        )
    };
    assert!(legacy("0.0").contains("backoff_ns"), "{}", legacy("0.0"));
    assert_eq!(
        FaultPlan::from_json(&legacy("0.0")).expect("legacy plan JSON must parse"),
        plan
    );
    // A non-zero duplicate rate had an effect (a retried exchange), so
    // dropping it silently would change the replay: it is an error that
    // points at the drop rate.
    let err = FaultPlan::from_json(&legacy("0.0001")).unwrap_err();
    assert!(
        err.contains("rates.duplicate") && err.contains("rates.drop"),
        "{err}"
    );
    let a = check_stage(Stage::Partition, &plan, 3);
    let b = check_stage(Stage::Partition, &reparsed, 3);
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.events, b.events);
}

/// Small in-tree slice of the nightly sweep: every (stage, plan, seed)
/// cell must be conformant or a typed error.
#[test]
fn mini_sweep_upholds_the_conformance_contract() {
    let rows = sweep(&[Stage::Partition, Stage::Pipeline], 2);
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(
            !row.outcome.verdict.is_failure(),
            "contract violation: stage={} plan={} seed={} verdict={:?}",
            row.stage.name(),
            row.plan_name,
            row.seed,
            row.outcome.verdict
        );
    }
    // The squeeze column must actually bite (typed, never conformant):
    // capacity 32 cannot hold these rounds.
    assert!(
        rows.iter()
            .filter(|r| r.plan_name == "squeeze")
            .all(|r| matches!(r.outcome.verdict, ChaosVerdict::TypedError(_))),
        "squeeze plans should surface as typed errors"
    );
    // The crash column must recover (conformant, with restores logged);
    // the crash-exhaust column must die of the typed recovery error.
    for row in rows.iter().filter(|r| r.plan_name == "crash") {
        assert_eq!(
            row.outcome.verdict,
            ChaosVerdict::Conformant,
            "crash plan should recover bit-identically (stage={} seed={})",
            row.stage.name(),
            row.seed
        );
        assert!(
            row.outcome
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Injected(FaultSpec::Crash { .. }))),
            "crash plan injected no crashes (stage={} seed={})",
            row.stage.name(),
            row.seed
        );
    }
    assert!(
        rows.iter()
            .filter(|r| r.plan_name == "crash-exhaust")
            .all(|r| matches!(r.outcome.verdict, ChaosVerdict::TypedError(_))),
        "exhausted recovery budgets should surface as typed errors"
    );
}

/// Tentpole acceptance check: with at least one scheduled crash in
/// every early round, the full pipeline completes via checkpoint
/// recovery, its output is bit-identical to the fault-free run, the
/// restores show up in `Metrics::recoveries`, and the checkpoint's words
/// are metered.
#[test]
fn scheduled_crashes_recover_bit_identical_through_the_pipeline() {
    let ps = generators::uniform_cube(24, 8, 256, 11);
    let cfg = pipeline_cfg(2);
    let clean = pipeline::run(&ps, &cfg).expect("fault-free pipeline failed");

    // Rounds the pipeline accounts analytically (broadcast steps) never
    // execute, so blanket every index: each *executed* round then loses
    // exactly one machine.
    let mut plan = FaultPlan::new(11);
    for round in 0..32 {
        plan = plan.with_fault(FaultSpec::Crash {
            round,
            attempt: 0,
            machine: round % 8,
        });
    }
    let mut crashed_cfg = pipeline_cfg(2);
    crashed_cfg.faults = Some(plan);
    let (result, events) = pipeline::run_faulted(&ps, &crashed_cfg);
    let report = result.expect("crashed pipeline must recover from checkpoints");

    for i in 0..ps.len() {
        for j in (i + 1)..ps.len() {
            assert_eq!(
                clean.embedding.tree_distance(i, j).to_bits(),
                report.embedding.tree_distance(i, j).to_bits(),
                "recovered run diverged from the fault-free run at pair ({i},{j})"
            );
        }
    }
    let executed_rounds = report
        .metrics
        .round_stats()
        .iter()
        .filter(|r| r.checkpoint_words > 0)
        .count() as u32;
    assert!(
        executed_rounds >= 2,
        "pipeline should execute several rounds"
    );
    assert_eq!(
        report.metrics.recoveries(),
        executed_rounds,
        "every executed round should have restored exactly one machine"
    );
    assert!(
        report.metrics.peak_checkpoint_words() > 0,
        "checkpoint words must be metered against total space"
    );
    assert!(
        report
            .metrics
            .round_stats()
            .iter()
            .any(|r| r.recoveries > 0 && r.checkpoint_words > 0),
        "per-round stats must attribute restores to checkpointed rounds"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, FaultEvent::Injected(FaultSpec::Crash { .. }))));
    assert!(events
        .iter()
        .any(|e| matches!(e, FaultEvent::Recovered { .. })));
}

/// Tentpole acceptance check: a crash schedule that outlives the
/// recovery budget surfaces as the typed, retryable
/// `MpcError::RecoveryExhausted` — never a panic.
#[test]
fn exhausted_recovery_budget_is_a_typed_retryable_error() {
    let ps = generators::uniform_cube(24, 8, 256, 13);
    // Crash machine 0 on the initial run and the single permitted
    // re-execution of whichever round executes first (accounted rounds
    // are skipped, so blanket every index).
    let mut plan = FaultPlan::new(13).with_max_recoveries(1);
    for round in 0..32 {
        for attempt in 0..2 {
            plan = plan.with_fault(FaultSpec::Crash {
                round,
                attempt,
                machine: 0,
            });
        }
    }
    let mut cfg = pipeline_cfg(2);
    cfg.faults = Some(plan);
    cfg.fault_attempts = 2;
    let (result, events) = pipeline::run_faulted(&ps, &cfg);
    match result {
        Err(EmbedError::Mpc(e)) => {
            assert!(
                matches!(e, MpcError::RecoveryExhausted { attempts: 2, .. }),
                "expected RecoveryExhausted after 2 executions, got: {e}"
            );
            assert!(
                e.is_retryable(),
                "recovery exhaustion is transient and must be retryable"
            );
        }
        other => panic!("expected a typed MPC error, got {other:?}"),
    }
    assert!(
        events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Injected(FaultSpec::Crash { .. })))
            .count()
            >= 2,
        "fault log must name every crashed execution"
    );
}
