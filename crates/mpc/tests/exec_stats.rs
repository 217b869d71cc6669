//! `exec::stats()` accounting on the sequential-fallback path.
//!
//! The executor takes a plain sequential loop when `threads <= 1`, the
//! input is tiny (`n <= 1`), or the call is nested inside another job.
//! The utilization counters must keep telling the truth there: every
//! call is attributed to exactly one of `jobs`/`sequential_jobs`, and
//! `tasks` counts every item regardless of which path ran — the
//! sequential path must never undercount relative to the parallel one.
//!
//! Counters are process-global atomics, so the tests serialize on a
//! lock and assert on deltas.

use std::sync::Mutex;
use treeemb_mpc::exec;

static TEST_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn threads_one_takes_the_sequential_path_and_counts_all_tasks() {
    let _guard = TEST_LOCK.lock().unwrap();
    let before = exec::stats();
    let out = exec::par_map_indexed((0..100u64).collect(), 1, |i, x| (i as u64) + x);
    assert_eq!(out, (0..100u64).map(|x| 2 * x).collect::<Vec<_>>());
    let after = exec::stats();
    assert_eq!(
        after.sequential_jobs - before.sequential_jobs,
        1,
        "threads=1 must run as one sequential job"
    );
    assert_eq!(after.jobs, before.jobs, "no parallel job may run");
    assert_eq!(
        after.tasks - before.tasks,
        100,
        "every item counts as a task on the sequential path"
    );
}

#[test]
fn tiny_inputs_take_the_sequential_path_even_with_many_threads() {
    let _guard = TEST_LOCK.lock().unwrap();
    let before = exec::stats();
    // n <= 1 falls back regardless of the thread budget.
    let out = exec::par_map_indexed(vec![7u64], 8, |_, x| x * 3);
    assert_eq!(out, vec![21]);
    let empty: Vec<u64> = exec::par_map_indexed(Vec::<u64>::new(), 8, |_, x| x);
    assert!(empty.is_empty());
    let after = exec::stats();
    assert_eq!(after.sequential_jobs - before.sequential_jobs, 2);
    assert_eq!(after.jobs, before.jobs);
    assert_eq!(after.tasks - before.tasks, 1, "one item, one task");
}

#[test]
fn threads_zero_takes_the_sequential_path() {
    let _guard = TEST_LOCK.lock().unwrap();
    let before = exec::stats();
    let out = exec::par_map_indexed((0..64u64).collect(), 0, |i, x| x + i as u64);
    assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    let after = exec::stats();
    assert_eq!(after.sequential_jobs - before.sequential_jobs, 1);
    assert_eq!(after.jobs, before.jobs);
    assert_eq!(after.tasks - before.tasks, 64);
}

/// The headline invariant: for the same input, the sequential path
/// accounts exactly as many tasks and exactly as many total jobs
/// (parallel + sequential) as the parallel path — switching paths can never
/// make work disappear from the stats.
#[test]
fn sequential_path_never_undercounts_vs_parallel() {
    let _guard = TEST_LOCK.lock().unwrap();
    let n = 512usize;
    let input: Vec<u64> = (0..n as u64).collect();

    let before_seq = exec::stats();
    let seq_out = exec::par_map_indexed(input.clone(), 1, |_, x| x.wrapping_mul(3));
    let after_seq = exec::stats();

    let before_par = exec::stats();
    let par_out = exec::par_map_indexed(input, 4, |_, x| x.wrapping_mul(3));
    let after_par = exec::stats();

    assert_eq!(seq_out, par_out, "both paths compute the same result");
    let seq_tasks = after_seq.tasks - before_seq.tasks;
    let par_tasks = after_par.tasks - before_par.tasks;
    assert_eq!(seq_tasks, n as u64);
    assert!(
        seq_tasks >= par_tasks,
        "sequential path undercounted tasks: {seq_tasks} < {par_tasks}"
    );
    let seq_calls = (after_seq.jobs - before_seq.jobs)
        + (after_seq.sequential_jobs - before_seq.sequential_jobs);
    let par_calls = (after_par.jobs - before_par.jobs)
        + (after_par.sequential_jobs - before_par.sequential_jobs);
    assert_eq!(seq_calls, 1, "one call, one job record (sequential)");
    assert_eq!(par_calls, 1, "one call, one job record (parallel)");
    // And the parallel run actually ran in parallel, so the comparison
    // above compared the two distinct paths.
    assert_eq!(after_par.jobs - before_par.jobs, 1);
}

/// Nested calls (inside an executor job) also fall back sequentially
/// and must still account their tasks.
#[test]
fn nested_calls_account_their_tasks() {
    let _guard = TEST_LOCK.lock().unwrap();
    let before = exec::stats();
    let out = exec::par_map_indexed((0..8u64).collect(), 4, |_, x| {
        exec::par_map_indexed((0..16u64).collect(), 4, move |_, y| y + x)
            .into_iter()
            .sum::<u64>()
    });
    assert_eq!(out.len(), 8);
    let after = exec::stats();
    // 8 outer items + 8 nested calls of 16 items each.
    assert_eq!(after.tasks - before.tasks, 8 + 8 * 16);
    assert_eq!(
        after.sequential_jobs - before.sequential_jobs,
        8,
        "each nested call is one sequential job"
    );
}

/// `stats()` itself is a consistent snapshot: the per-helper vector
/// matches the spawned count, the busy total covers the caller, and the
/// helper count stays within its cap.
#[test]
fn stats_snapshot_is_internally_consistent() {
    let _guard = TEST_LOCK.lock().unwrap();
    let _ = exec::par_map_indexed((0..32u64).collect(), 1, |_, x| x);
    let s = exec::stats();
    assert_eq!(s.worker_busy_ns.len(), s.workers_spawned);
    assert!(s.workers_spawned <= exec::MAX_WORKERS);
}
