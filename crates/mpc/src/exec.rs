//! Deterministic parallel executor for machine-local computation.
//!
//! Machines within an MPC round are independent, so the runtime executes
//! them concurrently. Each parallel job runs inside one
//! [`std::thread::scope`]: the caller plus `participants - 1` helper
//! threads claim contiguous chunks of items off a single `AtomicUsize`
//! cursor, so uneven per-item costs still balance. The input is split
//! into chunks up front, each in its own `Mutex<Option<Vec<T>>>` that the
//! participant claiming its index takes exactly once. Participants
//! return their finished chunks tagged with the chunk index, and the
//! caller concatenates them in chunk order. The executor is safe Rust;
//! the crate root forbids `unsafe_code`.
//!
//! Helpers are spawned per job rather than kept in a pool: an operation
//! runs a handful of parallel jobs, and a scoped spawn and join of one
//! helper costs tens of microseconds against rounds that run for
//! milliseconds.
//!
//! Determinism: output `i` is exactly `f(i, item_i)` no matter how
//! chunks land on threads, so results are bit-identical for every thread
//! count (including the sequential fallback).
//!
//! Panics: a panicking closure parks the cursor past the end, so the
//! other participants stop at their next claim. Once every participant
//! has joined, the caller re-raises the first payload with
//! [`resume_unwind`] — never a deadlock.
//!
//! Nested calls (a round closure invoking the executor again) run the
//! inner call sequentially, so a job never multiplies its thread count.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bound on helper threads per job; `threads` arguments beyond
/// `MAX_WORKERS + 1` run as the caller plus `MAX_WORKERS` helpers.
pub const MAX_WORKERS: usize = 31;

/// Cursor chunks handed out per participant (on average); >1 so
/// uneven per-item costs still balance, small enough to keep claims
/// rare.
const CHUNKS_PER_PARTICIPANT: usize = 8;

/// Cumulative executor instrumentation. Counters are always on (a
/// handful of relaxed atomic adds per *job*, which is per MPC round —
/// far off the per-item hot path); trace events additionally flow to
/// `treeemb-obs` only while tracing is armed.
struct ExecCounters {
    /// Jobs run in parallel.
    jobs: AtomicU64,
    /// Jobs that took the sequential fallback (tiny input, `threads <= 1`,
    /// or nested inside another job).
    sequential_jobs: AtomicU64,
    /// Items processed across all jobs (parallel and sequential).
    tasks: AtomicU64,
    /// Chunk claims served off job cursors (work-stealing granularity).
    chunk_claims: AtomicU64,
    /// Nanoseconds calling threads spent participating in jobs.
    caller_busy_ns: AtomicU64,
    /// Largest helper count of any parallel job.
    workers_spawned: AtomicUsize,
    /// Per-helper-slot nanoseconds spent in jobs.
    worker_busy_ns: [AtomicU64; MAX_WORKERS],
}

static COUNTERS: ExecCounters = ExecCounters {
    jobs: AtomicU64::new(0),
    sequential_jobs: AtomicU64::new(0),
    tasks: AtomicU64::new(0),
    chunk_claims: AtomicU64::new(0),
    caller_busy_ns: AtomicU64::new(0),
    workers_spawned: AtomicUsize::new(0),
    worker_busy_ns: [const { AtomicU64::new(0) }; MAX_WORKERS],
};

/// Snapshot of the executor's cumulative utilization counters.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Jobs run in parallel.
    pub jobs: u64,
    /// Jobs that ran on the sequential fallback path.
    pub sequential_jobs: u64,
    /// Items processed across all jobs.
    pub tasks: u64,
    /// Chunk claims served off job cursors.
    pub chunk_claims: u64,
    /// Nanoseconds calling threads spent participating in jobs.
    pub caller_busy_ns: u64,
    /// Largest `participants - 1` of any parallel job so far (at most
    /// [`MAX_WORKERS`]).
    pub workers_spawned: usize,
    /// Busy nanoseconds per helper slot: entry `k` sums the time the
    /// `k`-th helper of every job spent in it.
    pub worker_busy_ns: Vec<u64>,
}

/// Snapshots the executor's cumulative counters.
pub fn stats() -> ExecStats {
    let spawned = COUNTERS.workers_spawned.load(Ordering::Relaxed);
    ExecStats {
        jobs: COUNTERS.jobs.load(Ordering::Relaxed),
        sequential_jobs: COUNTERS.sequential_jobs.load(Ordering::Relaxed),
        tasks: COUNTERS.tasks.load(Ordering::Relaxed),
        chunk_claims: COUNTERS.chunk_claims.load(Ordering::Relaxed),
        caller_busy_ns: COUNTERS.caller_busy_ns.load(Ordering::Relaxed),
        workers_spawned: spawned,
        worker_busy_ns: COUNTERS.worker_busy_ns[..spawned]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
    }
}

/// Zeroes the cumulative counters. Intended for benchmark harnesses
/// that attribute counters to phases.
pub fn reset_stats() {
    COUNTERS.jobs.store(0, Ordering::Relaxed);
    COUNTERS.sequential_jobs.store(0, Ordering::Relaxed);
    COUNTERS.tasks.store(0, Ordering::Relaxed);
    COUNTERS.chunk_claims.store(0, Ordering::Relaxed);
    COUNTERS.caller_busy_ns.store(0, Ordering::Relaxed);
    COUNTERS.workers_spawned.store(0, Ordering::Relaxed);
    for c in &COUNTERS.worker_busy_ns {
        c.store(0, Ordering::Relaxed);
    }
}

/// Emits the headline executor counters into the active trace (no-op
/// while tracing is disarmed). Called after each parallel job.
fn publish_trace_counters() {
    if !treeemb_obs::enabled() {
        return;
    }
    treeemb_obs::counter("exec.jobs", COUNTERS.jobs.load(Ordering::Relaxed));
    treeemb_obs::counter("exec.tasks", COUNTERS.tasks.load(Ordering::Relaxed));
    treeemb_obs::counter(
        "exec.chunk_claims",
        COUNTERS.chunk_claims.load(Ordering::Relaxed),
    );
}

thread_local! {
    /// True while this thread participates in a parallel job (as the
    /// caller or as a helper).
    static IN_EXECUTOR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_executor() -> bool {
    IN_EXECUTOR.with(std::cell::Cell::get)
}

/// One parallel job's shared state: the pre-split input, the claim
/// cursor and the first panic payload.
struct Job<T> {
    /// Items per chunk (the last chunk may be shorter).
    chunk: usize,
    /// The input in chunks; claiming index `c` off `cursor` entitles a
    /// participant to take chunk `c`.
    chunks: Vec<Mutex<Option<Vec<T>>>>,
    cursor: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T> Job<T> {
    /// Splits `items` into chunks for `participants` threads.
    fn new(items: Vec<T>, participants: usize) -> Self {
        let chunk = (items.len() / (participants * CHUNKS_PER_PARTICIPANT)).max(1);
        let mut rest = items.into_iter();
        let chunks = std::iter::from_fn(|| {
            let c: Vec<T> = rest.by_ref().take(chunk).collect();
            (!c.is_empty()).then(|| Mutex::new(Some(c)))
        })
        .collect();
        Self {
            chunk,
            chunks,
            cursor: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    /// Claims chunks and maps their items until the cursor runs out,
    /// returning each finished chunk with its index. On panic, halts
    /// all participants and records the first payload.
    fn drive<U>(&self, f: &impl Fn(usize, T) -> U) -> Vec<(usize, Vec<U>)> {
        let mut done = Vec::new();
        let mut claims = 0u64;
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let c = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.chunks.get(c) else {
                break;
            };
            claims += 1;
            let items = slot
                .lock()
                .expect("chunk slot poisoned")
                .take()
                .expect("each chunk is claimed once");
            let base = c * self.chunk;
            let out = items
                .into_iter()
                .enumerate()
                .map(|(j, x)| f(base + j, x))
                .collect();
            done.push((c, out));
        }));
        if claims > 0 {
            COUNTERS.chunk_claims.fetch_add(claims, Ordering::Relaxed);
        }
        if let Err(payload) = result {
            // Park the cursor past the end so other participants stop at
            // their next claim.
            self.cursor.store(self.chunks.len(), Ordering::Relaxed);
            self.panic
                .lock()
                .expect("panic slot poisoned")
                .get_or_insert(payload);
        }
        done
    }
}

/// Runs one participant's share of `job` on the current thread, adding
/// its busy time to `busy_ns`.
fn participate<T, U>(
    job: &Job<T>,
    f: &impl Fn(usize, T) -> U,
    busy_ns: &AtomicU64,
) -> Vec<(usize, Vec<U>)> {
    IN_EXECUTOR.with(|flag| flag.set(true));
    // lint:allow(wall-clock): busy-time metering feeds the executor
    // counters only; outputs never see these values.
    let start = Instant::now();
    let done = job.drive(f);
    busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    IN_EXECUTOR.with(|flag| flag.set(false));
    done
}

/// Applies `f` to every `(index, item)` pair, running up to `threads`
/// participants concurrently (the caller plus scoped helper threads),
/// and returns the results in index order.
///
/// Falls back to a plain sequential loop when `threads <= 1`, the item
/// count is tiny, or the call is nested inside another executor job.
pub fn par_map_indexed<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    COUNTERS.tasks.fetch_add(n as u64, Ordering::Relaxed);
    if threads <= 1 || n <= 1 || in_executor() {
        COUNTERS.sequential_jobs.fetch_add(1, Ordering::Relaxed);
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let participants = threads.min(n).min(MAX_WORKERS + 1);
    COUNTERS.jobs.fetch_add(1, Ordering::Relaxed);
    COUNTERS
        .workers_spawned
        .fetch_max(participants - 1, Ordering::Relaxed);
    let mut sp = treeemb_obs::Span::enter("exec.map");
    sp.arg("items", n as u64);
    sp.arg("participants", participants as u64);
    let job = Job::new(items, participants);
    let (job_ref, f_ref) = (&job, &f);
    // lint:allow(thread-spawn): this IS mpc::exec — the one sanctioned
    // place that starts threads in the workspace.
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (0..participants - 1)
            .map(|slot| {
                s.spawn(move || participate(job_ref, f_ref, &COUNTERS.worker_busy_ns[slot]))
            })
            .collect();
        let mut done = participate(job_ref, f_ref, &COUNTERS.caller_busy_ns);
        for h in helpers {
            done.extend(h.join().expect("helpers catch closure panics"));
        }
        done
    });
    drop(sp);
    publish_trace_counters();
    if let Some(payload) = job.panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
    done.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(n);
    for (_, chunk) in done {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..500).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        let par = par_map_indexed(items, 8, |_, x| x * x);
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_passes_correct_indices() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_indexed(items, 4, |i, x| (i as u64, x));
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*val, i as u64);
        }
    }

    #[test]
    fn par_map_single_thread_fallback() {
        let out = par_map_indexed(vec![1, 2, 3], 1, |_, x: i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn each_task_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let out = par_map_indexed((0..1000).collect::<Vec<usize>>(), 6, |_, x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 1000);
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        // The workloads feed floating point through index-dependent math;
        // bit-identity across thread counts is the determinism contract.
        let items: Vec<f64> = (0..4096).map(|i| (i as f64).sin() * 1e3).collect();
        let reference = par_map_indexed(items.clone(), 1, |i, x| (x * i as f64).to_bits());
        for threads in [2, 8, 64] {
            let got = par_map_indexed(items.clone(), threads, |i, x| (x * i as f64).to_bits());
            assert_eq!(got, reference, "threads={threads}");
        }
        // 64 threads exceed MAX_WORKERS + 1: the helper count is capped.
        assert!(stats().workers_spawned <= MAX_WORKERS);
    }

    #[test]
    fn panic_in_worker_propagates_not_deadlocks() {
        for threads in [2usize, 8] {
            let result = std::panic::catch_unwind(|| {
                par_map_indexed((0..512).collect::<Vec<usize>>(), threads, |i, x| {
                    assert!(i != 137, "boom at {i}");
                    x
                })
            });
            let payload = result.expect_err("panic must propagate");
            // The re-raised payload is the closure's own, not a join error.
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("boom at 137"),
                "threads={threads}"
            );
        }
        // The executor must remain usable after a panicked job.
        let ok = par_map_indexed((0..64).collect::<Vec<u64>>(), 8, |_, x| x + 1);
        assert_eq!(ok.len(), 64);
    }

    #[test]
    fn nested_calls_run_sequentially_without_deadlock() {
        let outer: Vec<u64> = (0..64).collect();
        let out = par_map_indexed(outer, 4, |_, x| {
            let inner: Vec<u64> = (0..16).collect();
            par_map_indexed(inner, 4, |_, y| y + x).iter().sum::<u64>()
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (0..16).map(|y| y + i as u64).sum::<u64>());
        }
    }

    #[test]
    fn many_small_jobs_back_to_back() {
        for round in 0..200u64 {
            let items: Vec<u64> = (0..32).collect();
            let out = par_map_indexed(items, 4, move |_, x| x + round);
            assert_eq!(out[31], 31 + round);
        }
    }

    #[test]
    fn threads_beyond_items_are_capped() {
        let out = par_map_indexed(vec![1u32, 2, 3], 64, |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn counters_track_jobs_tasks_and_utilization() {
        // Counters are global and other tests run concurrently, so only
        // monotone delta assertions are safe.
        let before = stats();
        let n = 256usize;
        // Per-item work long enough that helpers reliably start and
        // claim chunks before the caller drains the cursor alone.
        let out = par_map_indexed((0..n as u64).collect::<Vec<u64>>(), 8, |_, x| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            x + 1
        });
        assert_eq!(out.len(), n);
        let seq = par_map_indexed(vec![1u64], 8, |_, x| x); // n<=1 fallback
        assert_eq!(seq, vec![1]);
        let after = stats();
        assert!(after.jobs > before.jobs);
        assert!(after.sequential_jobs > before.sequential_jobs);
        assert!(after.tasks > before.tasks + n as u64);
        assert!(after.chunk_claims > before.chunk_claims);
        let busy = |s: &ExecStats| s.caller_busy_ns + s.worker_busy_ns.iter().sum::<u64>();
        assert!(busy(&after) > busy(&before));
        assert!(after.workers_spawned >= 7);
        assert_eq!(after.worker_busy_ns.len(), after.workers_spawned);
    }
}
