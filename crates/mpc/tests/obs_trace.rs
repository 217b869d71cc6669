//! Integration tests for the tracing layer as wired into the MPC
//! runtime: spans recorded from executor workers, round spans with word
//! counters, and executor counters flowing into the trace.
//!
//! Runs as its own process, so arming the global collector here cannot
//! leak into the library's unit tests. Within this binary the tests
//! serialize on a mutex (the collector is process-global).

use std::sync::Mutex;
use std::sync::MutexGuard;
use treeemb_mpc::primitives::{aggregate, join, shuffle};
use treeemb_mpc::{MpcConfig, Runtime};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn spans_from_eight_executor_workers_interleave_without_loss() {
    let _g = test_lock();
    treeemb_obs::capture_start();
    treeemb_obs::drain();
    let n = 512usize;
    // 9 participants = the caller plus 8 helper threads; every item opens
    // a span inside the worker closure.
    let out = treeemb_mpc::exec::par_map_indexed((0..n as u64).collect::<Vec<u64>>(), 9, |i, x| {
        let _sp = treeemb_obs::span!("worker.item", "i" = i);
        std::thread::sleep(std::time::Duration::from_micros(50));
        x + 1
    });
    treeemb_obs::capture_stop();
    assert_eq!(out.len(), n);
    let events = treeemb_obs::drain();
    let items: Vec<_> = events.iter().filter(|e| e.name == "worker.item").collect();
    assert_eq!(items.len(), n, "every per-item span must be recorded");
    // All n distinct item indices survive, regardless of interleaving.
    let mut seen: Vec<u64> = items
        .iter()
        .map(|e| e.args.iter().find(|(k, _)| *k == "i").expect("arg i").1)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), n);
    // The items really ran on multiple threads.
    let tids: std::collections::HashSet<u64> = items.iter().map(|e| e.tid).collect();
    assert!(tids.len() >= 2, "expected multi-threaded execution");
    // The enclosing executor job span exists and contains the items.
    let job = events
        .iter()
        .find(|e| e.name == "exec.map")
        .expect("exec.map span");
    for item in &items {
        assert!(item.start_ns >= job.start_ns);
        assert!(item.start_ns + item.dur_ns <= job.start_ns + job.dur_ns);
    }
}

#[test]
fn round_spans_carry_word_counters_and_nest_under_primitives() {
    let _g = test_lock();
    treeemb_obs::capture_start();
    treeemb_obs::drain();
    let mut rt = Runtime::builder()
        .config(MpcConfig::explicit(1 << 12, 256, 8).with_threads(4))
        .build();
    let dist = rt.distribute((0..64u64).collect()).unwrap();
    let groups =
        shuffle::group_fold(&mut rt, dist.clone(), |x| x % 5, |k, g| (k, g.len() as u64)).unwrap();
    let joined =
        join::join_by_key(&mut rt, dist, groups, |x| x % 5, |g| g.0, |x, g| x + g.1).unwrap();
    let total = aggregate::reduce(
        &mut rt,
        joined,
        |s| Some(s.iter().sum::<u64>()),
        |a, b| a + b,
    )
    .unwrap();
    let class_size = |x: u64| (0..64u64).filter(|y| y % 5 == x % 5).count() as u64;
    assert_eq!(total, Some((0..64u64).map(|x| x + class_size(x)).sum()));
    treeemb_obs::capture_stop();
    let events = treeemb_obs::drain();

    let round_spans: Vec<_> = events
        .iter()
        .filter(|e| e.name.starts_with("mpc.round:"))
        .collect();
    assert!(!round_spans.is_empty(), "rounds must produce spans");
    for r in &round_spans {
        // Every round span carries the word counters as arguments.
        for key in ["round", "sent_words", "max_resident_words"] {
            assert!(
                r.args.iter().any(|(k, _)| *k == key),
                "round span {} missing arg {key}",
                r.name
            );
        }
    }
    // Each primitive's rounds nest strictly inside its span.
    for (primitive, label) in [
        ("mpc.group_fold", "mpc.round:shuffle"),
        ("mpc.join", "mpc.round:join:"),
        ("mpc.reduce", "mpc.round:reduce:"),
    ] {
        let span = events
            .iter()
            .find(|e| e.name == primitive)
            .unwrap_or_else(|| panic!("{primitive} span"));
        let mut nested = 0;
        for r in round_spans.iter().filter(|r| r.name.starts_with(label)) {
            assert!(r.depth > span.depth, "{} under {primitive}", r.name);
            assert!(r.start_ns >= span.start_ns);
            assert!(r.start_ns + r.dur_ns <= span.start_ns + span.dur_ns);
            nested += 1;
        }
        assert!(nested > 0, "{primitive} ran no {label} round");
    }
    // Round spans and metrics agree on attribution: the span-side word
    // counters sum to the meter's total.
    let span_sent: u64 = round_spans
        .iter()
        .filter_map(|r| r.args.iter().find(|(k, _)| *k == "sent_words"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(span_sent, rt.metrics().total_sent_words() as u64);
    // Executor counters were published into the trace.
    assert!(events.iter().any(|e| e.name == "exec.tasks"));
}

#[test]
fn metrics_round_timestamps_are_monotone() {
    let _g = test_lock();
    let mut rt = Runtime::builder()
        .config(MpcConfig::explicit(1 << 12, 256, 4).with_threads(2))
        .build();
    let mut dist = rt.distribute((0..32u64).collect()).unwrap();
    for step in 0..3 {
        dist = rt
            .round(&format!("step{step}"), dist, |_, shard, em| {
                for v in shard {
                    em.send((v % 4) as usize, v);
                }
                Vec::new()
            })
            .unwrap();
    }
    let stats = rt.metrics().round_stats();
    assert_eq!(stats.len(), 3);
    for w in stats.windows(2) {
        assert!(w[0].t_end_ns <= w[1].t_start_ns, "rounds overlap in time");
    }
    for s in stats {
        assert!(s.t_end_ns >= s.t_start_ns);
    }
}
