//! Self-test of the benchmark on reduced sizes:
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use treeemb_perfbench::cli::Args;
use treeemb_perfbench::layers::PER_LAYER;
use treeemb_perfbench::workload::Workload;
use treeemb_perfbench::{run, Outcome, END_TO_END, SETUP_REPS};

const SEED: u64 = 3;

/// Runs share the tracer and the executor counters, which are process
/// globals; each test holds this lock.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Counters DESIGN.md promises are independent of host and threads.
const DETERMINISTIC: [&str; 5] = [
    "mpc.sent_words",
    "mpc.peak_machine_words",
    "mpc.rounds",
    "partition.grid_probes",
    "hst.nodes",
];

fn args(w: &Workload, trace: bool) -> Args {
    Args {
        workload: w.name.to_string(),
        seed: SEED,
        seconds: 0.01,
        trace,
        setup_only: false,
    }
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

#[test]
fn deterministic_counters_repeat_across_runs_and_thread_counts() {
    let _g = serial();
    for w in Workload::all().map(|w| w.reduced()) {
        let ps = w.generate(SEED);
        let one = w.run_op(&ps, 1).expect("1-thread op").counters();
        let two = w.run_op(&ps, 2).expect("2-thread op").counters();
        assert_eq!(one, two, "{}: counters depend on the thread count", w.name);

        let a = run(&w, &args(&w, true), None).expect("first traced run");
        let b = run(&w, &args(&w, true), None).expect("second traced run");
        for o in [&a, &b] {
            assert!(o.correct(), "{}: {:?}", w.name, o.tally.first_failure);
        }
        for name in DETERMINISTIC {
            assert_eq!(value(&a, name), value(&b, name), "{}: {name} moved", w.name);
        }
        let u = value(&a, "exec.utilization");
        assert!((0.0..=1.0).contains(&u), "{}: utilization {u}", w.name);
        assert_eq!(value(&a, "hst.nodes"), two.tree_nodes as f64);
        assert_eq!(value(&a, "mpc.sent_words"), two.sent_words as f64);
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_and_none_is_zero() {
    let _g = serial();
    for w in Workload::all().map(|w| w.reduced()) {
        let o = run(&w, &args(&w, false), None).expect("untraced run");
        assert!(o.correct(), "{}: {:?}", w.name, o.tally.first_failure);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, want);
        for m in &o.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name, m.name, m.value);
        }
        let last = o.result_json();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
    }
}

/// The full command at the smallest budget: every set-up runs in a
/// process of its own, is checked and is counted.
#[test]
fn command_sets_up_in_separate_processes_and_counts_every_op() {
    let _g = serial();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_treeemb-perfbench"))
        .args(["--workload", "seq-clustered", "--seed", "3"])
        .args(["--seconds", "0.01", "--trace", "0"])
        .output()
        .expect("start the benchmark");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    // At least three timed operations follow the set-ups.
    let attempted: usize = last
        .split("\"attempted\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("attempted");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(attempted >= SETUP_REPS + 3, "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entry = |name: &str, unit: &str| format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(text.contains(&entry(name, unit)), "{name} ({unit}) missing");
    }
    for w in Workload::all() {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name)),
            "{}",
            w.name
        );
    }
    let declared = text.matches("\"name\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + Workload::all().len()
    );
}
