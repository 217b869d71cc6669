//! End-to-end and per-layer benchmark of `pipeline::run`,
//! `SeqEmbedder::embed_parallel` and the tree applications.
//!
//! One run times one workload for a given number of seconds and checks
//! every operation's output. With tracing off it reports the
//! end-to-end metrics; with tracing on it reports the per-layer
//! breakdown instead (see `layers`). The last line of standard output is
//! the result object; the lines before it name every metric with its
//! unit and record the host and the resolved shape of the run.

pub mod cli;
pub mod layers;
pub mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use workload::{Counters, Kind, Output, Prepared, Workload, THREADS};

/// Set-ups per run (input generation plus one untimed operation), each
/// in a process of its own so that every one pays for pool start-up and
/// first-touch allocation; the reported set-up time is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest timed operations a run makes, however long they take.
const MIN_SAMPLES: usize = 3;

/// Every end-to-end metric with its unit, in report order: throughput,
/// median operation time, set-up time, peak resident memory and the
/// mean distortion over the pair sample.
pub const END_TO_END: [(&str, &str); 5] = [
    ("points_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("distortion_mean", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Operations attempted and failed, with the first failure's reason.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts as a failure. Never retries.
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: operation failed: {e}");
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }
}

/// The outcome of one run.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Host, thread count, seed and resolved shape, as `key=value` JSON
    /// fragments.
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line result object.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The record line: everything needed to reproduce and compare the run.
    pub fn record_json(&self) -> String {
        let body: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"record\": {{{}}}}}", body.join(", "))
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets this process's peak resident set mark, so that the next
/// [`peak_rss_mb`] covers only what runs in between. Without the reset
/// (an older kernel) the mark covers the whole process so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds since `t0_ns` on the tracer's monotonic clock, the one clock
/// every timing in the workspace reads.
pub fn secs_since(t0_ns: u64) -> f64 {
    treeemb_obs::now_ns().saturating_sub(t0_ns) as f64 * 1e-9
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one operation and checks it: its output (see
/// [`Prepared::check`]) and that its work counters equal `expected`,
/// those of the set-up operation on the same input. Returns its wall
/// time and its mean distortion.
fn timed_op(
    w: &Workload,
    prep: &Prepared,
    threads: usize,
    expected: Counters,
    tally: &mut Tally,
) -> Option<(f64, f64)> {
    let t0 = treeemb_obs::now_ns();
    let out = w.run_op(&prep.ps, threads);
    let secs = secs_since(t0);
    tally.record(out.map_err(|e| e.to_string()).and_then(|out| {
        let dist = prep.check(&out)?;
        let counted = out.counters();
        if counted != expected {
            return Err(format!(
                "work counters moved between identical operations: {expected:?} vs {counted:?}"
            ));
        }
        Ok((secs, dist))
    }))
}

/// The set-up of a fresh process: generate the input and run the first,
/// untimed operation, which pays for pool start-up and first-touch
/// allocation. Returns the prepared input, that operation's output, the
/// set-up time and the output check's verdict.
pub fn cold_setup(
    w: &Workload,
    seed: u64,
) -> Result<(Prepared, Output, f64, Result<f64, String>), String> {
    let t0 = treeemb_obs::now_ns();
    let ps = w.generate(seed);
    let out = w.run_op(&ps, THREADS);
    let secs = secs_since(t0);
    let mut prep = Prepared::new(ps, seed);
    let out = out.map_err(|e| format!("the set-up operation failed: {e}"))?;
    if w.kind == Kind::MpcLowdim {
        prep.set_reference(out.params())
            .map_err(|e| format!("the reference SeqEmbedder run failed: {e}"))?;
    }
    let checked = prep.check(&out);
    Ok((prep, out, secs, checked))
}

/// The line a `--setup-only 1` process prints: its set-up time and the
/// work counters of its checked operation.
pub fn setup_line(secs: f64, c: Counters) -> String {
    format!(
        "setup {secs:?} {} {} {} {}",
        c.sent_words, c.peak_machine_words, c.rounds, c.tree_nodes
    )
}

fn parse_setup_line(line: &str) -> Option<(f64, Counters)> {
    let mut f = line.strip_prefix("setup ")?.split(' ');
    let secs = f.next()?.parse().ok()?;
    let mut next = || f.next()?.parse::<usize>().ok();
    let c = Counters {
        sent_words: next()?,
        peak_machine_words: next()?,
        rounds: next()?,
        tree_nodes: next()?,
    };
    Some((secs, c))
}

/// One set-up in a child process: `exe` run with `--setup-only 1`.
/// Returns its set-up time and work counters; a failed check or a
/// failed operation in the child is an error.
fn child_setup(exe: &Path, w: &Workload, seed: u64) -> Result<(f64, Counters), String> {
    let seed = seed.to_string();
    let args = ["--workload", w.name, "--seed", &seed, "--seconds", "1"];
    let out = Command::new(exe)
        .args(args)
        .args(["--setup-only", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().and_then(parse_setup_line) {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!("the set-up process failed ({})", out.status)),
    }
}

/// Set-up, [`SETUP_REPS`] times: first in child processes started from
/// `setup_exe` (none if it is `None`), then in this process, whose input
/// and first output the run goes on with. Every set-up operation is
/// checked and counted. Returns the prepared input, this process's first
/// output and the median set-up time.
fn setup(
    w: &Workload,
    seed: u64,
    setup_exe: Option<&Path>,
    tally: &mut Tally,
) -> Result<(Prepared, Output, f64), String> {
    let children: Vec<Result<(f64, Counters), String>> = setup_exe
        .map(|exe| (1..SETUP_REPS).map(|_| child_setup(exe, w, seed)).collect())
        .unwrap_or_default();
    let (prep, out, secs, checked) = cold_setup(w, seed)?;
    tally.record(checked);
    let mut times = vec![secs];
    let expected = out.counters();
    for child in children {
        let child = child.and_then(|(secs, counted)| {
            if counted != expected {
                return Err(format!(
                    "work counters differ between set-up processes: {expected:?} vs {counted:?}"
                ));
            }
            Ok(secs)
        });
        times.extend(tally.record(child));
    }
    Ok((prep, out, median(&times)))
}

fn shape_record(w: &Workload, seed: u64, out: &Output) -> Vec<(&'static str, String)> {
    let p = out.params();
    let (machines, capacity) = match out {
        Output::Mpc(r) => (r.machines, r.capacity_words),
        Output::Seq(_) => (1, 0),
    };
    let c = out.counters();
    vec![
        ("workload", format!("\"{}\"", w.name)),
        ("seed", seed.to_string()),
        ("nproc", nproc().to_string()),
        ("threads", THREADS.to_string()),
        ("n", w.n.to_string()),
        ("d", w.d.to_string()),
        ("k", p.orig_dim.to_string()),
        ("r", p.r.to_string()),
        ("levels", p.num_levels().to_string()),
        ("U", p.grids_per_bucket.to_string()),
        ("machines", machines.to_string()),
        ("capacity_words", capacity.to_string()),
        ("sent_words", c.sent_words.to_string()),
        ("peak_machine_words", c.peak_machine_words.to_string()),
        ("rounds", c.rounds.to_string()),
        ("tree_nodes", c.tree_nodes.to_string()),
    ]
}

/// Runs workload `w` as `args` asks: set-up, then either the timed
/// end-to-end loop or the traced per-layer run. `setup_exe` is this
/// benchmark's executable, which the extra set-ups start as child
/// processes; with `None` the run sets up once, in this process.
pub fn run(w: &Workload, args: &cli::Args, setup_exe: Option<&Path>) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (prep, first, setup_s) = setup(w, args.seed, setup_exe, &mut tally)?;
    let mut record = shape_record(w, args.seed, &first);
    let metrics = if args.trace {
        layers::traced(
            w,
            args.seed,
            &prep,
            &first,
            args.seconds,
            &mut tally,
            &mut record,
        )?
    } else {
        let expected = first.counters();
        let (mut times, mut rss, mut distortions) = (Vec::new(), Vec::new(), Vec::new());
        let t_start = treeemb_obs::now_ns();
        while secs_since(t_start) < args.seconds || (times.len() < MIN_SAMPLES && tally.failed == 0)
        {
            reset_peak_rss();
            if let Some((secs, dist)) = timed_op(w, &prep, THREADS, expected, &mut tally) {
                times.push(secs);
                rss.push(peak_rss_mb());
                distortions.push(dist);
            }
        }
        let op_s = median(&times);
        let (lo, hi) = times
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        record.push(("samples", times.len().to_string()));
        record.push(("op_s_min", format!("{lo:?}")));
        record.push(("op_s_max", format!("{hi:?}")));
        let values = [
            w.n as f64 / op_s,
            op_s,
            setup_s,
            median(&rss),
            median(&distortions),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, unit, value))
            .collect()
    };
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    record.push(("error_rate", format!("{error_rate:?}")));
    Ok(Outcome {
        tally,
        metrics,
        record,
    })
}
