//! Hot-path kernel snapshot: measures the optimized kernels against
//! their straightforward reference implementations in-process and writes
//! machine-readable `BENCH_1.json`.
//!
//! ```text
//! cargo run --release -p treeemb-bench --bin snapshot            # writes BENCH_1.json
//! cargo run --release -p treeemb-bench --bin snapshot -- --out x.json --quick
//! cargo run --release -p treeemb-bench --bin snapshot -- --trace-out trace.json
//! ```
//!
//! A flag missing its value, or an unknown argument, exits with status 2
//! without writing anything.
//!
//! The pairs measured:
//!
//! * `wht` — plain stage-by-stage butterflies vs the cache-blocked
//!   `wht_inplace` on a large transform;
//! * `executor_round` — a `thread::scope` spawn per round vs the
//!   persistent worker pool behind `par_map_indexed`.
//!
//! Criterion benches also emit machine-readable lines when
//! `CRITERION_OUTPUT_JSON` points at a file; this binary is the small,
//! checked-in snapshot CI smoke-runs.

use std::fmt::Write as _;
use std::time::Instant;
use treeemb_linalg::wht::{wht_inplace, wht_stages_inplace};

struct Entry {
    id: String,
    median_ns: u128,
    samples: usize,
}

/// Median wall time of `samples` runs of `f` (each run may loop
/// internally to stay measurable).
fn measure(id: &str, samples: usize, mut f: impl FnMut()) -> Entry {
    // One warmup run populates caches and the worker pool.
    f();
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    Entry {
        id: id.to_string(),
        median_ns: times[times.len() / 2],
        samples,
    }
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    out: String,
    trace_out: Option<String>,
}

/// Parses the command line strictly: `--out` and `--trace-out` each take
/// a value that is not itself a flag, and any other argument is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        out: "BENCH_1.json".to_string(),
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--out" | "--trace-out" => {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value"))?
                    .clone();
                if arg == "--out" {
                    parsed.out = value;
                } else {
                    parsed.trace_out = Some(value);
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        quick,
        out,
        trace_out,
    } = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("snapshot: {e}\nusage: snapshot [--quick] [--out PATH] [--trace-out PATH]");
        std::process::exit(2);
    });
    // `--trace-out PATH` arms span collection (same effect as
    // TREEEMB_TRACE=PATH in the environment).
    if let Some(trace) = &trace_out {
        treeemb_obs::set_trace_path(trace);
    }
    let samples = if quick { 5 } else { 15 };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut entries: Vec<Entry> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut pair = |name: &str, base: Entry, opt: Entry, entries: &mut Vec<Entry>| {
        let s = base.median_ns as f64 / opt.median_ns.max(1) as f64;
        eprintln!(
            "{name}: reference {} ns, optimized {} ns, speedup {s:.2}x",
            base.median_ns, opt.median_ns
        );
        entries.push(base);
        entries.push(opt);
        speedups.push((name.to_string(), s));
    };

    // WHT: plain staged butterflies vs the cache-blocked transform.
    {
        let n = 1usize << 18;
        let input: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let reps = if quick { 1 } else { 3 };
        let mut buf = input.clone();
        let base = measure("wht/staged_plain", samples, || {
            for _ in 0..reps {
                buf.copy_from_slice(&input);
                wht_stages_inplace(&mut buf, 0, n.trailing_zeros());
                std::hint::black_box(buf[0]);
            }
        });
        let mut buf2 = input.clone();
        let opt = measure("wht/cache_blocked", samples, || {
            for _ in 0..reps {
                buf2.copy_from_slice(&input);
                wht_inplace(&mut buf2);
                std::hint::black_box(buf2[0]);
            }
        });
        assert_eq!(buf, buf2, "blocked WHT must be bit-identical");
        pair("wht", base, opt, &mut entries);
    }

    // Executor rounds: spawn-per-round scope vs the persistent pool.
    {
        let rounds = if quick { 50 } else { 200 };
        let k = threads.max(2);
        let base = measure("executor_round/spawn_per_round", samples, || {
            let mut acc = 0u64;
            for r in 0..rounds {
                let mut outs = vec![0u64; k];
                std::thread::scope(|s| {
                    for (i, slot) in outs.iter_mut().enumerate() {
                        s.spawn(move || *slot = (i as u64).wrapping_mul(r + 1));
                    }
                });
                acc ^= outs.iter().sum::<u64>();
            }
            std::hint::black_box(acc);
        });
        let opt = measure("executor_round/worker_pool", samples, || {
            let mut acc = 0u64;
            for r in 0..rounds {
                let outs = treeemb_mpc::exec::par_map_indexed(
                    (0..k as u64).collect::<Vec<u64>>(),
                    k,
                    move |_, i| i.wrapping_mul(r + 1),
                );
                acc ^= outs.iter().sum::<u64>();
            }
            std::hint::black_box(acc);
        });
        pair("executor_round", base, opt, &mut entries);
    }

    // Hand-rolled JSON (the workspace builds without serde).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"BENCH_1\",\n");
    let _ = writeln!(
        json,
        "  \"description\": \"hot-path kernel snapshot: reference vs optimized, median of {samples} samples\","
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"median_ns\": {}, \"samples\": {}}}",
            e.id, e.median_ns, e.samples
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"speedups\": {\n");
    for (i, (name, s)) in speedups.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {s:.3}");
        json.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out, &json).expect("write snapshot json");
    eprintln!("wrote {out}");

    let st = treeemb_mpc::exec::stats();
    eprintln!(
        "executor: {} jobs ({} sequential), {} tasks, {} chunk claims, \
         peak {} concurrent workers, utilization {:.1}%",
        st.jobs,
        st.sequential_jobs,
        st.tasks,
        st.chunk_claims,
        st.max_concurrent_workers,
        st.utilization() * 100.0
    );
    if let Some(path) = treeemb_obs::flush_trace() {
        eprintln!("wrote trace {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_in_any_order() {
        let args = parse(&["--out", "x.json", "--quick", "--trace-out", "t.json"]).unwrap();
        assert_eq!(
            args,
            Args {
                quick: true,
                out: "x.json".to_string(),
                trace_out: Some("t.json".to_string()),
            }
        );
        assert_eq!(parse(&[]).unwrap().out, "BENCH_1.json");
    }

    #[test]
    fn flag_without_value_is_rejected() {
        for args in [
            &["--out"][..],
            &["--out", "--quick"],
            &["--trace-out"],
            &["--quick", "--trace-out", "--out", "x.json"],
        ] {
            assert!(parse(args).is_err(), "{args:?} accepted");
        }
    }

    #[test]
    fn unknown_argument_is_rejected() {
        assert!(parse(&["--quik"]).is_err());
        assert!(parse(&["x.json"]).is_err());
    }
}
