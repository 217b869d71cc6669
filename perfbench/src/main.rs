//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `name = value unit` line per metric, a record line with
//! the host, seed and resolved shape, and, last, the result object.
//! Exits non-zero, printing no result, on bad arguments or when a run
//! cannot start. With `--setup-only 1` it sets up once and prints only
//! the set-up line (see `setup_line`).

use treeemb_perfbench::{cli, cold_setup, run, setup_line, workload::Workload};

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}\n{}",
            args.workload,
            cli::USAGE
        );
        std::process::exit(2);
    };
    if args.setup_only {
        match cold_setup(&w, args.seed)
            .and_then(|(_, out, secs, checked)| checked.map(|_| setup_line(secs, out.counters())))
        {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot locate this executable: {e}");
        std::process::exit(1);
    });
    match run(&w, &args, Some(&exe)) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.record_json());
            println!("{}", outcome.result_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
