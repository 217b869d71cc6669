//! Experiment harness: regenerates every table/figure of the paper's
//! claims (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! recorded results).
//!
//! Each experiment is a function `eN(scale) -> Vec<Table>`; the
//! `experiments` bench target (and the `exp` binary) run them and print
//! markdown tables. `Scale::quick()` keeps everything under a few
//! seconds per experiment for CI; `Scale::full()` uses larger sweeps.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiments;
pub mod table;

pub use table::Table;

/// Experiment sizing knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Smaller sweeps and fewer Monte-Carlo trials.
    pub quick: bool,
}

impl Scale {
    /// CI-friendly sizes.
    pub fn quick() -> Self {
        Self { quick: true }
    }

    /// Paper-shape sizes (minutes, release build recommended).
    pub fn full() -> Self {
        Self { quick: false }
    }

    /// Picks `q` under quick scale, else `f`.
    pub fn pick<T>(&self, q: T, f: T) -> T {
        if self.quick {
            q
        } else {
            f
        }
    }
}

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
    "e15", "e16", "e17", "e18",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, scale: Scale) -> Vec<Table> {
    match id {
        "f1" => experiments::f1::run(scale),
        "e1" => experiments::e1::run(scale),
        "e2" => experiments::e2::run(scale),
        "e3" => experiments::e3::run(scale),
        "e4" => experiments::e4::run(scale),
        "e5" => experiments::e5::run(scale),
        "e6" => experiments::e6::run(scale),
        "e7" => experiments::e7::run(scale),
        "e8" => experiments::e8::run(scale),
        "e9" => experiments::e9::run(scale),
        "e10" => experiments::e10::run(scale),
        "e11" => experiments::e11::run(scale),
        "e12" => experiments::e12::run(scale),
        "e13" => experiments::e13::run(scale),
        "e14" => experiments::e14::run(scale),
        "e15" => experiments::e15::run(scale),
        "e16" => experiments::e16::run(scale),
        "e17" => experiments::e17::run(scale),
        "e18" => experiments::e18::run(scale),
        other => panic!("unknown experiment id {other:?} (known: {ALL_EXPERIMENTS:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_resolve() {
        // Smoke: every id is wired up (running them is the bench's job;
        // here just check the dispatch doesn't panic on the cheapest).
        assert!(ALL_EXPERIMENTS.contains(&"e1"));
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::quick().pick(1, 2), 1);
        assert_eq!(Scale::full().pick(1, 2), 2);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("nope", Scale::quick());
    }
}
