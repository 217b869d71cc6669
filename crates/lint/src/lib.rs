//! `treeemb-lint` — repo-invariant linter for the treeemb workspace.
//!
//! The workspace's correctness story rests on invariants that `rustc`
//! and `clippy` cannot see: MPC rounds must be deterministic functions
//! of their inputs and seeds, all threading is owned by `mpc::exec`,
//! configs are constructed through builders, and no configuration is
//! read from `TREEEMB_*` environment variables. This crate
//! enforces those invariants as **deny-by-default** diagnostics over
//! the source tree (`cargo run -p treeemb-lint` — CI gates on its exit
//! code).
//!
//! # Rules
//!
//! | id | scope | denies |
//! |----|-------|--------|
//! | `wall-clock` | deterministic core, non-test | `Instant::now`, `SystemTime::now`, `SystemTime::UNIX_EPOCH` |
//! | `ambient-rand` | deterministic core, non-test | `thread_rng`, `from_entropy`, `OsRng`, `getrandom`, `rand::random` |
//! | `hash-iter` | deterministic core, non-test | iterating a `HashMap`/`HashSet` (`for .. in map`, `.iter()`, `.keys()`, `.values()`, `.drain()`, …) |
//! | `thread-spawn` | everywhere, non-test | `thread::spawn` / `thread::Builder` / `thread::scope` (the executor in `mpc::exec` carries the one audited allow) |
//! | `deprecated-shim` | everywhere | any identifier or `a::b` path in [`RETIRED`], each with the reason its diagnostic gives (deleted APIs must not return) |
//! | `config-literal` | everywhere | `MpcConfig { .. }` / `PipelineConfig { .. }` struct literals outside their defining modules — construct through `MpcConfig::explicit` / `fully_scalable` and `PipelineConfig::builder()` |
//! | `env-read` | everywhere | `env::var("TREEEMB_…")` without a `lint:allow` (the tracer's `TREEEMB_TRACE` and the `TREEEMB_PROPTEST_CASES` test knob carry one) |
//!
//! The *deterministic core* is every workspace crate except the audited
//! observability/benchmark/tooling crates (`obs`, `bench`, `lint`),
//! which may read clocks by design. Test code (`tests/`, `benches/`,
//! `examples/`, `#[cfg(test)]` modules) is exempt from the determinism
//! rules but not from the architectural ones.
//!
//! # Escape hatch
//!
//! A violation that is audited and safe is annotated in place:
//!
//! ```text
//! // lint:allow(wall-clock): metering only; round outputs never see this value.
//! let start = Instant::now();
//! ```
//!
//! The directive covers its own line (when trailing) or the next code
//! line (when leading), must name a known rule, must give a non-empty
//! reason, and must actually suppress something — unknown rules and
//! unused allows are themselves deny diagnostics, so stale annotations
//! rot loudly, not silently.

#![forbid(unsafe_code)]

mod lexer;
mod rules;

pub use rules::{lint_source, RETIRED, RULES};

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One deny diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Rule id (`wall-clock`, …, or the meta rules `unknown-rule` /
    /// `unused-allow`).
    pub rule: &'static str,
    /// Human-readable explanation with the expected remedy.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: deny({}): {}",
            self.path, self.line, self.col, self.rule, self.msg
        )
    }
}

/// Directories never scanned, at any depth: build output, VCS metadata,
/// vendored shims for external crates (not this repo's code), the
/// excluded fuzz package, experiment outputs, and the linter's own
/// deliberately-violating test fixtures.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "shims",
    "fuzz",
    "results",
    "results_full",
    "fixtures",
];

/// Lints every `.rs` file under `root` (the workspace root), returning
/// all diagnostics sorted by path and position.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        out.extend(lint_source(&rel_str, &src));
    }
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            // The linter's own sources necessarily spell out directive
            // and rule patterns (docs, fixtures, pattern tables); it
            // does not lint itself.
            if path
                .strip_prefix(root)
                .is_ok_and(|r| r == Path::new("crates/lint"))
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}
