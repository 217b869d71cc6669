//! The rule engine: path-based scoping, token-pattern rules, and the
//! `lint:allow` escape hatch with unused-allow tracking.

use std::collections::HashSet;

use crate::lexer::{lex, LineComment, Tok, TokKind};
use crate::Diagnostic;

/// Static description of one rule, for `--list-rules` and docs.
pub struct RuleInfo {
    /// Rule id as used in diagnostics and `lint:allow(...)`.
    pub id: &'static str,
    /// One-line summary of what the rule denies and where.
    pub summary: &'static str,
}

/// Every enforced rule (the meta rules `unknown-rule` / `unused-allow`
/// guard the escape hatch itself and cannot be allowed away).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        summary: "Instant::now / SystemTime reads in the deterministic core (non-test code)",
    },
    RuleInfo {
        id: "ambient-rand",
        summary: "ambient randomness (thread_rng, from_entropy, OsRng, rand::random) in the deterministic core",
    },
    RuleInfo {
        id: "hash-iter",
        summary: "iteration over HashMap/HashSet in the deterministic core (order is unspecified; sort or use BTreeMap)",
    },
    RuleInfo {
        id: "thread-spawn",
        summary: "thread::spawn / thread::Builder / thread::scope outside the mpc::exec executor",
    },
    RuleInfo {
        id: "deprecated-shim",
        summary: "resurrecting a retired API: any name or path in the RETIRED table (crates/lint/src/rules.rs)",
    },
    RuleInfo {
        id: "config-literal",
        summary: "MpcConfig / PipelineConfig struct literals outside their defining modules (use the builders)",
    },
    RuleInfo {
        id: "env-read",
        summary: "env::var(\"TREEEMB_*\") without an audited lint:allow (no configuration is read from the environment)",
    },
];

/// Every retired API the `deprecated-shim` rule denies, with the reason
/// its diagnostic gives. A pattern is one identifier or an `a::b` path of
/// identifiers; it matches in code (not in strings or comments),
/// including test code.
pub const RETIRED: &[(&[&str], &str)] = &[
    (
        &["Runtime::new"],
        "construct through Runtime::builder() (optionally .config(cfg))",
    ),
    (
        &["set_fault_plan", "clear_fault_plan"],
        "attach fault plans at construction via Runtime::builder().fault_plan(plan)",
    ),
    (
        &[
            "assign_packed",
            "PackedLevelKey",
            "PackedHasher",
            "embed_exact_keys",
        ],
        "every embedder groups points by the node ids of \
         treeemb_partition::for_each_node_id",
    ),
    (
        &["distortion_report_parallel", "check_domination_parallel"],
        "the parallel pair audit measured 1.0x; call the serial distortion_report / \
         check_domination",
    ),
    (
        &["fault::json"],
        "the workspace has one JSON codec, treeemb_obs::json",
    ),
    (
        &[
            "CheckpointPolicy",
            "from_env",
            "EnvOverrides",
            "backoff_ns",
            "straggle_ns",
            "lenient",
        ],
        "a knob with no observable effect in the deterministic simulation (rounds \
         checkpoint iff the fault plan can crash; retries are counted, not slept; every \
         capacity overrun is an error; configuration comes from the builders, not the \
         environment)",
    ),
    (
        &[
            "par_for_each_mut",
            "PoolCore",
            "JobCore",
            "sort_dedup_by_key",
        ],
        "the executor is par_map_indexed over scoped threads, and distributed dedup is \
         primitives::shuffle::dedup_by_key",
    ),
    (
        &[
            "primitives::sort",
            "sort_two_level",
            "sort_single_level",
            "DistanceOracle",
            "LabelStats",
            "by_label",
            "squeeze_for",
            "squeeze_min",
            "distance_matrix",
            "nodes_at_depth",
            "to_ascii",
            "total_space_words",
        ],
        "the MPC and tree substrate carries only what an algorithm, experiment, CLI path \
         or the benchmark calls (squeezes are cluster-wide; per-machine capacity is \
         MpcConfig::machine_capacities)",
    ),
    (
        &[
            "gaussian_jl",
            "dense_work",
            "apply_parallel",
            "estimate_expected_distortion_threads",
            "build_grids",
            "ball_part",
            "grid_partition",
            "empirical_partition_diameter",
            "hypercube_corners",
            "exponential_scales",
            "point_mut",
            "affine",
            "derived_rng",
            "to_dense",
            "measured_min_sep",
            "tree_mst_cost_in_tree_metric",
        ],
        "only its own unit test called it (the dense JL baseline, the paper-name aliases \
         of GridSequence::build/assign, one-thread parallel variants, uncalled generators \
         and helpers); the library carries only what an experiment, CLI path, example or \
         the benchmark calls",
    ),
    (
        &["FaultKind", "FaultSpec::Duplicate", "msg_fault"],
        "one type describes a fault: a FaultSpec is the schedule and, as \
         FaultEvent::Injected, the log (FaultSpec::name gives its kind); the exchange \
         retried a duplicated message exactly like a dropped one, so schedule a \
         FaultSpec::Drop and ask FaultPlan::dropped",
    ),
    (
        &["covering_cell"],
        "the covering ball's lattice coordinates come from the scan that found the grid: \
         GridSequence::assign",
    ),
    (
        &["GridParams", "GridLikeLevel"],
        "hybrid partitioning and the grid baseline share one level schedule; build the \
         grid baseline with GridEmbedder::for_dataset or GridEmbedder::for_dataset_with_sep",
    ),
    (
        &["mix_seed"],
        "one SplitMix64 mixer serves every crate: treeemb_linalg::random::mix2",
    ),
    (
        &["dense::target_dimension"],
        "the JL target dimension sits next to its caller FjltParams::for_dataset: \
         treeemb_fjlt::fjlt::target_dimension",
    ),
];

fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// How the rules apply to one file, derived from its workspace-relative
/// path.
struct FileScope {
    /// Determinism rules (`wall-clock`, `ambient-rand`, `hash-iter`)
    /// apply. False for the audited crates: `obs` (its whole purpose is
    /// timestamping), `bench` (harness timing), and this linter.
    det_core: bool,
    /// Whole file is test/bench/example code (integration tests,
    /// benches, examples, build scripts).
    test_code: bool,
    /// Defining module of `MpcConfig` / `PipelineConfig`; struct
    /// literals are legitimate here (the builders themselves).
    config_def: bool,
}

fn classify(path: &str) -> FileScope {
    let audited = path.starts_with("crates/obs/")
        || path.starts_with("crates/bench/")
        || path.starts_with("crates/lint/");
    let parts: Vec<&str> = path.split('/').collect();
    let test_code = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
        || path.ends_with("build.rs");
    FileScope {
        det_core: !audited,
        test_code,
        config_def: path == "crates/mpc/src/config.rs" || path == "crates/core/src/pipeline.rs",
    }
}

/// A parsed `lint:allow(rule): reason` directive and the source lines
/// it covers.
struct Allow {
    rule: String,
    /// Line of the directive comment (for unused-allow reporting).
    at_line: usize,
    /// Code line this directive suppresses diagnostics on.
    covers_line: usize,
    used: bool,
    /// Empty reason — rejected outright.
    missing_reason: bool,
}

/// Extracts allow directives from line comments. A trailing comment
/// covers its own line; a leading comment covers the first code line
/// after its (possibly multi-line) comment block.
fn parse_allows(comments: &[LineComment], toks: &[Tok]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    // Lines on which any significant token appears, for finding "the
    // next code line" after a leading comment.
    let code_lines: Vec<usize> = {
        let mut v: Vec<usize> = toks.iter().map(|t| t.line).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for c in comments {
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        let covers_line = if c.trailing {
            c.line
        } else {
            code_lines
                .iter()
                .copied()
                .find(|&l| l > c.line)
                .unwrap_or(c.line)
        };
        if !known_rule(&rule) {
            diags.push(Diagnostic {
                path: String::new(), // filled by caller
                line: c.line,
                col: 1,
                rule: "unknown-rule",
                msg: format!(
                    "lint:allow names unknown rule `{rule}` (run `treeemb-lint --list-rules`)"
                ),
            });
            continue;
        }
        allows.push(Allow {
            rule,
            at_line: c.line,
            covers_line,
            used: false,
            missing_reason: reason.is_empty(),
        });
    }
    (allows, diags)
}

/// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` blocks, found
/// by token-pattern + brace matching.
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let t = |i: usize| -> &str { toks.get(i).map_or("", |t| t.text.as_str()) };
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = t(i) == "#"
            && t(i + 1) == "["
            && t(i + 2) == "cfg"
            && t(i + 3) == "("
            && t(i + 4) == "test"
            && t(i + 5) == ")"
            && t(i + 6) == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the `mod` within the next few tokens (other attributes or
        // visibility may intervene); bail out if it gates an item other
        // than a module.
        let mut j = i + 7;
        let mut found_mod = None;
        while j < toks.len() && j < i + 20 {
            if t(j) == "mod" {
                found_mod = Some(j);
                break;
            }
            if matches!(t(j), "fn" | "struct" | "impl" | "use" | "static" | "const") {
                break;
            }
            j += 1;
        }
        let Some(m) = found_mod else {
            i += 1;
            continue;
        };
        // Opening brace after `mod name`.
        let mut k = m + 1;
        while k < toks.len() && t(k) != "{" && t(k) != ";" {
            k += 1;
        }
        if k >= toks.len() || t(k) == ";" {
            i = m + 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut depth = 0usize;
        let mut end_line = toks[toks.len() - 1].line;
        let mut e = k;
        while e < toks.len() {
            match t(e) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[e].line;
                        break;
                    }
                }
                _ => {}
            }
            e += 1;
        }
        ranges.push((start_line, end_line));
        i = e.max(i + 1);
    }
    ranges
}

/// Identifiers bound to `HashMap`/`HashSet` in this file, from `name:
/// [&][mut] HashMap<…>` type ascriptions (lets, params, struct fields)
/// and `name = HashMap::new()/with_capacity()` initializations.
fn hash_bound_names(toks: &[Tok]) -> HashSet<String> {
    let mut names = HashSet::new();
    let t = |i: usize| -> &str { toks.get(i).map_or("", |t| t.text.as_str()) };
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if t(i + 1) == ":" {
            // Lookahead through `&`, `'a`, `mut` to a container name.
            let mut j = i + 2;
            let mut steps = 0;
            while j < toks.len() && steps < 4 {
                match t(j) {
                    "&" | "mut" => j += 1,
                    _ if toks[j].kind == TokKind::Lifetime => j += 1,
                    _ => break,
                }
                steps += 1;
            }
            if matches!(t(j), "HashMap" | "HashSet") {
                names.insert(toks[i].text.clone());
            }
        }
        if t(i + 1) == "=" && matches!(t(i + 2), "HashMap" | "HashSet") {
            names.insert(toks[i].text.clone());
        }
    }
    names
}

/// Iteration methods whose order is the map's unspecified bucket order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Tokens that put a following `Name { … }` in expression (not
/// declaration/pattern) position.
const EXPR_INTRODUCERS: &[&str] = &[
    "=", "(", ",", "[", ";", "{", "return", "else", "=>", "box", "in",
];

/// Lints one file's source. `path` is the workspace-relative path with
/// forward slashes; it selects which rules apply (see the crate docs).
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let scope = classify(path);
    let lexed = lex(src);
    let toks = &lexed.toks;
    let (mut allows, mut meta_diags) = parse_allows(&lexed.comments, toks);
    for d in &mut meta_diags {
        d.path = path.to_string();
    }
    let test_ranges = if scope.test_code {
        Vec::new()
    } else {
        cfg_test_ranges(toks)
    };
    let in_test =
        |line: usize| scope.test_code || test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let t = |i: usize| -> &str { toks.get(i).map_or("", |t| t.text.as_str()) };
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut push = |tok: &Tok, rule: &'static str, msg: String| {
        raw.push(Diagnostic {
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            msg,
        });
    };

    let hash_names = if scope.det_core && !scope.test_code {
        hash_bound_names(toks)
    } else {
        HashSet::new()
    };

    for i in 0..toks.len() {
        let tok = &toks[i];
        if tok.kind != TokKind::Ident {
            continue;
        }
        let det_here = scope.det_core && !in_test(tok.line);

        // wall-clock
        if det_here
            && matches!(tok.text.as_str(), "Instant" | "SystemTime")
            && t(i + 1) == "::"
            && matches!(t(i + 2), "now" | "UNIX_EPOCH")
        {
            push(
                tok,
                "wall-clock",
                format!(
                    "`{}::{}` in the deterministic core: round outputs must not depend on \
                     wall-clock time (route timing through treeemb-obs, or annotate \
                     `// lint:allow(wall-clock): <why outputs are unaffected>`)",
                    tok.text,
                    t(i + 2)
                ),
            );
        }

        // ambient-rand
        if det_here {
            if matches!(
                tok.text.as_str(),
                "thread_rng" | "from_entropy" | "OsRng" | "getrandom"
            ) {
                push(
                    tok,
                    "ambient-rand",
                    format!(
                        "`{}` draws ambient entropy: all randomness in the deterministic core \
                         must derive from the run seed (SeedableRng::seed_from_u64 or a mixed \
                         per-machine seed)",
                        tok.text
                    ),
                );
            }
            if tok.text == "rand" && t(i + 1) == "::" && t(i + 2) == "random" {
                push(
                    tok,
                    "ambient-rand",
                    "`rand::random` draws from the thread-local generator: seed explicitly \
                     from the run seed instead"
                        .to_string(),
                );
            }
        }

        // hash-iter: iteration methods on known HashMap/HashSet
        // bindings, and `for … in [&][mut] map {`.
        if det_here && hash_names.contains(&tok.text) {
            if t(i + 1) == "." && HASH_ITER_METHODS.contains(&t(i + 2)) {
                push(
                    tok,
                    "hash-iter",
                    format!(
                        "iterating `{}` (a HashMap/HashSet) — bucket order is unspecified and \
                         varies across platforms; collect-and-sort, use BTreeMap, or annotate \
                         `// lint:allow(hash-iter): <why order cannot affect outputs>`",
                        tok.text
                    ),
                );
            }
            let prev = if i > 0 { t(i - 1) } else { "" };
            let prev2 = if i > 1 { t(i - 2) } else { "" };
            let for_in =
                (prev == "in" || (prev == "&" && prev2 == "in") || (prev == "mut" && prev2 == "&"))
                    && t(i + 1) == "{";
            if for_in {
                push(
                    tok,
                    "hash-iter",
                    format!(
                        "`for … in {}` iterates a HashMap/HashSet in unspecified bucket order; \
                         collect-and-sort or use BTreeMap",
                        tok.text
                    ),
                );
            }
        }

        // thread-spawn (architectural: applies to audited crates too,
        // but not to test code).
        if !in_test(tok.line)
            && tok.text == "thread"
            && t(i + 1) == "::"
            && matches!(t(i + 2), "spawn" | "Builder" | "scope")
        {
            push(
                tok,
                "thread-spawn",
                format!(
                    "`thread::{}` outside the mpc::exec executor: all parallelism goes \
                     through treeemb_mpc::exec so determinism and panic handling stay \
                     centralized",
                    t(i + 2)
                ),
            );
        }

        // deprecated-shim (everywhere, including tests).
        for (patterns, reason) in RETIRED {
            for pat in *patterns {
                let hit = pat
                    .split("::")
                    .enumerate()
                    .all(|(k, seg)| t(i + 2 * k) == seg && (k == 0 || t(i + 2 * k - 1) == "::"));
                if hit {
                    push(
                        tok,
                        "deprecated-shim",
                        format!("`{pat}` was removed: {reason}"),
                    );
                }
            }
        }

        // config-literal (everywhere except the defining modules).
        if !scope.config_def
            && matches!(tok.text.as_str(), "MpcConfig" | "PipelineConfig")
            && t(i + 1) == "{"
        {
            let prev = if i > 0 { t(i - 1) } else { "" };
            if EXPR_INTRODUCERS.contains(&prev) {
                push(
                    tok,
                    "config-literal",
                    format!(
                        "`{} {{ … }}` literal bypasses the constructors' validation and \
                         defaults; construct through {}",
                        tok.text,
                        if tok.text == "MpcConfig" {
                            "MpcConfig::explicit / MpcConfig::fully_scalable"
                        } else {
                            "PipelineConfig::builder()"
                        }
                    ),
                );
            }
        }

        // env-read (everywhere; audited reads carry an allow).
        if tok.text == "env"
            && t(i + 1) == "::"
            && matches!(t(i + 2), "var" | "var_os")
            && t(i + 3) == "("
        {
            if let Some(lit) = toks.get(i + 4) {
                if lit.kind == TokKind::Str
                    && lit
                        .text
                        .trim_start_matches(['b', 'r', '#'])
                        .starts_with("\"TREEEMB_")
                {
                    push(
                        tok,
                        "env-read",
                        format!(
                            "{} read: configuration comes from the builders, never the \
                             environment; an audited read (tracing, a test-harness knob) \
                             needs a lint:allow(env-read) with its reason",
                            lit.text
                        ),
                    );
                }
            }
        }
    }

    // Apply allows; surviving diagnostics + meta diagnostics.
    let mut out = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.rule == d.rule && a.covers_line == d.line {
                a.used = true;
                suppressed = !a.missing_reason;
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for a in &allows {
        if a.missing_reason && a.used {
            out.push(Diagnostic {
                path: path.to_string(),
                line: a.at_line,
                col: 1,
                rule: "unused-allow",
                msg: format!(
                    "lint:allow({}) has no reason: write `// lint:allow({}): <why this is safe>`",
                    a.rule, a.rule
                ),
            });
        } else if !a.used {
            out.push(Diagnostic {
                path: path.to_string(),
                line: a.at_line,
                col: 1,
                rule: "unused-allow",
                msg: format!(
                    "lint:allow({}) suppresses nothing on line {}: remove the stale annotation",
                    a.rule, a.covers_line
                ),
            });
        }
    }
    out.extend(meta_diags);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DET: &str = "crates/partition/src/x.rs";
    const AUDITED: &str = "crates/obs/src/x.rs";

    fn rules_at(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn wall_clock_denied_in_core_allowed_in_obs() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_at(DET, src), vec!["wall-clock"]);
        assert!(rules_at(AUDITED, src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f() {\n    // lint:allow(wall-clock): metering only.\n    let t = Instant::now();\n}";
        assert!(rules_at(DET, src).is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_own_line() {
        let src = "fn f() { let t = Instant::now(); } // lint:allow(wall-clock): metering.";
        assert!(rules_at(DET, src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "fn f() {\n    // lint:allow(wall-clock)\n    let t = Instant::now();\n}";
        let rules = rules_at(DET, src);
        assert!(rules.contains(&"wall-clock"), "{rules:?}");
    }

    #[test]
    fn unused_allow_is_a_diagnostic() {
        let src = "// lint:allow(wall-clock): nothing here.\nfn f() {}";
        assert_eq!(rules_at(DET, src), vec!["unused-allow"]);
    }

    #[test]
    fn unknown_rule_is_a_diagnostic() {
        let src = "// lint:allow(no-such-rule): whatever.\nfn f() {}";
        assert_eq!(rules_at(DET, src), vec!["unknown-rule"]);
    }

    #[test]
    fn cfg_test_module_is_exempt_from_determinism_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}";
        assert!(rules_at(DET, src).is_empty());
    }

    #[test]
    fn tests_dir_exempt_from_determinism_not_architecture() {
        let path = "crates/partition/tests/t.rs";
        assert!(rules_at(path, "fn f() { let t = Instant::now(); }").is_empty());
        assert_eq!(
            rules_at(path, "fn f() { rt.set_fault_plan(p); }"),
            vec!["deprecated-shim"]
        );
    }

    #[test]
    fn hash_iteration_detected_through_bindings() {
        let src = "fn f(m: &HashMap<u32, u32>) { for k in m.keys() { use_(k); } }";
        assert_eq!(rules_at(DET, src), vec!["hash-iter"]);
        let src2 = "fn f() { let mut s: HashSet<u32> = HashSet::new(); for x in &s { g(x); } }";
        assert_eq!(rules_at(DET, src2), vec!["hash-iter"]);
        // Lookups are fine; BTreeMap iteration is fine.
        assert!(rules_at(DET, "fn f(m: &HashMap<u32,u32>) { m.get(&1); m.entry(2); }").is_empty());
        assert!(rules_at(DET, "fn f(m: &BTreeMap<u32,u32>) { for k in m.keys() {} }").is_empty());
    }

    #[test]
    fn spawn_denied_everywhere_outside_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_at(DET, src), vec!["thread-spawn"]);
        assert_eq!(rules_at(AUDITED, src), vec!["thread-spawn"]);
    }

    #[test]
    fn config_literal_denied_outside_defining_module() {
        let src = "fn f() { let c = MpcConfig { input_words: 1 }; }";
        assert_eq!(rules_at(DET, src), vec!["config-literal"]);
        assert!(rules_at("crates/mpc/src/config.rs", src).is_empty());
        // Declaration/impl positions don't trip the heuristic.
        assert!(rules_at(DET, "impl MpcConfig { fn g() {} }").is_empty());
        assert!(rules_at(DET, "pub struct PipelineConfig { pub xi: f64 }").is_empty());
    }

    #[test]
    fn env_read_denied_for_treeemb_vars_only() {
        let src = "fn f() { let v = std::env::var(\"TREEEMB_THREADS\"); }";
        assert_eq!(rules_at(DET, src), vec!["env-read"]);
        assert!(rules_at(DET, "fn f() { let v = std::env::var(\"PATH\"); }").is_empty());
        // No module is exempt any more.
        assert_eq!(rules_at("crates/mpc/src/config.rs", src), vec!["env-read"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"Instant::now()\"; } // Instant::now() in prose";
        assert!(rules_at(DET, src).is_empty());
    }
}
