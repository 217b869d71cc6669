// lint-fixture: crates/linalg/src/violations.rs
// No configuration is read from TREEEMB_* environment variables; every
// read is denied unless an audited lint:allow explains it. Non-repo
// variables are not this lint's business.

fn scattered_overrides() {
    let t = std::env::var("TREEEMB_THREADS"); //~ DENY env-read
    let u = env::var_os("TREEEMB_CAPACITY_WORDS"); //~ DENY env-read
    let _ = (t, u);
}

fn foreign_vars_ok() {
    let _ = std::env::var("PATH");
    let _ = std::env::var("RUST_LOG");
}
