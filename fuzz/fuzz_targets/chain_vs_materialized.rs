//! Fuzz target: streamed node-id chain vs materialized assignment
//! parity.
//!
//! The oracle lives in `treeemb_partition::fuzzing` so the checked-in
//! corpus can also be replayed under plain `cargo test` (see
//! `crates/partition/tests/fuzz_corpus.rs`). Input encoding is
//! documented on that module.

#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    let _ = treeemb_partition::fuzzing::check_chain_vs_materialized(data);
});
