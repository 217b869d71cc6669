//! Replays the checked-in cargo-fuzz corpus (and a deterministic random
//! byte sweep) through the chain-vs-materialized parity oracle, so the
//! fuzz harness runs on every `cargo test` even without a fuzzer
//! toolchain.
//!
//! The corpus lives in `fuzz/corpus/chain_vs_materialized/` at the
//! workspace root; the actual fuzz target
//! (`fuzz/fuzz_targets/chain_vs_materialized.rs`) calls the same
//! `treeemb_partition::fuzzing::check_chain_vs_materialized`.

use std::path::PathBuf;
use treeemb_partition::fuzzing::check_chain_vs_materialized;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus/chain_vs_materialized")
}

#[test]
fn checked_in_corpus_replays_clean() {
    let dir = corpus_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {} must exist: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 8,
        "corpus went missing: only {} entries in {}",
        entries.len(),
        dir.display()
    );
    let mut checked_points = 0usize;
    for path in &entries {
        let data = std::fs::read(path).expect("readable corpus file");
        checked_points += check_chain_vs_materialized(&data);
    }
    assert!(
        checked_points >= 50,
        "corpus only exercised {checked_points} points; seeds have degraded"
    );
}

/// SplitMix64 — deterministic byte-string generator for the sweep.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn random_byte_sweep_replays_clean() {
    // 256 deterministic pseudo-random inputs of varied length: a cheap
    // stand-in for a short fuzz run, hitting header parsing, partial
    // points, and all (r, bucket_dim) combinations.
    let mut state = 0xF022_CAFEu64;
    for case in 0..256u64 {
        let len = (splitmix(&mut state) % 96) as usize;
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            data.extend_from_slice(&splitmix(&mut state).to_le_bytes());
        }
        data.truncate(len);
        if !data.is_empty() {
            // Cycle the header bytes so every geometry shape appears.
            data[0] = (case % 4) as u8;
            if data.len() > 1 {
                data[1] = ((case / 4) % 4) as u8;
            }
        }
        check_chain_vs_materialized(&data);
    }
}
