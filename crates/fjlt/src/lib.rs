//! Johnson–Lindenstrauss transforms (paper §5, Theorem 3).
//!
//! * [`fjlt`] — the sequential Fast Johnson–Lindenstrauss Transform of
//!   Ailon–Chazelle: `φ(x) = k^{-1/2}·P·H·D·x` with a sparse Gaussian
//!   `P`, the Walsh–Hadamard `H`, and a random-sign diagonal `D`, to the
//!   JL target dimension `k` for `n` points at distortion `1 ± ξ`
//!   ([`fjlt::target_dimension`]);
//! * [`mpc`] — the paper's constant-round, sublinear-memory MPC
//!   implementation (Algorithm 3): `D` applied pointwise, `H` via a
//!   butterfly-grouped distributed WHT (`O(1/ε)` super-rounds), `P` via
//!   sparse fan-out and distributed aggregation;
//! * [`audit`] — distortion reports comparing embedded to original
//!   pairwise distances.
//!
//! Both implementations derive `D` and `P` from the same seed with the
//! same counter streams, so the MPC transform computes the *same map*
//! as the sequential one (up to float summation order) — tested.

#![forbid(unsafe_code)]

pub mod audit;
pub mod fjlt;
pub mod mpc;

pub use fjlt::{Fjlt, FjltParams};
