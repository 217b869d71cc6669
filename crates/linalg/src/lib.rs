//! Linear-algebra substrate for the FJLT and the embedding pipelines.
//!
//! * [`wht`] — the in-place fast Walsh–Hadamard transform (`H` in the
//!   FJLT is exactly the normalized Walsh–Hadamard matrix);
//! * [`sparse`] — a compressed-sparse-column matrix with seeded random
//!   construction (the FJLT's sparse Gaussian `P`);
//! * [`random`] — counter-based random streams so `D`, `P` and grid
//!   shifts can be re-derived anywhere in the cluster from one shared
//!   seed.

#![forbid(unsafe_code)]

pub mod random;
pub mod sparse;
pub mod wht;
