//! The paper's tree-embedding algorithms, end to end.
//!
//! * [`params`] — scale schedules, bucket counts, grid budgets
//!   (instantiating Lemmas 7/8 concretely);
//! * [`seq`] — **Algorithm 1**: sequential hybrid-partitioning tree
//!   embedding (Theorem 2), plus the Arora grid-partitioning embedder as
//!   the baseline it generalizes;
//! * [`mpc_embed`] — **Algorithm 2**: the fully scalable MPC embedding —
//!   grids generated once and broadcast, per-machine path construction,
//!   distributed node deduplication (Theorem 1's second half);
//! * [`pipeline`] — **Theorem 1**: MPC FJLT (Theorem 3) →
//!   `r = Θ(log log n)` hybrid partitioning, with metered rounds/space;
//! * [`audit`] — domination and expected-distortion measurements
//!   (Theorem 2's two guarantees, checked empirically);
//! * [`mpc_tree`] — pointer-doubling tree operations on distributed
//!   edge lists (`O(log depth)` rounds; the §1.3.3 direction).
//!
//! The sequential and MPC embedders derive identical randomness from the
//! same seed and produce *identical tree metrics* (tested in
//! `mpc_embed::tests` and experiment E12).

#![forbid(unsafe_code)]

pub mod audit;
pub mod error;
pub mod mpc_embed;
pub mod mpc_tree;
pub mod params;
pub mod pipeline;
pub mod seq;

pub use error::EmbedError;
pub use params::HybridParams;
pub use seq::{Embedding, GridEmbedder, SeqEmbedder};
