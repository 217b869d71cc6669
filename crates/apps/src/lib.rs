//! Applications of the tree embedding (paper Corollary 1) and the exact
//! baselines used to measure their approximation quality.
//!
//! * [`densest_ball`] — the `(1−o(1), O(log^1.5 n))`-bicriteria densest
//!   ball: pick the heaviest tree node whose subtree tree-diameter fits
//!   the (inflated) target;
//! * [`mst`] — `O(log^1.5 n)`-approximate Euclidean minimum spanning
//!   tree: stitch each internal node's child clusters through
//!   representative leaves and price the edges in Euclidean space;
//! * [`emd`] — `O(log^1.5 n)`-approximate Earth-Mover distance between
//!   equal-size multisets: on a tree, the optimal flow is closed-form —
//!   `Σ_e w(e)·|surplus under e|`;
//! * [`ann`] — `O(logΔ)`-time approximate nearest neighbors via
//!   out-of-sample partition-chain assignment (the application the
//!   FJLT was invented for, paper reference \[2\]);
//! * [`kmedian`] — exact k-median DP on the tree metric (the classic
//!   FRT application, §1);
//! * [`mpc`] — O(1)-round distributed versions of the Corollary-1
//!   applications over per-point paths;
//! * [`exact`] — exact baselines: Prim's MST (`O(n²d)`), Hungarian
//!   min-cost matching EMD (`O(n³)`), and brute-force ball counting.

#![forbid(unsafe_code)]

pub mod ann;
pub mod densest_ball;
pub mod emd;
pub mod exact;
pub mod kmedian;
pub mod mpc;
pub mod mst;
