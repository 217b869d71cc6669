//! Hierarchically well-separated tree (HST) substrate.
//!
//! The output of every embedding pipeline in this workspace is a
//! weighted rooted tree whose leaves are the input points; the *tree
//! metric* `dist_T(p, q)` — the total weight of the tree path between
//! the leaves of `p` and `q` — is the embedded metric (paper §1.2).
//!
//! * [`tree`] — arena-allocated tree with parent pointers, levels, and a
//!   leaf-per-point map;
//! * [`builder`] — incremental construction + validation, including
//!   assembly from the distributed edge lists Algorithm 2 emits;
//! * [`metric`] — `dist_T`, LCA, path lengths;
//! * [`aggregate`] — subtree folds (point counts, weighted mass) used by
//!   the EMD / densest-ball / MST applications;
//! * [`export`] — Graphviz DOT rendering;
//! * [`persist`] — JSON save/load of trees (edge-list documents);
//! * [`compress`] — unary-chain compression (metric-preserving).

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod builder;
pub mod compress;
pub mod export;
pub mod metric;
pub mod persist;
pub mod tree;

pub use builder::{EdgeRec, HstBuilder, HstError};
pub use tree::{Hst, NodeId};
