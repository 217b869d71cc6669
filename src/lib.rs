//! # treeemb — Massively Parallel Tree Embeddings for High Dimensional Spaces
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! Ahanchi, Andoni, Hajiaghayi, Knittel & Zhong, *"Massively Parallel
//! Tree Embeddings for High Dimensional Spaces"* (SPAA 2023).
//!
//! ## Quick tour
//!
//! ```
//! use treeemb::geom::generators;
//! use treeemb::core::{seq::SeqEmbedder, params::HybridParams};
//!
//! // 128 integer points in [1024]^8.
//! let points = generators::uniform_cube(128, 8, 1024, 42);
//! // Hybrid partitioning with r = 2 buckets (paper Algorithm 1).
//! let params = HybridParams::for_dataset(&points, 2).unwrap();
//! let emb = SeqEmbedder::new(params).embed(&points, 7).expect("coverage");
//! // The tree metric dominates the Euclidean metric ...
//! let t = emb.tree_distance(0, 1);
//! let e = treeemb::geom::metrics::dist(points.point(0), points.point(1));
//! assert!(t >= e * (1.0 - 1e-9));
//! ```
//!
//! See the crate-level docs of each member for details:
//! [`geom`], [`mpc`], [`linalg`], [`fjlt`], [`partition`], [`hst`],
//! [`core`], [`apps`].

#![forbid(unsafe_code)]

pub mod io;

/// The blessed one-import surface of the workspace.
///
/// Everything a typical embedding program needs — point-set generators,
/// the sequential embedder, the MPC pipeline with its builder-style
/// configuration, the simulated runtime, fault plans, and both error
/// types:
///
/// ```
/// use treeemb::prelude::*;
///
/// let points = generators::uniform_cube(64, 8, 1024, 42);
/// let cfg = PipelineConfig::builder().r(4).threads(2).build();
/// let report = pipeline::run(&points, &cfg).unwrap();
/// assert!(report.rounds > 0);
/// ```
pub mod prelude {
    pub use treeemb_core::params::HybridParams;
    pub use treeemb_core::pipeline::{self, PipelineBuilder, PipelineConfig, PipelineReport};
    pub use treeemb_core::{EmbedError, Embedding, SeqEmbedder};
    pub use treeemb_geom::{generators, metrics, PointSet};
    pub use treeemb_mpc::{
        Dist, FaultEvent, FaultPlan, FaultRates, FaultSpec, MpcConfig, MpcError, Runtime,
        RuntimeBuilder,
    };
}

pub use treeemb_apps as apps;
pub use treeemb_core as core;
pub use treeemb_fjlt as fjlt;
pub use treeemb_geom as geom;
pub use treeemb_hst as hst;
pub use treeemb_linalg as linalg;
pub use treeemb_mpc as mpc;
pub use treeemb_partition as partition;
