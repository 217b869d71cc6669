//! The paper's three space-partitioning methods (SPAA'23 §1.2, §3).
//!
//! * [`grid`] — **random shifted grids** (Arora; Definition 1): partition
//!   space into hypercubic cells of width `w`, origin shifted uniformly.
//!   Simple, MPC-friendly, but `O(log² n)` distortion.
//! * [`ball`] — **ball partitioning** (Charikar et al.; Definition 2):
//!   place balls of radius `w` at the vertices of grids of cell length
//!   `ℓ = 4w`; repeat with fresh random shifts until every point is
//!   covered; a point belongs to the *first* ball that covers it.
//!   `O(log^1.5 n)` distortion but needs `2^{Θ(d log d)}` grids.
//! * [`hybrid`] — **hybrid partitioning** (Definition 3, the paper's
//!   contribution): split the `d` dimensions into `r` buckets, ball
//!   partition each bucket independently, and intersect: two points
//!   share a partition iff they share a ball in *every* bucket. `r = 1`
//!   recovers ball partitioning; `r = d` (with radius `w/2`, see
//!   [`grid`]) recovers shifted grids. The grid count drops to
//!   `2^{Θ((d/r)·log(d/r))}` while the cut probability stays
//!   `O(√d·‖p−q‖/w)` — independent of `r` (Lemma 1).
//!
//! [`coverage`] quantifies the number of grids needed (Lemmas 6/7) and
//! [`stats`] estimates cut and equator-band probabilities
//! empirically (the E4/E6 experiments).

#![forbid(unsafe_code)]

pub mod ball;
pub mod coverage;
pub mod fuzzing;
pub mod grid;
pub mod hybrid;
pub mod ids;
pub mod stats;

pub use ball::{BallAssignment, GridSequence};
pub use grid::ShiftedGrid;
pub use hybrid::{for_each_node_id, HybridLevel, LevelAssignment};
pub use ids::StructuralHash;
