//! Geometric substrate for the tree-embedding reproduction.
//!
//! This crate provides the data layer every other crate builds on:
//!
//! * [`PointSet`] — a flat, row-major, cache-friendly container of
//!   `n` points in `d`-dimensional Euclidean space;
//! * [`metrics`] — Euclidean distances, pairwise extremes, aspect ratio;
//! * [`generators`] — seeded synthetic workloads (uniform cubes, Gaussian
//!   mixtures, planted clusters, low-dimensional
//!   manifolds embedded in high dimension);
//! * [`bbox`] — axis-aligned bounding boxes;
//! * [`sphere`] — uniform sampling from unit spheres/balls (used by the
//!   Lemma 4/5 experiments).
//!
//! The paper (SPAA'23) assumes integer coordinates in `[Δ]^d`; generators
//! that honour that convention take an explicit `delta` and emit integral
//! coordinates stored as `f64` (exact for `Δ ≤ 2^53`).

#![forbid(unsafe_code)]

pub mod bbox;
pub mod dataset;
pub mod generators;
pub mod metrics;
pub mod sphere;

pub use bbox::BoundingBox;
pub use dataset::PointSet;

/// Index of a point within a [`PointSet`].
pub type PointId = usize;
