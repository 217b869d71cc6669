//! A simulated **Massively Parallel Computation (MPC)** runtime.
//!
//! The paper targets the MPC model of Karloff–Suri–Vassilvitskii /
//! Beame–Koutris–Suciu in its most restrictive, *fully scalable* form:
//! the input occupies `N = n·d` machine words, each machine holds
//! `s = O(N^ε)` words of local memory for an arbitrary constant
//! `ε ∈ (0,1)`, computation proceeds in synchronous rounds, and in each
//! round a machine may send and receive at most `s` words. Algorithm
//! quality is measured by (rounds, local space, total space).
//!
//! No public MPC dataflow engine exists for Rust, so this crate *is* the
//! substrate (see DESIGN.md): it simulates a cluster faithfully enough
//! that the paper's complexity claims become checkable assertions:
//!
//! * **capacity enforcement** — every round checks each machine's input,
//!   kept, sent, and received word counts against `s` and fails the
//!   computation (it does not silently spill) on overflow;
//! * **round metering** — every communication round increments a counter
//!   and records per-round load statistics ([`metrics::Metrics`]);
//! * **parallel execution** — machines within a round run concurrently on
//!   scoped threads claiming chunks off one cursor ([`exec`]), with
//!   deterministic message delivery order (by source machine id).
//!
//! On top of the raw [`cluster::Runtime::round`] primitive, the
//! [`primitives`] module provides the classic O(1)-round building blocks
//! the paper's algorithms assume: (accounted) broadcast trees, hash
//! shuffles with distributed deduplication and group folds, hash joins,
//! and aggregation trees.
//!
//! ```
//! use treeemb_mpc::primitives::{aggregate, shuffle};
//! use treeemb_mpc::{MpcConfig, Runtime};
//!
//! let mut rt = Runtime::builder()
//!     .config(MpcConfig::explicit(1 << 16, 4096, 16).with_threads(2))
//!     .build();
//! let data: Vec<u64> = (0..1000).collect();
//! let dist = rt.distribute(data).unwrap();
//! // One shuffle round co-locates each residue class mod 10 …
//! let sizes = shuffle::group_fold(&mut rt, dist, |x| x % 10, |_, g| g.len() as u64).unwrap();
//! // … and an aggregation tree sums the group sizes on machine 0.
//! let total = aggregate::sum_by(&mut rt, &sizes, |n| *n as f64).unwrap();
//! assert_eq!(total, 1000.0);
//! assert_eq!(rt.metrics().rounds_labeled("shuffle"), 1);
//! assert!(rt.metrics().rounds() <= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod error;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod primitives;
pub mod words;

pub use cluster::{Dist, Emitter, MachineId, Runtime};
pub use config::{MpcConfig, RuntimeBuilder};
pub use error::{MpcError, MpcResult};
pub use fault::{FaultEvent, FaultPlan, FaultRates, FaultSpec};
pub use words::Words;
