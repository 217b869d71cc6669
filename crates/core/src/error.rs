//! Error type shared by the embedding pipelines.

use std::fmt;
use treeemb_mpc::MpcError;

/// Failures of the embedding algorithms. Theorem 1's algorithm "reports
/// failure" (with probability `1/poly(n)`) rather than producing a bad
/// tree; this type is that report.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EmbedError {
    /// A ball-partitioning grid sequence failed to cover a point within
    /// its `U` budget (Lemma 7's low-probability event).
    CoverageFailure {
        /// Level at which coverage failed.
        level: usize,
        /// Bucket within the level.
        bucket: usize,
        /// Point left uncovered.
        point: usize,
    },
    /// Input had no points.
    EmptyInput,
    /// The `min_sep` floor was not positive, so no level schedule exists.
    BadSeparation(f64),
    /// The input contains non-finite coordinates.
    NonFiniteInput {
        /// Offending point.
        point: usize,
    },
    /// A query has a non-finite coordinate.
    NonFiniteQuery,
    /// A point set or query has a different number of coordinates than
    /// the structure it is used with.
    DimensionMismatch {
        /// The dimension the structure was built for.
        expected: usize,
        /// The dimension it was given.
        found: usize,
    },
    /// Two points with different coordinates share every level of the
    /// hierarchy, so the tree puts them at distance 0 and breaks
    /// domination. The input is finer than the level schedule resolves.
    SeparationViolated {
        /// The smaller point id of the pair.
        p: usize,
        /// The other point.
        q: usize,
        /// Their Euclidean distance.
        dist: f64,
        /// The separation the level schedule resolves: pairs farther
        /// apart than this never share every level.
        min_sep: f64,
    },
    /// An MPC-layer failure (capacity, routing, …).
    Mpc(MpcError),
    /// Tree assembly from the distributed edge list failed (should be
    /// unreachable; indicates a structural-hash collision).
    TreeAssembly(String),
    /// A [`PipelineConfig`](crate::pipeline::PipelineConfig) value the
    /// MPC runtime cannot be sized with, a
    /// [`HybridParams`](crate::params::HybridParams) argument out of
    /// range, or another argument a function cannot use.
    InvalidConfig {
        /// The offending field or argument.
        field: &'static str,
        /// The rejected value.
        value: String,
        /// What the field requires.
        expected: String,
    },
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::CoverageFailure { level, bucket, point } => write!(
                f,
                "ball partitioning failed to cover point {point} (level {level}, bucket {bucket}); increase the grid budget U"
            ),
            EmbedError::EmptyInput => write!(f, "cannot embed an empty point set"),
            EmbedError::BadSeparation(s) => write!(f, "minimum separation {s} must be positive"),
            EmbedError::NonFiniteInput { point } => {
                write!(f, "point {point} has a non-finite coordinate")
            }
            EmbedError::NonFiniteQuery => write!(f, "the query has a non-finite coordinate"),
            EmbedError::DimensionMismatch { expected, found } => {
                write!(f, "expected {expected} coordinates, found {found}")
            }
            EmbedError::SeparationViolated { p, q, dist, min_sep } => write!(
                f,
                "points {p} and {q} are {dist} apart but share every level: the level schedule \
                 separates only points more than min_sep = {min_sep} apart; build it with a \
                 min_sep of at most {dist}"
            ),
            EmbedError::Mpc(e) => write!(f, "MPC failure: {e}"),
            EmbedError::TreeAssembly(msg) => write!(f, "tree assembly failed: {msg}"),
            EmbedError::InvalidConfig {
                field,
                value,
                expected,
            } => write!(
                f,
                "invalid configuration: {field} = {value}, expected {expected}"
            ),
        }
    }
}

impl EmbedError {
    /// Whether a fresh attempt of the whole pipeline could plausibly
    /// succeed. Delegates to [`MpcError::is_retryable`] for MPC-layer
    /// failures (exchange-retry or crash-recovery exhaustion under
    /// fault injection); every algorithm-level failure is deterministic
    /// for a fixed input/seed and will recur. This is the predicate
    /// [`crate::pipeline::run_faulted`] gates its attempt loop on.
    pub fn is_retryable(&self) -> bool {
        matches!(self, EmbedError::Mpc(e) if e.is_retryable())
    }
}

impl std::error::Error for EmbedError {}

impl From<MpcError> for EmbedError {
    fn from(e: MpcError) -> Self {
        EmbedError::Mpc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EmbedError::CoverageFailure {
            level: 3,
            bucket: 1,
            point: 42,
        };
        let s = e.to_string();
        assert!(s.contains("point 42") && s.contains("level 3"));
    }

    #[test]
    fn mpc_errors_convert() {
        let e: EmbedError = MpcError::AlgorithmFailure("x".into()).into();
        assert!(matches!(e, EmbedError::Mpc(_)));
    }

    #[test]
    fn retryability_follows_the_mpc_layer() {
        let transient: EmbedError = MpcError::RetriesExhausted {
            round: 0,
            label: "x".into(),
            attempts: 2,
        }
        .into();
        assert!(transient.is_retryable());
        let crashed: EmbedError = MpcError::RecoveryExhausted {
            round: 0,
            label: "x".into(),
            machine: 1,
            attempts: 3,
        }
        .into();
        assert!(crashed.is_retryable());
        let algo: EmbedError = MpcError::AlgorithmFailure("x".into()).into();
        assert!(!algo.is_retryable());
        assert!(!EmbedError::EmptyInput.is_retryable());
    }
}
