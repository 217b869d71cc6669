//! Error type for MPC computations.
//!
//! Theorem 1's algorithm "reports failure" rather than silently
//! degrading; the runtime mirrors that: capacity violations and coverage
//! failures surface as values of [`MpcError`].

use std::fmt;

/// Result alias for MPC computations.
pub type MpcResult<T> = Result<T, MpcError>;

/// The phase of a round at which a capacity violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityPhase {
    /// The machine's input at the start of the round.
    Input,
    /// Words the machine chose to keep locally plus words it received.
    Residency,
    /// Words the machine sent during the round.
    Send,
    /// Words the machine received during the round.
    Receive,
}

impl fmt::Display for CapacityPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CapacityPhase::Input => "input",
            CapacityPhase::Residency => "residency",
            CapacityPhase::Send => "send",
            CapacityPhase::Receive => "receive",
        };
        f.write_str(s)
    }
}

/// Errors surfaced by the simulated MPC runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpcError {
    /// A machine exceeded its local capacity.
    CapacityExceeded {
        /// Offending machine.
        machine: usize,
        /// Round index (0-based) at which the violation occurred.
        round: usize,
        /// Phase of the round.
        phase: CapacityPhase,
        /// Observed word count.
        words: usize,
        /// Configured capacity.
        capacity: usize,
        /// Human-readable label of the round.
        label: String,
    },
    /// A message addressed a machine outside `0..num_machines`.
    BadDestination {
        /// Offending source machine.
        source: usize,
        /// The invalid destination.
        dest: usize,
        /// Number of machines in the cluster.
        num_machines: usize,
    },
    /// An algorithm-level failure (e.g. ball-partition coverage failed;
    /// Theorem 1 permits reporting failure with probability `1/poly(n)`).
    AlgorithmFailure(String),
    /// Injected transient faults (drops, duplications, unavailability)
    /// persisted through every exchange attempt the fault plan's retry
    /// budget allowed, so the round could not complete. Only produced
    /// under fault injection; retryable at the pipeline level.
    RetriesExhausted {
        /// Round index (0-based) whose exchange kept failing.
        round: usize,
        /// Human-readable label of the round.
        label: String,
        /// Exchange attempts made (`max_retries + 1`).
        attempts: u32,
    },
    /// A machine crashed on its initial execution of a round *and* on
    /// every checkpoint re-execution the fault plan's recovery budget
    /// allowed (or checkpointing was disabled), so the lost partition
    /// could not be recomputed. Only produced under fault injection;
    /// retryable at the pipeline level.
    RecoveryExhausted {
        /// Round index (0-based) whose compute kept crashing.
        round: usize,
        /// Human-readable label of the round.
        label: String,
        /// The machine whose shard could not be recovered.
        machine: usize,
        /// Executions that crashed (initial run plus re-executions).
        attempts: u32,
    },
}

impl MpcError {
    /// Whether a fresh attempt of the whole computation could plausibly
    /// succeed: true only for transient-fault exhaustion (exchange
    /// retries or crash recoveries). Capacity violations, bad
    /// destinations, and algorithm failures are deterministic for a
    /// fixed input/seed and will recur.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            MpcError::RetriesExhausted { .. } | MpcError::RecoveryExhausted { .. }
        )
    }
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::CapacityExceeded {
                machine,
                round,
                phase,
                words,
                capacity,
                label,
            } => {
                write!(
                    f,
                    "machine {machine} exceeded local capacity in round {round} ({label}, phase {phase}): {words} words > {capacity}"
                )
            }
            MpcError::BadDestination {
                source,
                dest,
                num_machines,
            } => {
                write!(
                    f,
                    "machine {source} addressed invalid machine {dest} (cluster has {num_machines})"
                )
            }
            MpcError::AlgorithmFailure(msg) => write!(f, "algorithm reported failure: {msg}"),
            MpcError::RetriesExhausted {
                round,
                label,
                attempts,
            } => {
                write!(
                    f,
                    "round {round} ({label}) failed all {attempts} exchange attempts under injected faults"
                )
            }
            MpcError::RecoveryExhausted {
                round,
                label,
                machine,
                attempts,
            } => {
                write!(
                    f,
                    "machine {machine} crashed on all {attempts} executions of round {round} ({label}); checkpoint recovery exhausted"
                )
            }
        }
    }
}

impl std::error::Error for MpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        let e = MpcError::CapacityExceeded {
            machine: 3,
            round: 7,
            phase: CapacityPhase::Send,
            words: 100,
            capacity: 64,
            label: "shuffle".into(),
        };
        let s = e.to_string();
        assert!(s.contains("machine 3") && s.contains("round 7") && s.contains("send"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = MpcError::AlgorithmFailure("x".into());
        let b = MpcError::AlgorithmFailure("x".into());
        assert_eq!(a, b);
    }

    #[test]
    fn only_retries_exhausted_is_retryable() {
        let transient = MpcError::RetriesExhausted {
            round: 2,
            label: "join:route".into(),
            attempts: 4,
        };
        assert!(transient.is_retryable());
        assert!(transient.to_string().contains("round 2"));
        assert!(transient.to_string().contains("4 exchange attempts"));
        let crashed = MpcError::RecoveryExhausted {
            round: 5,
            label: "embed:assign".into(),
            machine: 3,
            attempts: 4,
        };
        assert!(crashed.is_retryable());
        assert!(crashed.to_string().contains("machine 3"));
        assert!(crashed.to_string().contains("round 5"));
        let capacity = MpcError::CapacityExceeded {
            machine: 0,
            round: 0,
            phase: CapacityPhase::Input,
            words: 10,
            capacity: 5,
            label: "x".into(),
        };
        assert!(!capacity.is_retryable());
        assert!(!MpcError::AlgorithmFailure("x".into()).is_retryable());
        assert!(!MpcError::BadDestination {
            source: 0,
            dest: 9,
            num_machines: 2
        }
        .is_retryable());
    }
}
