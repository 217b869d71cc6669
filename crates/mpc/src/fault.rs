//! Deterministic fault injection for the simulated MPC runtime.
//!
//! FoundationDB-style deterministic simulation testing: a [`FaultPlan`]
//! is a seeded, serializable schedule of message drops, transient
//! machine unavailability, machine crashes that lose a shard mid-round
//! and cluster-wide capacity squeezes. The runtime consults the plan at
//! fixed points of [`crate::cluster::Runtime::round`]; every decision is
//! a pure function of `(plan seed, round, attempt, machine, message
//! index)`, so a plan reproduces the identical fault sequence and run
//! outcome across repeated runs and thread counts.
//!
//! **Failure model** (Theorem 1's "right tree or reported failure").
//! Drops and unavailability are *detected* by the simulated exchange
//! protocol and the whole exchange is retried from the machines'
//! already-computed outputs, so a run either delivers the fault-free
//! message sequence or fails with the typed
//! [`MpcError::RetriesExhausted`](crate::error::MpcError). A squeeze
//! shrinks the effective `s` from a round onward and is not retryable:
//! loads that no longer fit are typed capacity errors. A crash loses a
//! machine's state; the runtime re-executes the lost partition from the
//! round-input checkpoint (bit-identically, see `DESIGN.md`), and a
//! machine that crashes through the recovery budget surfaces as the
//! typed, retryable [`MpcError::RecoveryExhausted`](crate::error::MpcError).
//!
//! One type describes a fault: a [`FaultSpec`] is what a plan schedules
//! and, as [`FaultEvent::Injected`], what the runtime logs, so a fault
//! log replays as a schedule ([`FaultPlan::from_events`]). Plans
//! round-trip through JSON over the workspace codec
//! [`treeemb_obs::json`]: `treeemb-bench --bin chaos -- --faults
//! plan.json` replays them, and the shrinker ([`shrink_plan`]) prints a
//! minimal reproducing schedule.

use treeemb_linalg::random::mix2;
use treeemb_obs::json::{self, Float, Value};

/// Domain-separation tags for the per-fault-kind hash streams.
const TAG_DROP: u64 = 0xD809;
const TAG_UNAVAILABLE: u64 = 0x0FF1;
const TAG_CRASH: u64 = 0xC4A5;

/// Seeded probabilistic fault rates, applied independently per decision
/// point through the plan's hash stream. All probabilities are clamped
/// to `[0, 1]`; `0` disables the class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a message is dropped (per message, per attempt).
    pub drop: f64,
    /// Probability a machine is unavailable for an exchange attempt
    /// (per machine, per attempt).
    pub unavailable: f64,
    /// Probability a machine crashes and loses its shard during an
    /// execution of a round (per machine, per execution attempt; see
    /// [`FaultPlan::crashed`]).
    pub crash: f64,
}

impl FaultRates {
    /// True when every rate is zero (no probabilistic injection).
    pub fn is_zero(&self) -> bool {
        self.drop <= 0.0 && self.unavailable <= 0.0 && self.crash <= 0.0
    }
}

/// One fault: what a plan schedules and, wrapped in
/// [`FaultEvent::Injected`], what the runtime logs when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Message `msg_index` emitted by `src` is dropped in exchange
    /// attempt `attempt` of round `round`.
    Drop {
        /// Affected round (0-based, the runtime's round counter).
        round: usize,
        /// Exchange attempt (0-based) within the round.
        attempt: u32,
        /// Source machine of the message.
        src: usize,
        /// Index of the message in the source's emission order.
        msg_index: usize,
    },
    /// Machine `machine` is unavailable for exchange attempt `attempt`
    /// of round `round`.
    Unavailable {
        /// Affected round.
        round: usize,
        /// Exchange attempt within the round.
        attempt: u32,
        /// Unavailable machine.
        machine: usize,
    },
    /// From round `from_round` onward every machine's effective
    /// capacity shrinks to at most `capacity_words` (never grows;
    /// multiple squeezes take the minimum). Non-retryable. Per-machine
    /// capacities are configuration, not faults: see
    /// [`MpcConfig::machine_capacities`](crate::config::MpcConfig).
    Squeeze {
        /// First affected round.
        from_round: usize,
        /// New effective capacity in words.
        capacity_words: usize,
    },
    /// Machine `machine` crashes and loses its shard during execution
    /// attempt `attempt` of round `round` (attempt 0 is the initial
    /// execution; attempt `k > 0` is the `k`-th re-execution from the
    /// round checkpoint). Recovered by checkpoint restore, bounded by
    /// [`FaultPlan::max_recoveries`].
    Crash {
        /// Affected round.
        round: usize,
        /// Execution attempt within the round (0 = initial run).
        attempt: u32,
        /// Crashing machine.
        machine: usize,
    },
}

/// Each fault kind's name and field keys: the one table the JSON
/// writer, the parser and the trace marks read.
const KINDS: [(&str, &[&str]); 4] = [
    ("drop", &["round", "attempt", "src", "msg_index"]),
    ("unavailable", &["round", "attempt", "machine"]),
    ("squeeze", &["from_round", "capacity_words"]),
    ("crash", &["round", "attempt", "machine"]),
];

impl FaultSpec {
    /// Stable lowercase name: the JSON `kind` and the `fault.<name>`
    /// trace mark.
    pub fn name(&self) -> &'static str {
        KINDS[self.encode().0].0
    }

    /// `(key, value)` of every field, in JSON order.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let (kind, values) = self.encode();
        KINDS[kind].1.iter().copied().zip(values)
    }

    /// Round and attempt the fault fires in (a squeeze: its first round,
    /// attempt 0).
    pub(crate) fn at(&self) -> (usize, u32) {
        let (_, [round, attempt, ..]) = self.encode();
        let squeeze = matches!(self, FaultSpec::Squeeze { .. });
        (round as usize, if squeeze { 0 } else { attempt as u32 })
    }

    /// The kind's index in [`KINDS`] and the field values in key order.
    fn encode(&self) -> (usize, [u64; 4]) {
        match *self {
            FaultSpec::Drop {
                round,
                attempt,
                src,
                msg_index,
            } => (
                0,
                [round as u64, attempt.into(), src as u64, msg_index as u64],
            ),
            FaultSpec::Unavailable {
                round,
                attempt,
                machine,
            } => (1, [round as u64, attempt.into(), machine as u64, 0]),
            FaultSpec::Squeeze {
                from_round,
                capacity_words,
            } => (2, [from_round as u64, capacity_words as u64, 0, 0]),
            FaultSpec::Crash {
                round,
                attempt,
                machine,
            } => (3, [round as u64, attempt.into(), machine as u64, 0]),
        }
    }

    /// Inverse of [`Self::encode`], for values the parser range-checked.
    fn decode(kind: usize, v: [u64; 4]) -> FaultSpec {
        let (round, attempt, machine) = (v[0] as usize, v[1] as u32, v[2] as usize);
        match kind {
            0 => FaultSpec::Drop {
                round,
                attempt,
                src: machine,
                msg_index: v[3] as usize,
            },
            1 => FaultSpec::Unavailable {
                round,
                attempt,
                machine,
            },
            2 => FaultSpec::Squeeze {
                from_round: round,
                capacity_words: v[1] as usize,
            },
            _ => FaultSpec::Crash {
                round,
                attempt,
                machine,
            },
        }
    }
}

/// One entry of the runtime's fault log, in deterministic order (rounds
/// ascending; within a round: the squeeze, crashes and restores by
/// machine, then per exchange attempt: unavailability by machine, drops
/// by `(src, msg_index)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A fault the plan injected; scheduling this spec reproduces it.
    Injected(FaultSpec),
    /// A crashed machine's shard was restored from the round checkpoint
    /// and re-executed: a consequence of a crash, not a cause.
    Recovered {
        /// Round of the restore.
        round: usize,
        /// Execution attempt that completed from the checkpoint.
        attempt: u32,
        /// Restored machine.
        machine: usize,
        /// Words restored from the checkpoint.
        words: u64,
    },
}

/// A seeded, serializable fault schedule.
///
/// Attach to a runtime at construction with
/// [`RuntimeBuilder::fault_plan`](crate::config::RuntimeBuilder::fault_plan).
/// The default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the probabilistic decision stream.
    pub seed: u64,
    /// Exchange retries per round beyond the first attempt; retryable
    /// faults that persist through `max_retries + 1` attempts surface
    /// as [`MpcError::RetriesExhausted`](crate::error::MpcError).
    pub max_retries: u32,
    /// Checkpoint restores a machine may consume per round; a machine
    /// that crashes on the initial execution *and* on `max_recoveries`
    /// re-executions surfaces as
    /// [`MpcError::RecoveryExhausted`](crate::error::MpcError).
    pub max_recoveries: u32,
    /// Probabilistic fault rates.
    pub rates: FaultRates,
    /// Explicitly scheduled faults.
    pub scheduled: Vec<FaultSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            max_retries: 3,
            max_recoveries: 3,
            rates: FaultRates::default(),
            scheduled: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan with the given decision seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Builder: sets the probabilistic rates.
    pub fn with_rates(mut self, rates: FaultRates) -> Self {
        self.rates = rates;
        self
    }

    /// Builder: sets the per-round exchange retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Builder: sets the per-round, per-machine checkpoint-restore
    /// budget for crash recovery.
    pub fn with_max_recoveries(mut self, max_recoveries: u32) -> Self {
        self.max_recoveries = max_recoveries;
        self
    }

    /// Builder: appends a scheduled fault.
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.scheduled.push(spec);
        self
    }

    /// True when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.rates.is_zero() && self.scheduled.is_empty()
    }

    /// True when the plan can crash a machine (rate-sampled or
    /// scheduled) — the condition under which the runtime snapshots
    /// round inputs.
    pub fn can_crash(&self) -> bool {
        self.rates.crash > 0.0
            || self
                .scheduled
                .iter()
                .any(|s| matches!(s, FaultSpec::Crash { .. }))
    }

    /// Derives the plan for pipeline-level retry attempt `attempt`:
    /// attempt 0 is the plan verbatim; later attempts re-seed the
    /// probabilistic stream (scheduled faults are kept, so purely
    /// scheduled plans fail deterministically on every attempt).
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        let mut plan = self.clone();
        if attempt > 0 {
            plan.seed = mix2(self.seed, 0xA77E_0000 | attempt as u64);
        }
        plan
    }

    /// Builds an explicit (rate-free) plan that replays exactly the
    /// faults in `events` — the starting point for shrinking a failing
    /// seeded run down to a minimal reproducing schedule. Restores are
    /// consequences, not causes, and are skipped.
    pub fn from_events(events: &[FaultEvent], max_retries: u32) -> FaultPlan {
        let mut scheduled = Vec::new();
        for e in events {
            if let FaultEvent::Injected(spec) = e {
                if !scheduled.contains(spec) {
                    scheduled.push(*spec);
                }
            }
        }
        FaultPlan {
            max_retries,
            scheduled,
            ..FaultPlan::default()
        }
    }

    // ---- decision points (pure functions of the plan) ----

    /// Whether `spec` fires: it is scheduled, or the `tag` stream's
    /// uniform draw in `[0, 1)` at the spec's decision point falls under
    /// the rate `p`. The draw hashes the plan seed with the spec's
    /// fields, so it is a pure function of the plan.
    fn fires(&self, spec: FaultSpec, p: f64, tag: u64) -> bool {
        if self.scheduled.contains(&spec) {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        let (_, [round, attempt, a, b]) = spec.encode();
        let h = mix2(mix2(mix2(self.seed, tag), mix2(round, attempt)), mix2(a, b));
        // 53 high bits -> uniform double in [0, 1).
        p >= 1.0 || ((h >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Whether `machine` is unavailable for exchange attempt `attempt`
    /// of `round`.
    pub fn unavailable(&self, round: usize, attempt: u32, machine: usize) -> bool {
        let spec = FaultSpec::Unavailable {
            round,
            attempt,
            machine,
        };
        self.fires(spec, self.rates.unavailable, TAG_UNAVAILABLE)
    }

    /// Whether message `msg_index` from `src` is dropped in exchange
    /// attempt `attempt` of `round`.
    pub fn dropped(&self, round: usize, attempt: u32, src: usize, msg_index: usize) -> bool {
        let spec = FaultSpec::Drop {
            round,
            attempt,
            src,
            msg_index,
        };
        self.fires(spec, self.rates.drop, TAG_DROP)
    }

    /// Capacity cap in force at `round`, if any squeeze applies (the
    /// minimum over applicable squeezes).
    pub fn squeeze_at(&self, round: usize) -> Option<usize> {
        self.scheduled
            .iter()
            .filter_map(|s| match s {
                FaultSpec::Squeeze {
                    from_round,
                    capacity_words,
                } if *from_round <= round => Some(*capacity_words),
                _ => None,
            })
            .min()
    }

    /// Whether `machine` crashes (loses its shard) during execution
    /// attempt `attempt` of `round`. Attempt 0 is the initial execution;
    /// attempt `k > 0` is the `k`-th re-execution from the checkpoint.
    pub fn crashed(&self, round: usize, attempt: u32, machine: usize) -> bool {
        let spec = FaultSpec::Crash {
            round,
            attempt,
            machine,
        };
        self.fires(spec, self.rates.crash, TAG_CRASH)
    }

    // ---- JSON codec ----

    /// Serializes the plan as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + 96 * self.scheduled.len());
        let _ = write!(
            out,
            "{{\n  \"seed\": {},\n  \"max_retries\": {},\n  \"max_recoveries\": {},\n  \"rates\": {{\"drop\": {}, \"unavailable\": {}, \"crash\": {}}},\n  \"scheduled\": [",
            self.seed,
            self.max_retries,
            self.max_recoveries,
            Float(self.rates.drop),
            Float(self.rates.unavailable),
            Float(self.rates.crash),
        );
        for (i, s) in self.scheduled.iter().enumerate() {
            let sep = if i == 0 { "\n    " } else { ",\n    " };
            let _ = write!(out, "{sep}{{\"kind\": \"{}\"", s.name());
            for (key, value) in s.fields() {
                let _ = write!(out, ", \"{key}\": {value}");
            }
            out.push('}');
        }
        out.push_str(if self.scheduled.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }

    /// Parses a plan from the JSON [`Self::to_json`] emits. Unknown
    /// keys are ignored; missing keys take their defaults. An integer
    /// that is negative, fractional or too large for its field is an
    /// error naming the key, never a silent truncation. A squeeze that
    /// names a `machine` is an error: squeezes are cluster-wide, and
    /// ignoring the key would widen a one-machine squeeze to every
    /// machine. So is the retired duplicate fault, bar the `"duplicate":
    /// 0.0` rate older plan files carry.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj().ok_or("fault plan must be a JSON object")?;
        let mut plan = FaultPlan::new(0);
        for (k, v) in obj {
            match k.as_str() {
                "seed" => plan.seed = int(v, "seed")?,
                "max_retries" => plan.max_retries = int(v, "max_retries")?,
                "max_recoveries" => plan.max_recoveries = int(v, "max_recoveries")?,
                "rates" => {
                    let r = v.as_obj().ok_or("rates must be an object")?;
                    for (rk, rv) in r {
                        let rate = match rk.as_str() {
                            "drop" => &mut plan.rates.drop,
                            "unavailable" => &mut plan.rates.unavailable,
                            "crash" => &mut plan.rates.crash,
                            "duplicate" if rv.as_f64() == Some(0.0) => continue,
                            "duplicate" => {
                                return Err(format!(
                                    "rates.duplicate {RETIRED_DUP}: add its rate to rates.drop"
                                ))
                            }
                            _ => continue,
                        };
                        *rate = rv
                            .as_f64()
                            .ok_or_else(|| format!("rates.{rk} must be a number"))?;
                    }
                }
                "scheduled" => {
                    let arr = v.as_arr().ok_or("scheduled must be an array")?;
                    for item in arr {
                        plan.scheduled.push(parse_spec(item)?);
                    }
                }
                _ => {}
            }
        }
        Ok(plan)
    }
}

/// Why the duplicate fault is gone, for the parser's errors.
const RETIRED_DUP: &str =
    "is retired: the exchange retried a duplicated message exactly like a dropped one";

/// Reads `v` as a non-negative integer that fits `T`; the error names
/// `key`.
fn int<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    v.as_u64().and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
        format!(
            "{key} must be a non-negative integer that fits {}",
            std::any::type_name::<T>()
        )
    })
}

fn parse_spec(v: &Value) -> Result<FaultSpec, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("scheduled fault missing kind")?;
    if kind == "duplicate" {
        return Err(format!(
            "scheduled fault kind \"duplicate\" {RETIRED_DUP}: schedule a \"drop\""
        ));
    }
    if kind == "squeeze" && v.get("machine").is_some() {
        return Err(
            "squeeze fault machine is not supported: squeezes are cluster-wide, \
             and per-machine capacity is configuration (machine_capacities)"
                .into(),
        );
    }
    let k = KINDS
        .iter()
        .position(|(name, _)| *name == kind)
        .ok_or_else(|| format!("unknown fault kind {kind:?}"))?;
    // Every other field is a non-negative integer: `attempt` a u32.
    let mut values = [0u64; 4];
    for (slot, &key) in values.iter_mut().zip(KINDS[k].1) {
        let x = v
            .get(key)
            .ok_or_else(|| format!("{kind} fault missing {key}"))?;
        let what = format!("{kind} fault {key}");
        *slot = if key == "attempt" {
            int::<u32>(x, &what)?.into()
        } else {
            int::<usize>(x, &what)? as u64
        };
    }
    Ok(FaultSpec::decode(k, values))
}

/// Greedily minimizes an explicit plan while `still_fails` keeps
/// returning true: repeatedly tries dropping each scheduled fault (and
/// zeroing each probabilistic rate), keeping any removal that preserves
/// the failure, until a fixpoint. The result is 1-minimal: removing any
/// single remaining element makes the failure disappear.
pub fn shrink_plan(plan: &FaultPlan, still_fails: impl Fn(&FaultPlan) -> bool) -> FaultPlan {
    let mut current = plan.clone();
    // Rates first: a failure that reproduces from the scheduled list
    // alone is far easier to read.
    if !current.rates.is_zero() {
        let mut zeroed = current.clone();
        zeroed.rates = FaultRates::default();
        if still_fails(&zeroed) {
            current = zeroed;
        }
    }
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.scheduled.len() {
            let mut candidate = current.clone();
            candidate.scheduled.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                removed_any = true;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::new(7);
        assert!(p.is_empty());
        for round in 0..20 {
            for machine in 0..8 {
                assert!(!p.unavailable(round, 0, machine));
                assert!(!p.dropped(round, 0, machine, 0));
            }
            assert_eq!(p.squeeze_at(round), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_functions_of_inputs() {
        let p = FaultPlan::new(42).with_rates(FaultRates {
            drop: 0.5,
            unavailable: 0.2,
            crash: 0.3,
        });
        for round in 0..10 {
            for attempt in 0..3 {
                for src in 0..6 {
                    for idx in 0..6 {
                        assert_eq!(
                            p.dropped(round, attempt, src, idx),
                            p.dropped(round, attempt, src, idx)
                        );
                    }
                    assert_eq!(
                        p.unavailable(round, attempt, src),
                        p.unavailable(round, attempt, src)
                    );
                    assert_eq!(
                        p.crashed(round, attempt, src),
                        p.crashed(round, attempt, src)
                    );
                }
            }
        }
    }

    #[test]
    fn rates_hit_at_roughly_their_probability() {
        let p = FaultPlan::new(3).with_rates(FaultRates {
            drop: 0.25,
            ..FaultRates::default()
        });
        let n = 4000;
        let hits = (0..n).filter(|&i| p.dropped(0, 0, 0, i)).count();
        let rate = hits as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn extreme_rates_are_exact() {
        let always = FaultPlan::new(1).with_rates(FaultRates {
            drop: 1.0,
            ..FaultRates::default()
        });
        let never = FaultPlan::new(1);
        for i in 0..100 {
            assert!(always.dropped(0, 0, 0, i));
            assert!(!never.dropped(0, 0, 0, i));
        }
    }

    #[test]
    fn retries_decorrelate_attempts() {
        let p = FaultPlan::new(11).with_rates(FaultRates {
            drop: 0.5,
            ..FaultRates::default()
        });
        // Some message faulted at attempt 0 must be clean at a later
        // attempt (the whole point of retrying).
        let recovered = (0..64).any(|i| p.dropped(0, 0, 0, i) && !p.dropped(0, 1, 0, i));
        assert!(recovered);
    }

    #[test]
    fn scheduled_faults_fire_exactly_where_scheduled() {
        let p = FaultPlan::new(0)
            .with_fault(FaultSpec::Drop {
                round: 2,
                attempt: 0,
                src: 1,
                msg_index: 3,
            })
            .with_fault(FaultSpec::Unavailable {
                round: 1,
                attempt: 1,
                machine: 0,
            });
        assert!(p.dropped(2, 0, 1, 3));
        assert!(!p.dropped(2, 1, 1, 3), "retry attempt is clean");
        assert!(!p.dropped(2, 0, 1, 2));
        assert!(p.unavailable(1, 1, 0));
        assert!(!p.unavailable(1, 0, 0));
    }

    #[test]
    fn squeeze_takes_effect_from_round_and_minimizes() {
        let p = FaultPlan::new(0)
            .with_fault(FaultSpec::Squeeze {
                from_round: 3,
                capacity_words: 100,
            })
            .with_fault(FaultSpec::Squeeze {
                from_round: 5,
                capacity_words: 40,
            });
        assert_eq!(p.squeeze_at(2), None);
        assert_eq!(p.squeeze_at(3), Some(100));
        assert_eq!(p.squeeze_at(5), Some(40));
        assert_eq!(p.squeeze_at(100), Some(40));
    }

    #[test]
    fn scheduled_crashes_fire_exactly_where_scheduled() {
        let p = FaultPlan::new(0).with_fault(FaultSpec::Crash {
            round: 2,
            attempt: 0,
            machine: 1,
        });
        assert!(p.can_crash());
        assert!(p.crashed(2, 0, 1));
        assert!(!p.crashed(2, 1, 1), "re-execution from checkpoint is clean");
        assert!(!p.crashed(2, 0, 0));
        assert!(!p.crashed(1, 0, 1));
        assert!(!FaultPlan::new(0).can_crash());
        assert!(FaultPlan::new(0)
            .with_rates(FaultRates {
                crash: 0.1,
                ..FaultRates::default()
            })
            .can_crash());
    }

    #[test]
    fn crash_rate_hits_at_roughly_its_probability_and_decorrelates_attempts() {
        let p = FaultPlan::new(13).with_rates(FaultRates {
            crash: 0.25,
            ..FaultRates::default()
        });
        let n = 4000;
        let hits = (0..n).filter(|&m| p.crashed(0, 0, m)).count();
        let rate = hits as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "empirical crash rate {rate}");
        // A machine crashed at attempt 0 must be able to survive a
        // re-execution (otherwise recovery could never succeed).
        let recovered = (0..64).any(|m| p.crashed(0, 0, m) && !p.crashed(0, 1, m));
        assert!(recovered);
    }

    #[test]
    fn json_round_trips() {
        let plan = FaultPlan {
            seed: u64::MAX - 3,
            max_retries: 5,
            max_recoveries: 2,
            rates: FaultRates {
                drop: 0.125,
                unavailable: 1.0,
                crash: 0.0625,
            },
            scheduled: vec![
                FaultSpec::Drop {
                    round: 0,
                    attempt: 0,
                    src: 3,
                    msg_index: 9,
                },
                FaultSpec::Drop {
                    round: 2,
                    attempt: 1,
                    src: 0,
                    msg_index: 0,
                },
                FaultSpec::Unavailable {
                    round: 4,
                    attempt: 0,
                    machine: 7,
                },
                FaultSpec::Squeeze {
                    from_round: 3,
                    capacity_words: 64,
                },
                FaultSpec::Crash {
                    round: 1,
                    attempt: 1,
                    machine: 3,
                },
            ],
        };
        let text = plan.to_json();
        // Golden bytes: the writer's output format is fixed.
        assert_eq!(
            text,
            r#"{
  "seed": 18446744073709551612,
  "max_retries": 5,
  "max_recoveries": 2,
  "rates": {"drop": 0.125, "unavailable": 1.0, "crash": 0.0625},
  "scheduled": [
    {"kind": "drop", "round": 0, "attempt": 0, "src": 3, "msg_index": 9},
    {"kind": "drop", "round": 2, "attempt": 1, "src": 0, "msg_index": 0},
    {"kind": "unavailable", "round": 4, "attempt": 0, "machine": 7},
    {"kind": "squeeze", "from_round": 3, "capacity_words": 64},
    {"kind": "crash", "round": 1, "attempt": 1, "machine": 3}
  ]
}
"#
        );
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn machine_less_squeeze_json_still_parses() {
        // A squeeze carries no "machine" key; it parses as cluster-wide.
        let text = r#"{"scheduled": [{"kind": "squeeze", "from_round": 2, "capacity_words": 32}]}"#;
        let plan = FaultPlan::from_json(text).unwrap();
        assert_eq!(
            plan.scheduled,
            vec![FaultSpec::Squeeze {
                from_round: 2,
                capacity_words: 32,
            }]
        );
    }

    /// Squeezes are cluster-wide; a `machine` key would have narrowed
    /// one to a single machine, so dropping it silently would widen it.
    #[test]
    fn machine_scoped_squeeze_json_is_rejected() {
        let text = r#"{"scheduled": [{"kind": "squeeze", "from_round": 2, "capacity_words": 32, "machine": 5}]}"#;
        let err = FaultPlan::from_json(text).unwrap_err();
        assert!(err.contains("machine"), "{err}");
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::new(9);
        assert_eq!(plan, FaultPlan::from_json(&plan.to_json()).unwrap());
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("[]").is_err());
        assert!(FaultPlan::from_json("{\"seed\": }").is_err());
        assert!(
            FaultPlan::from_json("{\"scheduled\": [{\"kind\": \"warp\", \"round\": 0}]}").is_err()
        );
        assert!(FaultPlan::from_json("{\"scheduled\": [{\"kind\": \"drop\"}]}").is_err());
        // Straggles are no longer a fault kind.
        let err = FaultPlan::from_json(
            r#"{"scheduled": [{"kind": "straggle", "round": 0, "machine": 1, "delay_ns": 10}]}"#,
        )
        .unwrap_err();
        assert!(
            err.contains("unknown fault kind") && err.contains("straggle"),
            "{err}"
        );
        // Duplicates are retired: the exchange retried them exactly like
        // drops. Each error names its key and points at `drop`.
        let err = FaultPlan::from_json(
            r#"{"scheduled": [{"kind": "duplicate", "round": 0, "attempt": 0, "src": 0, "msg_index": 1}]}"#,
        )
        .unwrap_err();
        assert!(
            err.contains("\"duplicate\"") && err.contains("\"drop\""),
            "{err}"
        );
        let err =
            FaultPlan::from_json(r#"{"rates": {"drop": 0.1, "duplicate": 0.05}}"#).unwrap_err();
        assert!(
            err.contains("rates.duplicate") && err.contains("rates.drop"),
            "{err}"
        );
    }

    /// Out-of-range and non-integer values are errors naming the key,
    /// not silent truncations or saturating casts.
    #[test]
    fn from_json_rejects_out_of_range_integers() {
        let drop = |attempt: &str| {
            format!(
                r#"{{"scheduled": [{{"kind": "drop", "round": 0, "attempt": {attempt}, "src": 0, "msg_index": 0}}]}}"#
            )
        };
        let cases = [
            (r#"{"max_retries": 4294967297}"#.to_string(), "max_retries"),
            (
                r#"{"max_recoveries": 4294967296}"#.to_string(),
                "max_recoveries",
            ),
            (r#"{"max_retries": -1}"#.to_string(), "max_retries"),
            (drop("4294967297"), "attempt"),
            (drop("1.0"), "attempt"),
            (r#"{"seed": 18446744073709551616}"#.to_string(), "seed"),
        ];
        for (text, key) in cases {
            let err = FaultPlan::from_json(&text).expect_err(&text);
            assert!(err.contains(key), "{text}: error {err:?} must name {key}");
        }
        let max =
            FaultPlan::from_json(r#"{"max_retries": 4294967295, "seed": 18446744073709551615}"#)
                .unwrap();
        assert_eq!(max.max_retries, u32::MAX);
        assert_eq!(max.seed, u64::MAX);
    }

    #[test]
    fn from_events_reconstructs_specs_and_skips_recoveries() {
        let drop = FaultSpec::Drop {
            round: 1,
            attempt: 0,
            src: 2,
            msg_index: 5,
        };
        let squeeze = |from_round, capacity_words| FaultSpec::Squeeze {
            from_round,
            capacity_words,
        };
        let crash = FaultSpec::Crash {
            round: 4,
            attempt: 0,
            machine: 1,
        };
        let events = [
            FaultEvent::Injected(drop),
            FaultEvent::Injected(squeeze(2, 99)),
            FaultEvent::Injected(squeeze(2, 99)),
            FaultEvent::Injected(squeeze(3, 17)),
            FaultEvent::Injected(crash),
            FaultEvent::Recovered {
                round: 4,
                attempt: 1,
                machine: 1,
                words: 64,
            },
        ];
        let plan = FaultPlan::from_events(&events, 2);
        assert_eq!(
            plan.scheduled,
            vec![drop, squeeze(2, 99), squeeze(3, 17), crash]
        );
        assert_eq!(plan.max_retries, 2);
        assert!(plan.rates.is_zero());
    }

    #[test]
    fn shrink_finds_the_single_culprit() {
        // Failure reproduces iff the plan contains the round-3 drop.
        let culprit = FaultSpec::Drop {
            round: 3,
            attempt: 0,
            src: 1,
            msg_index: 0,
        };
        let mut plan = FaultPlan::new(5).with_rates(FaultRates {
            unavailable: 0.2,
            ..FaultRates::default()
        });
        for r in 0..6 {
            plan.scheduled.push(FaultSpec::Unavailable {
                round: r,
                attempt: 0,
                machine: 0,
            });
        }
        plan.scheduled.insert(3, culprit);
        let shrunk = shrink_plan(&plan, |p| p.scheduled.contains(&culprit));
        assert_eq!(shrunk.scheduled, vec![culprit]);
        assert!(shrunk.rates.is_zero());
    }

    #[test]
    fn shrink_isolates_a_crash_spec_among_noise() {
        // Failure reproduces iff the plan still schedules the round-2
        // crash on machine 1 — the crash-spec analogue of the drop case.
        let culprit = FaultSpec::Crash {
            round: 2,
            attempt: 0,
            machine: 1,
        };
        let mut plan = FaultPlan::new(9).with_rates(FaultRates {
            crash: 0.05,
            ..FaultRates::default()
        });
        for r in 0..5 {
            plan.scheduled.push(FaultSpec::Crash {
                round: r,
                attempt: 0,
                machine: 0,
            });
            plan.scheduled.push(FaultSpec::Squeeze {
                from_round: r + 10,
                capacity_words: 1 << 12,
            });
        }
        plan.scheduled.insert(4, culprit);
        let shrunk = shrink_plan(&plan, |p| p.scheduled.contains(&culprit));
        assert_eq!(shrunk.scheduled, vec![culprit]);
        assert!(shrunk.rates.is_zero(), "crash rate must be shrunk away");
    }

    #[test]
    fn for_attempt_zero_is_identity_and_later_reseeds() {
        let plan = FaultPlan::new(77).with_fault(FaultSpec::Unavailable {
            round: 0,
            attempt: 0,
            machine: 1,
        });
        assert_eq!(plan.for_attempt(0), plan);
        let a1 = plan.for_attempt(1);
        assert_ne!(a1.seed, plan.seed);
        assert_eq!(a1.scheduled, plan.scheduled);
        assert_eq!(plan.for_attempt(1), plan.for_attempt(1));
        assert_ne!(plan.for_attempt(1).seed, plan.for_attempt(2).seed);
    }
}
