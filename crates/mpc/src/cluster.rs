//! The simulated cluster: distributed collections and the round
//! primitive.

use crate::config::{MpcConfig, RuntimeBuilder};
use crate::error::{CapacityPhase, MpcError, MpcResult};
use crate::exec;
use crate::fault::{FaultEvent, FaultPlan, FaultSpec};
use crate::metrics::{Metrics, RoundStats};
use crate::words::{self, Words};

/// Identifier of a machine, `0..num_machines`.
pub type MachineId = usize;

/// A distributed collection: one shard (`Vec<T>`) per machine.
#[derive(Debug, Clone)]
pub struct Dist<T> {
    parts: Vec<Vec<T>>,
}

impl<T> Dist<T> {
    /// Wraps explicit shards.
    pub fn from_parts(parts: Vec<Vec<T>>) -> Self {
        Self { parts }
    }

    /// Number of machines the collection spans.
    pub fn num_machines(&self) -> usize {
        self.parts.len()
    }

    /// Shard of machine `i`.
    pub fn part(&self, i: MachineId) -> &[T] {
        &self.parts[i]
    }

    /// All shards.
    pub fn parts(&self) -> &[Vec<T>] {
        &self.parts
    }

    /// Consumes the collection, yielding its shards.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// Total number of records across the cluster.
    pub fn total_len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }
}

impl<T: Words> Dist<T> {
    /// Total resident words across the cluster.
    pub fn total_words(&self) -> usize {
        self.parts.iter().map(|p| words::of_slice(p)).sum()
    }

    /// Largest shard in words.
    pub fn max_part_words(&self) -> usize {
        self.parts
            .iter()
            .map(|p| words::of_slice(p))
            .max()
            .unwrap_or(0)
    }
}

/// Outgoing-message buffer handed to round closures.
///
/// Messages are queued in one vector in emission order, so delivery
/// moves every record once more, straight into its destination's shard.
pub struct Emitter<U> {
    /// Cluster size: a destination at or past it is a bad destination.
    machines: usize,
    /// Messages to machines in the cluster, in emission order.
    msgs: Vec<(MachineId, U)>,
    /// Messages sent, including any to a nonexistent machine.
    sent: usize,
    /// The first destination outside the cluster, in emission order.
    bad_dest: Option<MachineId>,
    out_words: usize,
}

impl<U: Words> Emitter<U> {
    fn new(machines: usize) -> Self {
        Self {
            machines,
            msgs: Vec::new(),
            sent: 0,
            bad_dest: None,
            out_words: 0,
        }
    }

    /// Queues `rec` for delivery to machine `to` at the end of the round.
    /// A destination outside the cluster fails the round.
    pub fn send(&mut self, to: MachineId, rec: U) {
        self.out_words += rec.words();
        self.sent += 1;
        if to < self.machines {
            self.msgs.push((to, rec));
        } else {
            self.bad_dest.get_or_insert(to);
        }
    }
}

/// Fault-injection state attached to a runtime (see [`crate::fault`]).
struct FaultState {
    plan: FaultPlan,
    log: Vec<FaultEvent>,
}

/// The simulated MPC runtime: executes rounds, enforces capacity, and
/// meters everything. Constructed through [`Runtime::builder`].
pub struct Runtime {
    cfg: MpcConfig,
    metrics: Metrics,
    /// Per-machine words pinned by accounted broadcasts (e.g. replicated
    /// grids): charged against capacity and total space in every
    /// subsequent round.
    overlay_words: usize,
    /// Deterministic fault injection; `None` (the default) costs one
    /// never-taken branch per decision point.
    faults: Option<Box<FaultState>>,
}

impl Runtime {
    /// Starts building a runtime — the one supported construction path.
    ///
    /// ```
    /// use treeemb_mpc::{MpcConfig, Runtime};
    /// let rt = Runtime::builder()
    ///     .config(MpcConfig::explicit(1024, 256, 4))
    ///     .build();
    /// assert_eq!(rt.num_machines(), 4);
    /// ```
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Builds a runtime from fully resolved parts (the builder's
    /// terminal step).
    pub(crate) fn from_resolved(cfg: MpcConfig, plan: Option<FaultPlan>) -> Self {
        Self {
            cfg,
            metrics: Metrics::new(),
            overlay_words: 0,
            faults: plan.map(|plan| {
                Box::new(FaultState {
                    plan,
                    log: Vec::new(),
                })
            }),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.cfg.num_machines
    }

    /// Minimum effective per-machine capacity across the cluster at the
    /// current round: the smallest configured capacity (after
    /// heterogeneous overrides), further shrunk by any capacity squeeze
    /// an attached fault plan has in force. Capacity-driven sizing plans
    /// against this bound.
    pub fn capacity(&self) -> usize {
        self.squeezed(self.cfg.min_capacity_words())
    }

    /// Effective capacity of one machine at the current round (its
    /// configured capacity shrunk by any squeeze in force).
    pub fn capacity_of(&self, machine: MachineId) -> usize {
        self.squeezed(self.cfg.capacity_of(machine))
    }

    /// `configured` capped by the squeeze in force at the current round.
    fn squeezed(&self, configured: usize) -> usize {
        self.faults
            .as_ref()
            .and_then(|f| f.plan.squeeze_at(self.metrics.rounds()))
            .map_or(configured, |cap| cap.min(configured))
    }

    /// Effective capacities of every machine at the current round.
    fn capacities(&self) -> Vec<usize> {
        (0..self.cfg.num_machines)
            .map(|i| self.capacity_of(i))
            .collect()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Every fault injected so far, in deterministic order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], |f| &f.log)
    }

    /// Drains the fault log (the plan stays attached).
    pub fn take_fault_log(&mut self) -> Vec<FaultEvent> {
        self.faults
            .as_mut()
            .map_or_else(Vec::new, |f| std::mem::take(&mut f.log))
    }

    /// Records the capacity squeeze an attached fault plan has in force
    /// (at most one event per round index). Called by every entry point
    /// that consults capacities, so the fault log names the squeeze no
    /// matter where the squeezed run fails. Heterogeneous *configured*
    /// capacities are not faults and are never logged here.
    fn note_squeeze(&mut self) {
        let round = self.metrics.rounds();
        let Some(sq) = self.faults.as_ref().and_then(|f| f.plan.squeeze_at(round)) else {
            return;
        };
        let cap = sq.min(self.cfg.capacity_words);
        let logged = self.fault_log().iter().any(|e| {
            matches!(e, FaultEvent::Injected(FaultSpec::Squeeze { from_round, .. })
                     if *from_round == round)
        });
        if cap < self.cfg.capacity_words && !logged {
            self.record_fault(FaultEvent::Injected(FaultSpec::Squeeze {
                from_round: round,
                capacity_words: cap,
            }));
        }
    }

    /// Appends a fault event to the log and, when tracing, marks it as
    /// `fault.<name>` (or `recover.ok`) with `round` and `attempt` first.
    fn record_fault(&mut self, ev: FaultEvent) {
        if treeemb_obs::enabled() {
            let (name, args) = match ev {
                FaultEvent::Injected(spec) => {
                    let (round, attempt) = spec.at();
                    let mut args = vec![("round", round as u64), ("attempt", attempt as u64)];
                    args.extend(
                        spec.fields()
                            .filter(|(k, _)| !matches!(*k, "round" | "attempt")),
                    );
                    (format!("fault.{}", spec.name()), args)
                }
                FaultEvent::Recovered {
                    round,
                    attempt,
                    machine,
                    words,
                } => {
                    let args = vec![
                        ("round", round as u64),
                        ("attempt", attempt as u64),
                        ("machine", machine as u64),
                        ("words", words),
                    ];
                    ("recover.ok".to_string(), args)
                }
            };
            treeemb_obs::mark(name, &args);
        }
        if let Some(f) = &mut self.faults {
            f.log.push(ev);
        }
    }

    /// Loads host data onto the cluster as contiguous blocks in input
    /// order, balanced by words. Mirrors the MPC convention that the
    /// input arrives pre-distributed; it does not count as a round.
    ///
    /// Placement is *water-filled*: machine `i` gets the quota
    /// `min(cap_i, L)`, where `cap_i` is its effective capacity and `L`
    /// the smallest level at which the quotas add up to the input's
    /// words. Each machine takes records until it reaches its quota and
    /// never past its capacity; it also takes every record the machines
    /// after it could not hold, so placement succeeds whenever any
    /// contiguous placement exists. On a uniform cluster every shard
    /// holds at most `⌈words/M⌉` plus one record's words.
    ///
    /// Fails if a single record exceeds every machine's capacity or the
    /// cluster's space cannot hold the input.
    pub fn distribute<T: Words + Send>(&mut self, items: Vec<T>) -> MpcResult<Dist<T>> {
        let mut sp = treeemb_obs::span!("mpc.distribute", "items" = items.len());
        self.note_squeeze();
        let caps = self.capacities();
        let max_cap = caps.iter().copied().max().unwrap_or(0);
        let m = self.num_machines();
        let widths: Vec<usize> = items.iter().map(Words::words).collect();
        let quota = water_level_quotas(&caps, widths.iter().sum());
        // must_reach[i]: the records before this index cannot fit on
        // machines i.. (contiguous packing from the back), so machines
        // < i must hold them.
        let mut must_reach = vec![widths.len(); m + 1];
        for i in (0..m).rev() {
            let (mut j, mut used) = (must_reach[i + 1], 0usize);
            while j > 0 && used + widths[j - 1] <= caps[i] {
                j -= 1;
                used += widths[j];
            }
            must_reach[i] = j;
        }
        let mut parts: Vec<Vec<T>> = (0..m).map(|_| Vec::new()).collect();
        let mut machine = 0usize;
        let mut used = 0usize;
        for (j, item) in items.into_iter().enumerate() {
            let w = widths[j];
            if w > max_cap {
                return Err(MpcError::CapacityExceeded {
                    machine,
                    round: self.metrics.rounds(),
                    phase: CapacityPhase::Input,
                    words: w,
                    capacity: max_cap,
                    label: "distribute".into(),
                });
            }
            // Close machines that reached their quota (and hold what the
            // machines after them cannot) or that cannot fit the record.
            while machine < m
                && (used + w > caps[machine]
                    || (used >= quota[machine] && j >= must_reach[machine + 1]))
            {
                machine += 1;
                used = 0;
            }
            if machine >= m {
                return Err(MpcError::CapacityExceeded {
                    machine: m - 1,
                    round: self.metrics.rounds(),
                    phase: CapacityPhase::Input,
                    words: caps[m - 1] + w,
                    capacity: caps[m - 1],
                    label: "distribute (cluster full)".into(),
                });
            }
            used += w;
            parts[machine].push(item);
        }
        let dist = Dist::from_parts(parts);
        self.metrics.record_total_resident(dist.total_words());
        sp.arg("total_words", dist.total_words() as u64);
        Ok(dist)
    }

    /// Executes one communication round.
    ///
    /// Each machine `i` runs `f(i, local_shard, emitter)` concurrently,
    /// returning the records it *keeps*; records passed to
    /// [`Emitter::send`] are routed to their destinations. A machine's
    /// shard in the output collection is its kept records followed by
    /// received records in source-machine order (deterministic).
    ///
    /// Capacity checks, per machine against its effective capacity:
    /// input ≤ s, sent ≤ s, received ≤ s, kept + received ≤ s. An
    /// overrun is [`MpcError::CapacityExceeded`].
    ///
    /// **Crash recovery.** When the attached fault plan can crash a
    /// machine ([`FaultPlan::can_crash`]) the round's input is
    /// snapshotted before execution, word-metered against total space.
    /// A machine that crashes (loses its shard; a scheduled
    /// [`Crash`](crate::fault::FaultSpec::Crash) or the plan's crash
    /// rate) is re-executed from the snapshot —
    /// determinism makes the replay bit-identical — up to the plan's
    /// `max_recoveries` budget; each restore is logged as a
    /// [`FaultEvent::Recovered`] event and counted in
    /// [`RoundStats::recoveries`]. A machine that crashes through the
    /// whole budget fails the round with the typed, retryable
    /// [`MpcError::RecoveryExhausted`].
    pub fn round<T, U, F>(&mut self, label: &str, input: Dist<T>, f: F) -> MpcResult<Dist<U>>
    where
        T: Words + Send + Clone,
        U: Words + Send,
        F: Fn(MachineId, Vec<T>, &mut Emitter<U>) -> Vec<U> + Sync,
    {
        let m = self.num_machines();
        assert_eq!(
            input.num_machines(),
            m,
            "collection spans a different cluster"
        );
        let round_idx = self.metrics.rounds();
        let t_start_ns = treeemb_obs::now_ns();
        let mut sp = treeemb_obs::Span::enter_with(|| format!("mpc.round:{label}"));
        sp.arg("round", round_idx as u64);

        // Fault injection: a small cloned snapshot of the plan lets the
        // borrow of `self` stay free for event recording; the clone only
        // happens when a plan is attached.
        let plan: Option<FaultPlan> = self.faults.as_ref().map(|f| f.plan.clone());
        let log_mark = self.faults.as_ref().map_or(0, |f| f.log.len());
        self.note_squeeze();
        let caps = self.capacities();

        // Phase 1: input capacity check.
        let mut worst_input: Option<(usize, usize)> = None;
        for (i, p) in input.parts().iter().enumerate() {
            let w = words::of_slice(p);
            if w > caps[i] && worst_input.is_none_or(|(_, ww)| w > ww) {
                worst_input = Some((i, w));
            }
        }
        if let Some((i, w)) = worst_input {
            return Err(MpcError::CapacityExceeded {
                machine: i,
                round: round_idx,
                phase: CapacityPhase::Input,
                words: w,
                capacity: caps[i],
                label: label.into(),
            });
        }

        // Phase 1b: checkpoint + crash planning. When the plan can crash
        // a machine the round input is (conceptually) snapshotted in
        // full and metered against total space; only crashed machines'
        // shards are actually cloned below. Crash decisions are pure
        // functions of the plan, so the whole recovery schedule can be
        // resolved up front: machine `i` crashes on executions
        // `0..crashes[i]` and completes on execution `crashes[i]`.
        let crash_plan = plan.as_ref().filter(|p| p.can_crash());
        let checkpoint_words = if crash_plan.is_some() {
            input.total_words()
        } else {
            0
        };
        let mut crashes: Vec<u32> = vec![0; m];
        if let Some(p) = crash_plan {
            for (machine, crash_count) in crashes.iter_mut().enumerate() {
                let mut k = 0u32;
                while k <= p.max_recoveries && p.crashed(round_idx, k, machine) {
                    k += 1;
                }
                if k == 0 {
                    continue;
                }
                for attempt in 0..k {
                    self.record_fault(FaultEvent::Injected(FaultSpec::Crash {
                        round: round_idx,
                        attempt,
                        machine,
                    }));
                }
                if k > p.max_recoveries {
                    if treeemb_obs::enabled() {
                        treeemb_obs::mark(
                            "recover.exhausted",
                            &[
                                ("round", round_idx as u64),
                                ("machine", machine as u64),
                                ("attempts", k as u64),
                            ],
                        );
                    }
                    return Err(MpcError::RecoveryExhausted {
                        round: round_idx,
                        label: label.into(),
                        machine,
                        attempts: k,
                    });
                }
                self.record_fault(FaultEvent::Recovered {
                    round: round_idx,
                    attempt: k,
                    machine,
                    words: words::of_slice(input.part(machine)) as u64,
                });
                *crash_count = k;
            }
        }
        let recoveries: u32 = crashes.iter().sum();

        // Phase 2: run machines concurrently. A crashed machine really
        // executes `f` once per lost attempt (the work is discarded,
        // modeling lost compute) and once more from the checkpoint
        // snapshot for its surviving output.
        let crashes_ref = &crashes;
        let work: Vec<(Vec<T>, Option<Vec<T>>)> = input
            .into_parts()
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let snap = (crashes_ref[i] > 0).then(|| shard.clone());
                (shard, snap)
            })
            .collect();
        let outputs: Vec<MachineOut<U>> =
            exec::par_map_indexed(work, self.cfg.threads, |i, (shard, snap)| {
                let k = crashes_ref[i];
                if k == 0 {
                    let mut em = Emitter::new(m);
                    let kept = f(i, shard, &mut em);
                    return MachineOut { kept, em };
                }
                let snap = snap.expect("snapshot exists for crashed machines");
                {
                    let mut scratch = Emitter::new(m);
                    let _ = f(i, shard, &mut scratch);
                }
                for _ in 1..k {
                    let mut scratch = Emitter::new(m);
                    let _ = f(i, snap.clone(), &mut scratch);
                }
                let mut em = Emitter::new(m);
                let kept = f(i, snap, &mut em);
                MachineOut { kept, em }
            });

        // Phase 2b: the exchange attempt loop. Transient faults (machine
        // unavailability, message drops) are detected by the
        // simulated exchange protocol and the whole exchange retries,
        // re-transmitting from the already-computed
        // machine outputs. A clean attempt therefore delivers exactly the
        // fault-free message sequence — downstream state is bit-identical
        // — and exhausting the retry budget surfaces as the typed
        // `RetriesExhausted`, never as silently corrupted output.
        let mut attempts = 1u32;
        if let Some(p) = plan.as_ref().filter(|p| !p.is_empty()) {
            let max_attempts = p.max_retries.saturating_add(1);
            let (round, mut attempt) = (round_idx, 0u32);
            loop {
                let mut events: Vec<FaultSpec> = (0..m)
                    .filter(|&machine| p.unavailable(round, attempt, machine))
                    .map(|machine| FaultSpec::Unavailable {
                        round,
                        attempt,
                        machine,
                    })
                    .collect();
                if events.is_empty() {
                    // All machines up: scan the exchange for drops, in
                    // (source, emission index) order.
                    for (src, out) in outputs.iter().enumerate() {
                        events.extend(
                            (0..out.em.sent)
                                .filter(|&msg_index| p.dropped(round, attempt, src, msg_index))
                                .map(|msg_index| FaultSpec::Drop {
                                    round,
                                    attempt,
                                    src,
                                    msg_index,
                                }),
                        );
                    }
                }
                if events.is_empty() {
                    attempts = attempt + 1;
                    break;
                }
                for spec in events {
                    self.record_fault(FaultEvent::Injected(spec));
                }
                if attempt + 1 >= max_attempts {
                    sp.arg("attempts", max_attempts as u64);
                    return Err(MpcError::RetriesExhausted {
                        round: round_idx,
                        label: label.into(),
                        attempts: max_attempts,
                    });
                }
                attempt += 1;
            }
        }

        // Phase 3: validate sends and deliver messages.
        let Delivery {
            parts,
            sent_total,
            max_out,
            max_in,
            max_resident,
        } = deliver(
            outputs,
            &ExchangeCtx {
                label,
                round: round_idx,
                caps: &caps,
                overlay_words: self.overlay_words,
            },
        )?;

        sp.arg("sent_words", sent_total as u64);
        sp.arg("max_out_words", max_out as u64);
        sp.arg("max_in_words", max_in as u64);
        sp.arg("max_resident_words", max_resident as u64);
        if recoveries > 0 {
            sp.arg("recoveries", recoveries as u64);
        }
        self.metrics.record_round(RoundStats {
            round: round_idx,
            label: label.into(),
            sent_words: sent_total,
            max_out_words: max_out,
            max_in_words: max_in,
            max_resident_words: max_resident,
            t_start_ns,
            t_end_ns: treeemb_obs::now_ns(),
            attempts,
            faults: self.faults.as_ref().map_or(0, |f| f.log.len() - log_mark),
            recoveries,
            checkpoint_words,
        });
        let dist = Dist::from_parts(parts);
        // The checkpoint coexists with the round's live data until the
        // round commits, so it counts against total space.
        self.metrics
            .record_total_resident(dist.total_words() + checkpoint_words + self.overlay_words * m);
        Ok(dist)
    }

    /// Machine-local transformation with **no communication**. Does not
    /// advance the round counter: in the MPC model, local computation
    /// fuses into the surrounding communication rounds. Output residency
    /// is still metered and capacity-checked.
    pub fn map_local<T, U, F>(&mut self, input: Dist<T>, f: F) -> MpcResult<Dist<U>>
    where
        T: Words + Send,
        U: Words + Send,
        F: Fn(MachineId, Vec<T>) -> Vec<U> + Sync,
    {
        let mut sp = treeemb_obs::span!("mpc.map_local", "items" = input.total_len());
        self.note_squeeze();
        let caps = self.capacities();
        let parts = exec::par_map_indexed(input.into_parts(), self.cfg.threads, f);
        let dist = Dist::from_parts(parts);
        sp.arg("out_words", dist.total_words() as u64);
        for (i, p) in dist.parts().iter().enumerate() {
            let w = words::of_slice(p);
            if w > caps[i] {
                return Err(MpcError::CapacityExceeded {
                    machine: i,
                    round: self.metrics.rounds(),
                    phase: CapacityPhase::Residency,
                    words: w,
                    capacity: caps[i],
                    label: "map_local".into(),
                });
            }
        }
        self.metrics.record_total_resident(dist.total_words());
        Ok(dist)
    }

    /// Pins `words` of per-machine overlay residency (replicated payloads
    /// such as broadcast grids). Charged in every later round's capacity
    /// check and in the total-space meter.
    pub fn metrics_record_replicated(&mut self, words: usize) {
        self.overlay_words += words;
        self.metrics.bump_peak_machine(self.overlay_words);
        self.metrics
            .record_total_resident(self.overlay_words * self.cfg.num_machines);
    }

    /// Records an *accounted* round: a communication round whose loads
    /// are known analytically, without materializing the data. Used by
    /// collectives that would otherwise replicate identical payloads
    /// across every simulated machine (e.g. grid broadcasts), where
    /// materialization adds memory pressure but no fidelity — the round
    /// count, load metering, and capacity checks are identical. Loads
    /// are checked against the cluster-minimum capacity (conservative on
    /// heterogeneous clusters: the stated loads are per-machine maxima).
    ///
    /// Fails with [`MpcError::CapacityExceeded`] if any stated load
    /// exceeds capacity.
    pub fn record_accounted_round(
        &mut self,
        label: &str,
        sent_words: usize,
        max_out_words: usize,
        max_in_words: usize,
        max_resident_words: usize,
    ) -> MpcResult<()> {
        self.note_squeeze();
        let cap = self.capacity();
        let round = self.metrics.rounds();
        for (phase, words) in [
            (CapacityPhase::Send, max_out_words),
            (CapacityPhase::Receive, max_in_words),
            (CapacityPhase::Residency, max_resident_words),
        ] {
            if words > cap {
                return Err(MpcError::CapacityExceeded {
                    machine: 0,
                    round,
                    phase,
                    words,
                    capacity: cap,
                    label: label.into(),
                });
            }
        }
        if treeemb_obs::enabled() {
            treeemb_obs::mark(
                format!("mpc.round:{label} (accounted)"),
                &[
                    ("round", round as u64),
                    ("sent_words", sent_words as u64),
                    ("max_out_words", max_out_words as u64),
                    ("max_resident_words", max_resident_words as u64),
                ],
            );
        }
        let now = treeemb_obs::now_ns();
        self.metrics.record_round(RoundStats {
            round,
            label: label.into(),
            sent_words,
            max_out_words,
            max_in_words,
            max_resident_words,
            t_start_ns: now,
            t_end_ns: now,
            attempts: 1,
            faults: 0,
            recoveries: 0,
            checkpoint_words: 0,
        });
        Ok(())
    }

    /// Extracts a distributed collection to the host in machine order.
    /// This models reading off the final output and is not an MPC round.
    pub fn gather<T>(&mut self, input: Dist<T>) -> Vec<T> {
        let _sp = treeemb_obs::span!("mpc.gather", "items" = input.total_len());
        let mut out = Vec::with_capacity(input.total_len());
        for part in input.into_parts() {
            out.extend(part);
        }
        out
    }
}

/// One machine's output of a round's compute phase.
struct MachineOut<U> {
    kept: Vec<U>,
    em: Emitter<U>,
}

/// The round context the exchange validates against.
struct ExchangeCtx<'a> {
    label: &'a str,
    round: usize,
    /// Effective capacity per machine.
    caps: &'a [usize],
    overlay_words: usize,
}

impl ExchangeCtx<'_> {
    /// Checks `words` against `machine`'s capacity: over capacity is
    /// [`MpcError::CapacityExceeded`].
    fn check(&self, machine: MachineId, phase: CapacityPhase, words: usize) -> MpcResult<()> {
        if words > self.caps[machine] {
            return Err(MpcError::CapacityExceeded {
                machine,
                round: self.round,
                phase,
                words,
                capacity: self.caps[machine],
                label: self.label.into(),
            });
        }
        Ok(())
    }
}

/// What a round's exchange delivered, and the loads it metered.
struct Delivery<U> {
    parts: Vec<Vec<U>>,
    sent_total: usize,
    max_out: usize,
    max_in: usize,
    max_resident: usize,
}

/// Delivers a round's messages. Machine `i`'s shard is its kept records,
/// then the records sent to it by sources in ascending order, each
/// source's in emission order; every record is moved once and never
/// cloned. Checks run in a fixed order — per source its send load then
/// its first bad destination, then every receive load, then every
/// residency — so a failing round reports the same error at any thread
/// count.
fn deliver<U: Words>(
    mut outputs: Vec<MachineOut<U>>,
    ctx: &ExchangeCtx<'_>,
) -> MpcResult<Delivery<U>> {
    let m = ctx.caps.len();
    let messages: usize = outputs.iter().map(|o| o.em.sent).sum();
    let _sp = treeemb_obs::span!("mpc.exchange", "messages" = messages);

    let (mut sent_total, mut max_out) = (0usize, 0usize);
    let mut counts = vec![0usize; m];
    let mut in_words = vec![0usize; m];
    for (src, out) in outputs.iter().enumerate() {
        let words = out.em.out_words;
        ctx.check(src, CapacityPhase::Send, words)?;
        sent_total += words;
        max_out = max_out.max(words);
        if let Some(dest) = out.em.bad_dest {
            return Err(MpcError::BadDestination {
                source: src,
                dest,
                num_machines: m,
            });
        }
        for (dest, rec) in &out.em.msgs {
            counts[*dest] += 1;
            in_words[*dest] += rec.words();
        }
    }
    let max_in = in_words.iter().copied().max().unwrap_or(0);
    for (dest, &w) in in_words.iter().enumerate() {
        ctx.check(dest, CapacityPhase::Receive, w)?;
    }
    let mut max_resident = 0usize;
    for (i, out) in outputs.iter().enumerate() {
        let resident = words::of_slice(&out.kept) + in_words[i] + ctx.overlay_words;
        max_resident = max_resident.max(resident);
        ctx.check(i, CapacityPhase::Residency, resident)?;
    }

    let mut parts: Vec<Vec<U>> = outputs
        .iter_mut()
        .zip(counts)
        .map(|(out, count)| {
            let mut shard = std::mem::take(&mut out.kept);
            shard.reserve(count);
            shard
        })
        .collect();
    for (dest, rec) in outputs.into_iter().flat_map(|o| o.em.msgs) {
        parts[dest].push(rec);
    }
    Ok(Delivery {
        parts,
        sent_total,
        max_out,
        max_in,
        max_resident,
    })
}

/// Water-filled per-machine quotas for `total` words: `min(cap_i, L)`
/// with `L` the smallest level whose quotas sum to at least `total`
/// (every capacity, when even the full cluster is too small).
fn water_level_quotas(caps: &[usize], total: usize) -> Vec<usize> {
    let filled = |level: usize| caps.iter().map(|&c| c.min(level)).sum::<usize>();
    let (mut lo, mut hi) = (0usize, caps.iter().copied().max().unwrap_or(0));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if filled(mid) >= total {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    caps.iter().map(|&c| c.min(lo)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use treeemb_linalg::random::mix2;

    fn small_rt(cap: usize, machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(64, cap, machines).with_threads(4))
            .build()
    }

    #[test]
    fn distribute_balances_by_words() {
        // 10 words over 8 machines: the water level is 2, so 5 machines
        // hold 2 records each, in input order, and the rest stay empty.
        let mut rt = small_rt(4, 8);
        let dist = rt.distribute((0..10u64).collect()).unwrap();
        let lens: Vec<usize> = dist.parts().iter().map(Vec::len).collect();
        assert_eq!(lens, [2, 2, 2, 2, 2, 0, 0, 0]);
        assert_eq!(dist.part(0), &[0, 1]);
        assert_eq!(dist.part(4), &[8, 9]);
    }

    #[test]
    fn distribute_takes_what_later_machines_cannot_hold() {
        // Capacities [10, 4, 4] and 14 words give quotas [6, 4, 4].
        // Machine 0 reaches its quota after six 1-word records, but the
        // 4-word machines cannot hold the trailing 3 + 3 + 2 words, so
        // machine 0 also takes the first 3-word record.
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(12, 4, 3).with_machine_capacity(0, 10))
            .build();
        let widths = [1usize, 1, 1, 1, 1, 1, 3, 3, 2];
        let recs: Vec<Vec<u64>> = widths.iter().map(|&w| vec![7; w - 1]).collect();
        let dist = rt.distribute(recs).unwrap();
        let lens: Vec<usize> = dist.parts().iter().map(Vec::len).collect();
        assert_eq!(lens, [7, 1, 1]);
    }

    #[test]
    fn distribute_fails_when_cluster_full() {
        let mut rt = small_rt(4, 2);
        let err = rt.distribute((0..100u64).collect()).unwrap_err();
        assert!(matches!(err, MpcError::CapacityExceeded { .. }));
    }

    #[test]
    fn distribute_respects_heterogeneous_capacities() {
        let mut rt = Runtime::builder()
            .config(
                MpcConfig::explicit(24, 8, 3)
                    .with_machine_capacity(0, 2)
                    .with_threads(2),
            )
            .build();
        // Water level 5: machine 0's quota is its 2-word capacity.
        let dist = rt.distribute((0..12u64).collect()).unwrap();
        let lens: Vec<usize> = dist.parts().iter().map(Vec::len).collect();
        assert_eq!(lens, [2, 5, 5]);
    }

    /// Test oracle: whether filling machines greedily in input order
    /// places every record.
    fn greedy_fits(caps: &[usize], widths: &[usize]) -> bool {
        let (mut machine, mut used) = (0usize, 0usize);
        for &w in widths {
            while machine < caps.len() && used + w > caps[machine] {
                machine += 1;
                used = 0;
            }
            if machine == caps.len() {
                return false;
            }
            used += w;
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn distribute_is_contiguous_bounded_and_balanced(
            widths in collection::vec(1usize..=8, 0..80),
            machines in 1usize..12,
            cap in 8usize..40,
            overrides in collection::vec((0usize..12, 1usize..40), 0..4),
            squeeze in (0usize..2, 2usize..30),
        ) {
            let mut cfg = MpcConfig::explicit(cap * machines, cap, machines);
            for &(machine, words) in overrides.iter().filter(|o| o.0 < machines) {
                cfg = cfg.with_machine_capacity(machine, words);
            }
            let mut b = Runtime::builder().config(cfg);
            let (squeezed, words) = squeeze;
            if squeezed == 1 {
                b = b.fault_plan(FaultPlan::new(3).with_fault(FaultSpec::Squeeze {
                    from_round: 0,
                    capacity_words: words,
                }));
            }
            let mut rt = b.build();
            let caps: Vec<usize> = (0..machines).map(|i| rt.capacity_of(i)).collect();
            let recs: Vec<Vec<u64>> = widths
                .iter()
                .enumerate()
                .map(|(i, &w)| vec![i as u64; w - 1])
                .collect();
            let greedy = greedy_fits(&caps, &widths);
            let Ok(dist) = rt.distribute(recs.clone()) else {
                prop_assert!(!greedy, "greedy placed {widths:?} on {caps:?}");
                return Ok(());
            };
            prop_assert!(greedy, "placed {widths:?} on {caps:?}, greedy could not");
            for (i, part) in dist.parts().iter().enumerate() {
                prop_assert!(words::of_slice(part) <= caps[i]);
            }
            let shard_max = dist.max_part_words();
            prop_assert_eq!(rt.gather(dist), recs);
            if overrides.is_empty() && squeezed == 0 {
                let total: usize = widths.iter().sum();
                let bound = total.div_ceil(machines) + widths.iter().max().unwrap_or(&0);
                prop_assert!(shard_max <= bound, "{shard_max} > {bound}");
            }
        }
    }

    #[test]
    fn round_routes_messages_deterministically() {
        let mut rt = small_rt(64, 4);
        let dist = rt.distribute((0..16u64).collect()).unwrap();
        // Send every record to machine (value % 4); keep nothing.
        let out = rt
            .round("route", dist, |_, shard, em| {
                for v in shard {
                    em.send((v % 4) as usize, v);
                }
                Vec::new()
            })
            .unwrap();
        for m in 0..4 {
            let vals = out.part(m);
            assert!(vals.iter().all(|v| (*v % 4) as usize == m));
            // Source-order delivery keeps values ascending here.
            let mut sorted = vals.to_vec();
            sorted.sort_unstable();
            assert_eq!(vals, &sorted[..]);
        }
        assert_eq!(rt.metrics().rounds(), 1);
        assert_eq!(rt.metrics().total_sent_words(), 16);
    }

    #[test]
    fn round_keep_retains_local_data() {
        let mut rt = small_rt(64, 2);
        let dist = rt.distribute(vec![1u64, 2, 3]).unwrap();
        let out = rt
            .round("keep", dist, |_, shard, _em: &mut Emitter<u64>| shard)
            .unwrap();
        assert_eq!(out.total_len(), 3);
        assert_eq!(rt.metrics().total_sent_words(), 0);
    }

    #[test]
    fn send_capacity_violation_is_an_error() {
        let mut rt = small_rt(4, 4);
        let dist = rt.distribute(vec![0u64]).unwrap();
        let err = rt
            .round("flood", dist, |id, shard, em| {
                if id == 0 {
                    for i in 0..100u64 {
                        em.send(1, i);
                    }
                }
                shard
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                MpcError::CapacityExceeded {
                    phase: CapacityPhase::Send,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn receive_overflow_detected() {
        let mut rt = small_rt(8, 4);
        let dist = rt.distribute((0..24u64).collect()).unwrap();
        // All machines flood machine 0: each sends 6 <= 8 (ok) but
        // machine 0 receives 24 > 8, which fails the round unmetered.
        let err = rt
            .round("hotspot", dist, |_, shard, em| {
                for v in shard {
                    em.send(0, v);
                }
                Vec::new()
            })
            .unwrap_err();
        assert_eq!(
            err,
            MpcError::CapacityExceeded {
                machine: 0,
                round: 0,
                phase: CapacityPhase::Receive,
                words: 24,
                capacity: 8,
                label: "hotspot".into(),
            }
        );
        assert_eq!(rt.metrics().rounds(), 0);
    }

    #[test]
    fn hetero_round_checks_each_machine_against_its_own_capacity() {
        // Machine 1 has a quarter of the default capacity; routing more
        // than that to it must fail even though the cluster default
        // would allow it.
        let mut rt = Runtime::builder()
            .config(
                MpcConfig::explicit(64, 32, 2)
                    .with_machine_capacity(1, 4)
                    .with_threads(2),
            )
            .build();
        let dist = rt.distribute((0..8u64).collect()).unwrap();
        let err = rt
            .round("overflow-small", dist, |_, shard, em| {
                for v in shard {
                    em.send(1, v);
                }
                Vec::new()
            })
            .unwrap_err();
        assert!(
            matches!(err, MpcError::CapacityExceeded { machine: 1, .. }),
            "{err}"
        );
    }

    /// A cluster-wide squeeze caps every machine's configured capacity:
    /// machine `m` runs at `min(configured_m, squeeze)`, and the cluster
    /// capacity is the minimum of that over machines.
    #[test]
    fn squeeze_caps_each_heterogeneous_capacity() {
        let configured = [64usize, 16, 100, 64];
        let plan = FaultPlan::new(0)
            .with_fault(FaultSpec::Squeeze {
                from_round: 1,
                capacity_words: 32,
            })
            .with_fault(FaultSpec::Squeeze {
                from_round: 2,
                capacity_words: 8,
            });
        let mut rt = Runtime::builder()
            .config(
                MpcConfig::explicit(256, 64, 4)
                    .with_machine_capacity(1, 16)
                    .with_machine_capacity(2, 100)
                    .with_threads(2),
            )
            .fault_plan(plan)
            .build();
        let mut dist = rt.distribute((0..4u64).collect()).unwrap();
        for (round, squeeze) in [(0, usize::MAX), (1, 32), (2, 8)] {
            assert_eq!(rt.metrics().rounds(), round);
            let expect: Vec<usize> = configured.iter().map(|&c| c.min(squeeze)).collect();
            let got: Vec<usize> = (0..4).map(|m| rt.capacity_of(m)).collect();
            assert_eq!(got, expect, "round {round}");
            assert_eq!(
                rt.capacity(),
                *expect.iter().min().unwrap(),
                "round {round}"
            );
            dist = rt
                .round("keep", dist, |_, shard, _em: &mut Emitter<u64>| shard)
                .unwrap();
        }
    }

    #[test]
    fn map_local_and_accounted_round_overruns_are_capacity_errors() {
        let mut rt = small_rt(8, 2);
        let dist = rt.distribute((0..8u64).collect()).unwrap();
        let err = rt
            .map_local(dist, |i, shard| {
                let copies = if i == 1 { 3 } else { 1 };
                shard
                    .into_iter()
                    .flat_map(|v| std::iter::repeat_n(v, copies))
                    .collect::<Vec<u64>>()
            })
            .unwrap_err();
        assert_eq!(
            err,
            MpcError::CapacityExceeded {
                machine: 1,
                round: 0,
                phase: CapacityPhase::Residency,
                words: 12,
                capacity: 8,
                label: "map_local".into(),
            }
        );
        let err = rt.record_accounted_round("bcast", 10, 4, 9, 5).unwrap_err();
        assert_eq!(
            err,
            MpcError::CapacityExceeded {
                machine: 0,
                round: 0,
                phase: CapacityPhase::Receive,
                words: 9,
                capacity: 8,
                label: "bcast".into(),
            }
        );
        assert_eq!(rt.metrics().rounds(), 0);
    }

    #[test]
    fn bad_destination_is_an_error() {
        let mut rt = small_rt(8, 2);
        let dist = rt.distribute(vec![1u64]).unwrap();
        let err = rt
            .round("oops", dist, |_, shard, em| {
                em.send(99, 1u64);
                shard
            })
            .unwrap_err();
        assert!(matches!(err, MpcError::BadDestination { dest: 99, .. }));
    }

    #[test]
    fn map_local_does_not_count_rounds() {
        let mut rt = small_rt(64, 2);
        let dist = rt.distribute(vec![1u64, 2, 3]).unwrap();
        let doubled = rt
            .map_local(dist, |_, shard| {
                shard.into_iter().map(|x| x * 2).collect::<Vec<u64>>()
            })
            .unwrap();
        assert_eq!(rt.metrics().rounds(), 0);
        assert_eq!(rt.gather(doubled), vec![2, 4, 6]);
    }

    #[test]
    fn metrics_track_peak_residency() {
        let mut rt = small_rt(64, 2);
        let dist = rt.distribute((0..32u64).collect()).unwrap();
        let _ = rt
            .round("concentrate", dist, |_, shard, em| {
                for v in shard {
                    em.send(1, v);
                }
                Vec::new()
            })
            .unwrap();
        assert_eq!(rt.metrics().peak_machine_words(), 32);
    }

    fn route_round(rt: &mut Runtime, values: Vec<u64>) -> MpcResult<Vec<u64>> {
        let m = rt.num_machines() as u64;
        let dist = rt.distribute(values)?;
        let out = rt.round("route", dist, move |_, shard, em| {
            for v in shard {
                em.send((v % m) as usize, v.wrapping_mul(3));
            }
            Vec::new()
        })?;
        Ok(rt.gather(out))
    }

    #[test]
    fn crashed_machine_recovers_bit_identical() {
        let values: Vec<u64> = (0..16).collect();
        let mut clean = small_rt(64, 4);
        let expected = route_round(&mut clean, values.clone()).unwrap();
        assert_eq!(
            clean.metrics().round_stats()[0].checkpoint_words,
            0,
            "no plan, no checkpoint"
        );

        // Machine 0 holds the first quarter of the balanced input, so
        // its crash loses real data.
        let plan = FaultPlan::new(9).with_fault(FaultSpec::Crash {
            round: 0,
            attempt: 0,
            machine: 0,
        });
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(64, 64, 4).with_threads(4))
            .fault_plan(plan)
            .build();
        let got = route_round(&mut rt, values).unwrap();
        assert_eq!(got, expected, "recovery must replay bit-identically");
        let stats = &rt.metrics().round_stats()[0];
        assert_eq!(stats.recoveries, 1);
        assert!(
            stats.checkpoint_words > 0,
            "a round checkpoints when the plan can crash"
        );
        assert_eq!(rt.metrics().recoveries(), 1);
        assert!(rt.metrics().peak_checkpoint_words() > 0);
        match rt.fault_log() {
            [FaultEvent::Injected(FaultSpec::Crash {
                round: 0,
                attempt: 0,
                machine: 0,
            }), FaultEvent::Recovered {
                round: 0,
                attempt,
                machine: 0,
                words,
            }] => {
                assert_eq!(*attempt, 1, "restored on the first re-execution");
                assert!(*words > 0, "recover event carries restored words");
            }
            other => panic!("expected a crash and a restore of machine 0, got {other:?}"),
        }
    }

    #[test]
    fn recovery_exhaustion_is_a_typed_retryable_error() {
        // Crash machine 2 on the initial run and both permitted
        // re-executions: the budget (max_recoveries = 2) is exhausted.
        let mut plan = FaultPlan::new(1).with_max_recoveries(2);
        for attempt in 0..3 {
            plan = plan.with_fault(FaultSpec::Crash {
                round: 0,
                attempt,
                machine: 2,
            });
        }
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(64, 64, 4).with_threads(2))
            .fault_plan(plan)
            .build();
        let err = route_round(&mut rt, (0..16).collect()).unwrap_err();
        match &err {
            MpcError::RecoveryExhausted {
                round,
                machine,
                attempts,
                ..
            } => {
                assert_eq!(*round, 0);
                assert_eq!(*machine, 2);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected RecoveryExhausted, got {other}"),
        }
        assert!(err.is_retryable());
        assert_eq!(
            rt.fault_log()
                .iter()
                .filter(|e| matches!(e, FaultEvent::Injected(FaultSpec::Crash { .. })))
                .count(),
            3
        );
    }

    /// One machine's compute output as the test oracle reads it: its
    /// kept records, then every message in emission order, bad
    /// destinations included.
    type Sends<R> = (Vec<R>, Vec<(MachineId, R)>);

    /// The exchange sweep's record: a tagged `Vec` of 2–3 words.
    type Rec = Vec<u64>;

    /// The label and round index the oracle reports errors under.
    const LABEL: &str = "eq";
    const ROUND: usize = 3;

    /// Brute-force exchange, written per destination and sharing no code
    /// with [`deliver`]: sources are checked in ascending order (send
    /// load, then first bad destination), then every receive load, then
    /// every residency; destination `d`'s shard is its kept records, then
    /// a scan of every source's messages for those addressed to `d`.
    fn oracle<R: Words + Clone>(
        outputs: &[Sends<R>],
        caps: &[usize],
        overlay: usize,
    ) -> MpcResult<Delivery<R>> {
        let m = caps.len();
        let over = |machine: MachineId, phase, words| MpcError::CapacityExceeded {
            machine,
            round: ROUND,
            phase,
            words,
            capacity: caps[machine],
            label: LABEL.into(),
        };
        fn sum<'a, R: Words + 'a>(recs: impl IntoIterator<Item = &'a R>) -> usize {
            recs.into_iter().map(Words::words).sum()
        }
        let mut out_words = Vec::with_capacity(m);
        for (src, (_, sends)) in outputs.iter().enumerate() {
            let words = sum(sends.iter().map(|(_, r)| r));
            if words > caps[src] {
                return Err(over(src, CapacityPhase::Send, words));
            }
            if let Some(&(dest, _)) = sends.iter().find(|(d, _)| *d >= m) {
                return Err(MpcError::BadDestination {
                    source: src,
                    dest,
                    num_machines: m,
                });
            }
            out_words.push(words);
        }
        let inboxes: Vec<Vec<&R>> = (0..m)
            .map(|d| {
                let all = outputs.iter().flat_map(|(_, sends)| sends);
                all.filter(|(to, _)| *to == d).map(|(_, r)| r).collect()
            })
            .collect();
        let in_words: Vec<usize> = inboxes
            .iter()
            .map(|inbox| sum(inbox.iter().copied()))
            .collect();
        for d in 0..m {
            if in_words[d] > caps[d] {
                return Err(over(d, CapacityPhase::Receive, in_words[d]));
            }
        }
        let resident: Vec<usize> = (0..m)
            .map(|d| sum(&outputs[d].0) + in_words[d] + overlay)
            .collect();
        for d in 0..m {
            if resident[d] > caps[d] {
                return Err(over(d, CapacityPhase::Residency, resident[d]));
            }
        }
        let parts = (0..m)
            .map(|d| {
                let inbox = inboxes[d].iter().copied();
                outputs[d].0.iter().chain(inbox).cloned().collect()
            })
            .collect();
        let max = |v: &[usize]| v.iter().copied().max().unwrap_or(0);
        Ok(Delivery {
            parts,
            sent_total: out_words.iter().sum(),
            max_out: max(&out_words),
            max_in: max(&in_words),
            max_resident: max(&resident),
        })
    }

    /// A delivery's observable result, comparable across exchanges.
    type Observed = MpcResult<(Vec<Vec<Vec<u64>>>, [usize; 4])>;

    fn observe(d: MpcResult<Delivery<Vec<u64>>>) -> Observed {
        d.map(|d| {
            let loads = [d.sent_total, d.max_out, d.max_in, d.max_resident];
            (d.parts, loads)
        })
    }

    /// Random compute outputs over `m` machines, both as the oracle reads
    /// them and as the round's emitters queue them. Records are 2–3 words
    /// and tagged `(source, serial)`, so any reordering shows. Half the
    /// messages go to machine 0 (so receive loads can exceed send loads),
    /// the rest to uniform destinations, self-sends included. With `bad`,
    /// one source also sends to two machines outside the cluster; the
    /// first one sent is the one a failing round reports.
    fn random_outputs(seed: u64, m: usize, bad: bool) -> (Vec<Sends<Rec>>, Vec<MachineOut<Rec>>) {
        let bad_src = bad.then(|| (mix2(seed, 1) % m as u64) as usize);
        (0..m)
            .map(|src| {
                let mut rng = mix2(seed, src as u64);
                let mut next = |bound: u64| {
                    rng = mix2(rng, 0x5EED);
                    rng % bound
                };
                let mut serial = 0u64;
                let mut record = |len: u64| {
                    serial += 1;
                    let mut rec = vec![((src as u64) << 32) | serial];
                    rec.resize(len as usize, 0);
                    rec
                };
                let kept: Vec<Rec> = (0..next(4)).map(|_| record(next(2) + 1)).collect();
                let mut sends: Vec<(MachineId, Rec)> = (0..next(9))
                    .map(|_| {
                        let dest = if next(2) == 0 {
                            0
                        } else {
                            next(m as u64) as usize
                        };
                        (dest, record(next(2) + 1))
                    })
                    .collect();
                if bad_src == Some(src) {
                    sends.insert(sends.len() / 2, (m + seed as usize, vec![7]));
                    sends.push((m + 99, vec![8]));
                }
                let mut em = Emitter::new(m);
                for (dest, rec) in &sends {
                    em.send(*dest, rec.clone());
                }
                let out = MachineOut {
                    kept: kept.clone(),
                    em,
                };
                ((kept, sends), out)
            })
            .unzip()
    }

    /// `(max send, max receive, max kept + receive)` words of `outputs`.
    fn loads(outputs: &[Sends<Rec>]) -> (usize, usize, usize) {
        let m = outputs.len();
        let words = |recs: &[Rec]| recs.iter().map(Words::words).sum::<usize>();
        let mut in_words = vec![0usize; m];
        let mut max_out = 0;
        for (_, sends) in outputs {
            max_out = max_out.max(sends.iter().map(|(_, r)| r.words()).sum());
            for (dest, rec) in sends.iter().filter(|(d, _)| *d < m) {
                in_words[*dest] += rec.words();
            }
        }
        let max_in = in_words.iter().copied().max().unwrap_or(0);
        let max_res = outputs
            .iter()
            .zip(&in_words)
            .map(|((kept, _), w)| words(kept) + w)
            .max()
            .unwrap_or(0);
        (max_out, max_in, max_res)
    }

    #[test]
    fn exchange_matches_brute_force_oracle() {
        let mut seen = std::collections::BTreeSet::new();
        for m in [1usize, 3, 64, 1024] {
            for seed in 0..6u64 {
                let bad = seed % 3 == 2;
                let (sends, _) = random_outputs(seed, m, bad);
                let (max_out, max_in, max_res) = loads(&sends);
                // Uniform capacities just under each load class (so the
                // round fails in that phase), then roomy ones; one
                // machine gets a tighter capacity than the rest.
                let levels = [
                    max_out.saturating_sub(1),
                    max_in.saturating_sub(1).max(max_out),
                    max_res.saturating_sub(1).max(max_out.max(max_in)),
                    usize::MAX / 2,
                ];
                for (li, level) in levels.into_iter().enumerate() {
                    let mut caps = vec![level; m];
                    if li == 3 {
                        caps[(seed as usize) % m] = max_res.saturating_sub(1);
                    }
                    let ctx = ExchangeCtx {
                        label: LABEL,
                        round: ROUND,
                        caps: &caps,
                        overlay_words: 1,
                    };
                    let want = observe(oracle(&sends, &caps, 1));
                    let got = observe(deliver(random_outputs(seed, m, bad).1, &ctx));
                    assert_eq!(got, want, "m {m} seed {seed} caps {li}");
                    seen.insert(match &want {
                        Ok(_) => "ok".to_string(),
                        Err(MpcError::CapacityExceeded { phase, .. }) => format!("{phase:?}"),
                        Err(MpcError::BadDestination { .. }) => "bad-dest".into(),
                        Err(e) => panic!("unexpected {e}"),
                    });
                }
            }
        }
        let want: std::collections::BTreeSet<String> =
            ["ok", "bad-dest", "Send", "Receive", "Residency"]
                .into_iter()
                .map(String::from)
                .collect();
        assert_eq!(seen, want, "every outcome is exercised");
    }

    /// Where the fault-test round sends `v`: a hashed machine (itself
    /// included), or `None` to keep it.
    fn hashed_dest(v: u64, m: usize) -> Option<MachineId> {
        let d = (mix2(v, 11) % (m as u64 + 1)) as usize;
        (d < m).then_some(d)
    }

    #[test]
    fn round_exchange_matches_oracle_under_faults() {
        for m in [3usize, 64] {
            let shards: Vec<Vec<u64>> = (0..m as u64)
                .map(|i| (0..1 + i % 5).map(|j| mix2(i, j)).collect())
                .collect();
            // Reference: the round's routing run serially, routed by the
            // oracle.
            let sends: Vec<Sends<u64>> = shards
                .iter()
                .map(|shard| {
                    let (mut kept, mut sends) = (Vec::new(), Vec::new());
                    for &v in shard {
                        match hashed_dest(v, m) {
                            Some(d) => sends.push((d, v)),
                            None => kept.push(v),
                        }
                    }
                    (kept, sends)
                })
                .collect();
            let want = oracle(&sends, &vec![1usize << 20; m], 0).unwrap();
            let retries = FaultPlan::new(4)
                .with_max_retries(4)
                .with_fault(FaultSpec::Drop {
                    round: 0,
                    attempt: 0,
                    src: 1,
                    msg_index: 0,
                })
                .with_fault(FaultSpec::Drop {
                    round: 0,
                    attempt: 1,
                    src: 0,
                    msg_index: 0,
                });
            let crash = FaultPlan::new(5).with_fault(FaultSpec::Crash {
                round: 0,
                attempt: 0,
                machine: 1,
            });
            for (name, plan) in [
                ("clean", None),
                ("retries", Some(retries)),
                ("crash", Some(crash)),
            ] {
                for threads in [1usize, 2, 4] {
                    let cfg = MpcConfig::explicit(m << 20, 1 << 20, m).with_threads(threads);
                    let mut b = Runtime::builder().config(cfg);
                    if let Some(plan) = plan.clone() {
                        b = b.fault_plan(plan);
                    }
                    let mut rt = b.build();
                    let out = rt
                        .round(
                            "hashed",
                            Dist::from_parts(shards.clone()),
                            |_, shard, em| {
                                let mut kept = Vec::new();
                                for v in shard {
                                    match hashed_dest(v, m) {
                                        Some(d) => em.send(d, v),
                                        None => kept.push(v),
                                    }
                                }
                                kept
                            },
                        )
                        .unwrap();
                    let ctx = format!("m {m} {name} threads {threads}");
                    assert_eq!(out.into_parts(), want.parts, "{ctx}");
                    let mt = rt.metrics();
                    assert_eq!(mt.total_sent_words(), want.sent_total, "{ctx}");
                    assert_eq!(mt.max_round_sent_words(), want.sent_total, "{ctx}");
                    assert_eq!(mt.peak_machine_words(), want.max_resident, "{ctx}");
                    let stats = &mt.round_stats()[0];
                    match name {
                        "retries" => assert_eq!(stats.attempts, 3, "{ctx}"),
                        "crash" => assert_eq!(stats.recoveries, 1, "{ctx}"),
                        _ => assert_eq!((stats.attempts, stats.recoveries), (1, 0), "{ctx}"),
                    }
                }
            }
        }
    }
}
