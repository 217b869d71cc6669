//! Round/space metering for the simulated cluster.

/// Statistics for a single communication round.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// 0-based round index.
    pub round: usize,
    /// Human-readable label supplied by the algorithm.
    pub label: String,
    /// Total words sent across the cluster this round.
    pub sent_words: usize,
    /// Maximum words sent by any single machine.
    pub max_out_words: usize,
    /// Maximum words received by any single machine.
    pub max_in_words: usize,
    /// Maximum resident words (kept + received) on any machine at the end
    /// of the round.
    pub max_resident_words: usize,
    /// Wall-clock start of the round, in nanoseconds since the process
    /// trace epoch ([`treeemb_obs::now_ns`]).
    pub t_start_ns: u64,
    /// Wall-clock end of the round, same epoch.
    pub t_end_ns: u64,
    /// Exchange attempts the round took (1 unless fault injection forced
    /// retries).
    pub attempts: u32,
    /// Faults injected during the round (0 without a fault plan).
    pub faults: usize,
    /// Checkpoint restores performed this round — re-executions of
    /// crashed machines' partitions from the round-input snapshot (0
    /// without crash injection).
    pub recoveries: u32,
    /// Words held by the round-input checkpoint while this round ran (0
    /// when checkpointing was inactive). Counted against total space,
    /// not against any single machine's capacity.
    pub checkpoint_words: usize,
}

impl RoundStats {
    /// Wall time the round took (0 for accounted rounds).
    pub fn wall_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

/// Accumulated metrics of an MPC computation.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    rounds: Vec<RoundStats>,
    peak_resident_words: usize,
    peak_total_resident_words: usize,
    total_sent_words: usize,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finished round.
    pub fn record_round(&mut self, stats: RoundStats) {
        self.total_sent_words += stats.sent_words;
        self.peak_resident_words = self.peak_resident_words.max(stats.max_resident_words);
        self.rounds.push(stats);
    }

    /// Raises the peak per-machine residency floor directly (used for
    /// replicated overlays that sit outside any Dist).
    pub fn bump_peak_machine(&mut self, words: usize) {
        self.peak_resident_words = self.peak_resident_words.max(words);
    }

    /// Records the cluster-wide resident word count observed after a
    /// round (for total-space audits).
    pub fn record_total_resident(&mut self, words: usize) {
        self.peak_total_resident_words = self.peak_total_resident_words.max(words);
    }

    /// Number of communication rounds executed.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Per-round statistics, in execution order.
    pub fn round_stats(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Peak resident words on any single machine over the computation —
    /// the quantity bounded by `O((nd)^ε)` in the paper's theorems.
    pub fn peak_machine_words(&self) -> usize {
        self.peak_resident_words
    }

    /// Peak cluster-wide resident words — the paper's "total space".
    pub fn peak_total_words(&self) -> usize {
        self.peak_total_resident_words
    }

    /// Total communication volume in words.
    pub fn total_sent_words(&self) -> usize {
        self.total_sent_words
    }

    /// Total faults injected across all rounds (0 without a fault plan).
    pub fn faults_injected(&self) -> usize {
        self.rounds.iter().map(|r| r.faults).sum()
    }

    /// Rounds that needed more than one exchange attempt.
    pub fn retried_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.attempts > 1).count()
    }

    /// Total checkpoint restores (crash recoveries) across all rounds.
    pub fn recoveries(&self) -> u32 {
        self.rounds.iter().map(|r| r.recoveries).sum()
    }

    /// Largest round-input checkpoint held by any round, in words — the
    /// space-overhead term checkpointing adds to the paper's total-space
    /// accounting.
    pub fn peak_checkpoint_words(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.checkpoint_words)
            .max()
            .unwrap_or(0)
    }

    /// Rounds whose label starts with `prefix` (primitives label their
    /// internal rounds, letting callers attribute round budgets).
    pub fn rounds_labeled(&self, prefix: &str) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.label.starts_with(prefix))
            .count()
    }

    /// Words sent in rounds whose label starts with `prefix` — the
    /// volume-budget counterpart of [`Metrics::rounds_labeled`], so
    /// round budgets and communication budgets attribute the same way.
    pub fn words_labeled(&self, prefix: &str) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.label.starts_with(prefix))
            .map(|r| r.sent_words)
            .sum()
    }

    /// Largest `sent_words` of any single round (the per-round volume
    /// spike the capacity model constrains).
    pub fn max_round_sent_words(&self) -> usize {
        self.rounds.iter().map(|r| r.sent_words).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(round: usize, label: &str, sent: usize, resident: usize) -> RoundStats {
        RoundStats {
            round,
            label: label.into(),
            sent_words: sent,
            max_out_words: sent,
            max_in_words: sent,
            max_resident_words: resident,
            t_start_ns: 10 * round as u64,
            t_end_ns: 10 * round as u64 + 5,
            attempts: 1,
            faults: 0,
            recoveries: 0,
            checkpoint_words: 0,
        }
    }

    #[test]
    fn rounds_accumulate() {
        let mut m = Metrics::new();
        m.record_round(stats(0, "a", 10, 5));
        m.record_round(stats(1, "b", 20, 50));
        assert_eq!(m.rounds(), 2);
        assert_eq!(m.total_sent_words(), 30);
        assert_eq!(m.peak_machine_words(), 50);
    }

    #[test]
    fn labeled_round_counting() {
        let mut m = Metrics::new();
        m.record_round(stats(0, "fjlt:wht", 1, 1));
        m.record_round(stats(1, "fjlt:project", 1, 1));
        m.record_round(stats(2, "broadcast", 1, 1));
        assert_eq!(m.rounds_labeled("fjlt"), 2);
        assert_eq!(m.rounds_labeled("broadcast"), 1);
    }

    #[test]
    fn total_resident_peak_tracks_max() {
        let mut m = Metrics::new();
        m.record_total_resident(100);
        m.record_total_resident(40);
        assert_eq!(m.peak_total_words(), 100);
    }

    #[test]
    fn words_attribute_by_label_prefix_like_rounds() {
        let mut m = Metrics::new();
        m.record_round(stats(0, "fjlt:wht", 10, 1));
        m.record_round(stats(1, "fjlt:project", 30, 1));
        m.record_round(stats(2, "broadcast", 5, 1));
        assert_eq!(m.words_labeled("fjlt"), 40);
        assert_eq!(m.words_labeled("broadcast"), 5);
        assert_eq!(m.words_labeled("nope"), 0);
        assert_eq!(m.max_round_sent_words(), 30);
    }

    #[test]
    fn round_stats_carry_wall_time() {
        let s = stats(3, "x", 1, 1);
        assert_eq!(s.t_start_ns, 30);
        assert_eq!(s.wall_ns(), 5);
    }

    #[test]
    fn fault_counters_aggregate() {
        let mut m = Metrics::new();
        m.record_round(stats(0, "a", 1, 1));
        let mut retried = stats(1, "b", 1, 1);
        retried.attempts = 3;
        retried.faults = 5;
        m.record_round(retried);
        assert_eq!(m.faults_injected(), 5);
        assert_eq!(m.retried_rounds(), 1);
    }

    #[test]
    fn recovery_counters_aggregate() {
        let mut m = Metrics::new();
        let mut crashed = stats(0, "a", 1, 1);
        crashed.recoveries = 2;
        crashed.checkpoint_words = 64;
        m.record_round(crashed);
        let mut clean = stats(1, "b", 1, 1);
        clean.checkpoint_words = 48;
        m.record_round(clean);
        assert_eq!(m.recoveries(), 2);
        assert_eq!(m.peak_checkpoint_words(), 64);
    }
}
