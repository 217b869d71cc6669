//! MPC cluster configuration: the [`MpcConfig`] knob set and the
//! [`RuntimeBuilder`] that turns it into a [`Runtime`].

use crate::cluster::Runtime;
use crate::fault::FaultPlan;

/// Configuration for a simulated MPC cluster.
///
/// [`MpcConfig::fully_scalable`] or [`MpcConfig::explicit`] sizes it,
/// the `with_*` methods refine it, and
/// [`Runtime::builder()`](crate::cluster::Runtime::builder)`.config(..)`
/// turns it into a runtime. The runtime enforces every capacity: an
/// overrun fails the computation. The struct is
/// `#[non_exhaustive]`: downstream code reads and tweaks fields but
/// cannot literal-construct it, so new knobs can be added without
/// breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MpcConfig {
    /// Input size `N` in machine words (for the paper: `n · d`).
    pub input_words: usize,
    /// Local memory per machine, in words (`s`).
    pub capacity_words: usize,
    /// Number of machines `M`.
    pub num_machines: usize,
    /// OS threads used to execute machines concurrently.
    pub threads: usize,
    /// Heterogeneous per-machine capacity overrides as
    /// `(machine, words)` pairs; machines not listed keep
    /// [`MpcConfig::capacity_words`]. See [`MpcConfig::capacity_of`].
    pub machine_capacities: Vec<(usize, usize)>,
}

/// Multiplier on `N / s` when choosing the default machine count. MPC
/// algorithms routinely need constant-factor slack in total space; the
/// paper's bounds all carry an `O(·)`.
const MACHINE_SLACK: usize = 4;

impl MpcConfig {
    /// Fully scalable configuration: `s = ⌈N^ε⌉` (at least 16 words so
    /// toy inputs remain runnable), `M = ⌈slack · N / s⌉`.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 1` and `input_words > 0`.
    pub fn fully_scalable(input_words: usize, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0,1)");
        assert!(input_words > 0, "input must be non-empty");
        let capacity = (input_words as f64).powf(epsilon).ceil() as usize;
        let capacity_words = capacity.max(16);
        let num_machines = (MACHINE_SLACK * input_words)
            .div_ceil(capacity_words)
            .max(1);
        Self {
            input_words,
            capacity_words,
            num_machines,
            threads: default_threads(),
            machine_capacities: Vec::new(),
        }
    }

    /// Explicit configuration (capacity and machine count chosen by the
    /// caller).
    pub fn explicit(input_words: usize, capacity_words: usize, num_machines: usize) -> Self {
        assert!(capacity_words > 0 && num_machines > 0);
        Self {
            input_words: input_words.max(1),
            capacity_words,
            num_machines,
            threads: default_threads(),
            machine_capacities: Vec::new(),
        }
    }

    /// Overrides the per-machine capacity.
    pub fn with_capacity(mut self, capacity_words: usize) -> Self {
        assert!(capacity_words > 0);
        self.capacity_words = capacity_words;
        self
    }

    /// Overrides the machine count.
    pub fn with_machines(mut self, num_machines: usize) -> Self {
        assert!(num_machines > 0);
        self.num_machines = num_machines;
        self
    }

    /// Overrides the capacity of one machine (heterogeneous clusters);
    /// repeated calls for the same machine keep the last value.
    pub fn with_machine_capacity(mut self, machine: usize, capacity_words: usize) -> Self {
        assert!(capacity_words > 0);
        assert!(
            machine < self.num_machines,
            "machine {machine} outside 0..{}",
            self.num_machines
        );
        match self
            .machine_capacities
            .iter_mut()
            .find(|(m, _)| *m == machine)
        {
            Some(entry) => entry.1 = capacity_words,
            None => self.machine_capacities.push((machine, capacity_words)),
        }
        self
    }

    /// Overrides the executor thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0);
        self.threads = threads;
        self
    }

    /// Configured capacity of `machine`: its heterogeneous override if
    /// one is set, [`MpcConfig::capacity_words`] otherwise.
    pub fn capacity_of(&self, machine: usize) -> usize {
        self.machine_capacities
            .iter()
            .find(|(m, _)| *m == machine)
            .map_or(self.capacity_words, |&(_, w)| w)
    }

    /// The smallest configured capacity of any machine — what
    /// capacity-driven sizing (fan-outs, chunking) must plan for on a
    /// heterogeneous cluster.
    pub fn min_capacity_words(&self) -> usize {
        if self.machine_capacities.is_empty() {
            return self.capacity_words;
        }
        (0..self.num_machines)
            .map(|m| self.capacity_of(m))
            .min()
            .unwrap_or(self.capacity_words)
    }
}

/// Builder for [`Runtime`] — the one construction path for simulated
/// clusters: an [`MpcConfig`] (from [`MpcConfig::explicit`] or
/// [`MpcConfig::fully_scalable`], refined with its `with_*` methods)
/// plus an optional [`FaultPlan`].
///
/// ```
/// use treeemb_mpc::cluster::Runtime;
/// use treeemb_mpc::config::MpcConfig;
/// use treeemb_mpc::fault::FaultPlan;
///
/// let rt = Runtime::builder()
///     .config(
///         MpcConfig::explicit(1 << 15, 1 << 12, 8)
///             .with_machine_capacity(3, 1 << 10) // one smaller machine
///             .with_threads(2),
///     )
///     .fault_plan(FaultPlan::new(42))
///     .build();
/// assert_eq!(rt.num_machines(), 8);
/// assert_eq!(rt.capacity(), 1 << 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    config: Option<MpcConfig>,
    fault_plan: Option<FaultPlan>,
}

impl RuntimeBuilder {
    /// Sets the cluster configuration.
    pub fn config(mut self, cfg: MpcConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Attaches a deterministic fault plan at construction.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Constructs the runtime.
    ///
    /// # Panics
    /// Panics when no configuration was given.
    pub fn build(self) -> Runtime {
        let cfg = self.config.expect(
            "RuntimeBuilder: set .config(..) from MpcConfig::explicit or MpcConfig::fully_scalable",
        );
        Runtime::from_resolved(cfg, self.fault_plan)
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_scalable_derives_capacity() {
        let cfg = MpcConfig::fully_scalable(1 << 20, 0.5);
        assert_eq!(cfg.capacity_words, 1 << 10);
        assert_eq!(cfg.num_machines, MACHINE_SLACK * (1 << 10));
    }

    #[test]
    fn capacity_floor_keeps_toy_inputs_runnable() {
        let cfg = MpcConfig::fully_scalable(4, 0.3);
        assert!(cfg.capacity_words >= 16);
    }

    #[test]
    fn builders_override() {
        let cfg = MpcConfig::fully_scalable(1024, 0.5)
            .with_capacity(77)
            .with_machines(5)
            .with_threads(2);
        assert_eq!(cfg.capacity_words, 77);
        assert_eq!(cfg.num_machines, 5);
        assert_eq!(cfg.threads, 2);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_must_be_fractional() {
        let _ = MpcConfig::fully_scalable(100, 1.0);
    }

    #[test]
    fn machine_capacity_overrides_one_machine() {
        let cfg = MpcConfig::explicit(100, 10, 4)
            .with_machine_capacity(2, 3)
            .with_machine_capacity(1, 20)
            .with_machine_capacity(2, 4); // last write wins
        assert_eq!(cfg.capacity_of(0), 10);
        assert_eq!(cfg.capacity_of(1), 20);
        assert_eq!(cfg.capacity_of(2), 4);
        assert_eq!(cfg.min_capacity_words(), 4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn machine_capacity_rejects_out_of_range_machines() {
        let _ = MpcConfig::explicit(100, 10, 4).with_machine_capacity(4, 10);
    }

    #[test]
    fn builder_uses_the_given_config() {
        let rt = Runtime::builder()
            .config(MpcConfig::explicit(70, 10, 7).with_threads(2))
            .build();
        assert_eq!(rt.num_machines(), 7);
        assert_eq!(rt.capacity(), 10);
        assert_eq!(rt.config().input_words, 70);
        assert_eq!(rt.config().threads, 2);
    }

    #[test]
    fn builder_attaches_plan_and_hetero_capacities() {
        let rt = Runtime::builder()
            .config(MpcConfig::explicit(400, 100, 4).with_machine_capacity(3, 40))
            .fault_plan(FaultPlan::new(7))
            .build();
        assert_eq!(rt.config().capacity_of(3), 40);
        assert_eq!(rt.capacity(), 40, "cluster capacity is the minimum");
        assert_eq!(rt.fault_plan().map(|p| p.seed), Some(7));
    }

    #[test]
    #[should_panic(expected = "MpcConfig::explicit")]
    fn builder_without_config_panics() {
        let _ = Runtime::builder().fault_plan(FaultPlan::new(1)).build();
    }
}
