//! Broadcast tree: replicate a payload from machine 0 to every machine.

use crate::cluster::Runtime;
use crate::error::{MpcError, MpcResult};

/// Accounted broadcast: meters the exact rounds and loads of
/// broadcasting a `payload_words`-word payload from machine 0 to every
/// machine, **without materializing** the `M` copies. The data is
/// assumed available to machines through shared state (in this
/// simulation, an `Arc`); the metering and capacity checks are what the
/// MPC cost model requires.
///
/// The tree has fanout `f = max(1, s / |payload|)`: each holder sends
/// `f` copies per round, hence `⌈log_{f+1} M⌉` rounds — `O(1/ε)` when
/// the payload fits in a constant fraction of local memory, exactly the
/// regime of Algorithm 2 (grids broadcast, Lemma 8).
///
/// Also records the replicated payload in the total-space meter
/// (`M × payload_words` resident words after the broadcast).
pub fn broadcast_accounted(rt: &mut Runtime, payload_words: usize) -> MpcResult<()> {
    let _sp = treeemb_obs::span!("mpc.broadcast_accounted", "payload_words" = payload_words);
    let m = rt.num_machines();
    if payload_words > rt.capacity() {
        return Err(MpcError::AlgorithmFailure(format!(
            "broadcast payload of {payload_words} words exceeds local capacity {}",
            rt.capacity()
        )));
    }
    let fanout = (rt.capacity() / payload_words.max(1)).max(1);
    let mut holders = 1usize;
    let mut step = 0usize;
    while holders < m {
        let new_total = (holders + holders * fanout).min(m);
        let copies = new_total - holders;
        let max_out = fanout.min(copies) * payload_words;
        rt.record_accounted_round(
            &format!("broadcast:step{step}"),
            copies * payload_words,
            max_out,
            payload_words,
            payload_words,
        )?;
        holders = new_total;
        step += 1;
    }
    rt.metrics_record_replicated(payload_words);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn rt(capacity: usize, machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(64, capacity, machines).with_threads(4))
            .build()
    }

    #[test]
    fn every_machine_but_the_root_receives_one_copy() {
        let mut rt = rt(32, 9);
        broadcast_accounted(&mut rt, 3).unwrap();
        assert_eq!(rt.metrics().total_sent_words(), 8 * 3);
        assert_eq!(
            rt.metrics().rounds_labeled("broadcast:"),
            rt.metrics().rounds()
        );
        // The replicated payload is charged to every machine.
        assert_eq!(rt.metrics().peak_machine_words(), 3);
        assert_eq!(rt.metrics().peak_total_words(), 9 * 3);
    }

    #[test]
    fn round_count_is_logarithmic_in_machines() {
        // capacity 8, payload 4 words -> fanout 2 -> 3^k growth.
        let mut rt = rt(8, 81);
        broadcast_accounted(&mut rt, 4).unwrap();
        assert_eq!(
            rt.metrics().rounds(),
            4,
            "81 machines at fanout 2 is 4 steps"
        );
    }

    #[test]
    fn single_machine_needs_no_rounds() {
        let mut rt = rt(32, 1);
        broadcast_accounted(&mut rt, 1).unwrap();
        assert_eq!(rt.metrics().rounds(), 0);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut rt = rt(4, 4);
        let err = broadcast_accounted(&mut rt, 10).unwrap_err();
        assert!(matches!(err, MpcError::AlgorithmFailure(_)));
    }

    #[test]
    fn never_violates_capacity() {
        for machines in [2usize, 5, 17, 64] {
            let mut rt = rt(16, machines);
            broadcast_accounted(&mut rt, 5).unwrap();
            for r in rt.metrics().round_stats() {
                assert!(r.max_out_words <= 16 && r.max_in_words <= 16, "{r:?}");
            }
        }
    }
}
