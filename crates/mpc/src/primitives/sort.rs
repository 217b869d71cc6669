//! Distributed sample-sort in O(1) rounds.
//!
//! The MPC folklore primitive (Goodrich–Sitchinava–Zhang): sample keys,
//! centralize a splitter computation, broadcast splitters, route by
//! splitter bucket, sort locally. The result is globally sorted across
//! machine boundaries: every record on machine `i` precedes every record
//! on machine `i+1`.

use crate::cluster::{Dist, Runtime};
use crate::error::MpcResult;
use crate::primitives::broadcast::broadcast;
use crate::words::Words;

/// Oversampling factor per machine: more samples give better balance at
/// the cost of a slightly larger sample round.
const OVERSAMPLE: usize = 8;

/// Sorts a distributed collection by `key`, returning a collection whose
/// concatenated shards (machine order) are sorted. Stable within a
/// machine; records with equal keys may land on adjacent machines in
/// arbitrary relative order.
///
/// Dispatches to single-level sample sort when the splitter vector
/// (`M − 1` keys) fits comfortably in one machine (`2M ≤ s`, the
/// `ε ≥ 1/2` regime), and to [`sort_two_level`] otherwise — which
/// tolerates `M` up to ≈ `(s/2)²`, i.e. `ε ≥ 1/3`.
pub fn sort_by_key<T, K, F>(rt: &mut Runtime, input: Dist<T>, key: F) -> MpcResult<Dist<T>>
where
    T: Words + Send + Sync + Clone,
    K: Ord + Words + Send + Sync + Clone + 'static,
    F: Fn(&T) -> K + Sync + Send + Copy,
{
    let _sp = treeemb_obs::span!("mpc.sort", "items" = input.total_len());
    if 2 * rt.num_machines() > rt.capacity() {
        return sort_two_level(rt, input, key);
    }
    sort_single_level(rt, input, key)
}

/// Single-level sample sort (see [`sort_by_key`] for the dispatch).
pub fn sort_single_level<T, K, F>(rt: &mut Runtime, input: Dist<T>, key: F) -> MpcResult<Dist<T>>
where
    T: Words + Send + Sync + Clone,
    K: Ord + Words + Send + Sync + Clone + 'static,
    F: Fn(&T) -> K + Sync + Send + Copy,
{
    let m = rt.num_machines();
    if m == 1 {
        return rt.map_local(input, move |_, mut shard| {
            shard.sort_by_key(key);
            shard
        });
    }

    // Round 1: every machine ships an evenly spaced key sample to
    // machine 0. The per-machine sample size adapts so machine 0's
    // receive volume m * samples stays within capacity.
    let samples_per_machine = OVERSAMPLE.min((rt.capacity() / m).max(1));
    let keys_dist = Dist::from_parts(
        input
            .parts()
            .iter()
            .map(|p| p.iter().map(key).collect::<Vec<K>>())
            .collect(),
    );
    let samples = rt.round("sort:sample", keys_dist, move |_, mut shard, em| {
        if shard.is_empty() {
            return Vec::new();
        }
        shard.sort();
        let step = (shard.len() / samples_per_machine).max(1);
        for k in shard.into_iter().step_by(step).take(samples_per_machine) {
            em.send(0, k);
        }
        Vec::new()
    })?;

    // Machine 0 derives m-1 splitters.
    let mut sample_keys = samples.into_parts().swap_remove(0);
    sample_keys.sort();
    let mut splitters: Vec<K> = Vec::with_capacity(m.saturating_sub(1));
    if !sample_keys.is_empty() {
        for b in 1..m {
            let idx = (b * sample_keys.len()) / m;
            splitters.push(sample_keys[idx.min(sample_keys.len() - 1)].clone());
        }
    }

    // Rounds 2..: broadcast splitters, then route each record to its
    // bucket machine and sort locally.
    let splitters_everywhere = broadcast(rt, splitters)?;
    let splitter_parts = splitters_everywhere.into_parts();
    let routed = rt.round("sort:route", input, move |id, shard, em| {
        let sp = &splitter_parts[id];
        for rec in shard {
            let k = key(&rec);
            // partition_point gives the first splitter > k, i.e. the
            // bucket index.
            let bucket = sp.partition_point(|s| *s <= k);
            em.send(bucket, rec);
        }
        Vec::new()
    })?;
    rt.map_local(routed, move |_, mut shard| {
        shard.sort_by_key(key);
        shard
    })
}

/// Two-level sample sort for clusters whose machine count exceeds the
/// per-machine capacity (`ε < 1/2` regimes): machines are divided into
/// `G ≈ √M` contiguous *groups* of ≈ `√M` machines.
///
/// 1. an aggregation tree merges bounded sorted key samples (so no
///    machine ever holds more than `s/4` sample words);
/// 2. machine 0 derives `G − 1` *coarse* splitters, broadcast to all;
/// 3. records route to their group (spread within it by hash);
/// 4. each group leader samples its group, derives fine splitters, and
///    forwards them down an intra-group broadcast tree;
/// 5. records route to their final machine and sort locally.
///
/// Groups occupy contiguous machine ranges and coarse splitters are
/// ascending, so the concatenation across machines is globally sorted.
/// Round count stays `O(1/ε)`.
pub fn sort_two_level<T, K, F>(rt: &mut Runtime, input: Dist<T>, key: F) -> MpcResult<Dist<T>>
where
    T: Words + Send + Sync + Clone,
    K: Ord + Words + Send + Sync + Clone + 'static,
    F: Fn(&T) -> K + Sync + Send + Copy,
{
    use crate::cluster::mix_seed;
    use crate::error::MpcError;

    let m = rt.num_machines();
    let cap = rt.capacity();
    let group_size = (m as f64).sqrt().ceil() as usize;
    let groups = m.div_ceil(group_size);
    if 2 * (groups.max(group_size) + 1) > cap {
        return Err(MpcError::AlgorithmFailure(format!(
            "two-level sort needs ~sqrt(M)={group_size} splitter words per machine, capacity {cap} too small"
        )));
    }

    // Step 1: bounded-size sorted samples up an aggregation tree.
    let sample_cap = (cap / 4).max(4);
    let keys = Dist::from_parts(
        input
            .parts()
            .iter()
            .map(|p| p.iter().map(key).collect::<Vec<K>>())
            .collect(),
    );
    let merged = crate::primitives::aggregate::reduce(
        rt,
        keys,
        |shard: &[K]| {
            if shard.is_empty() {
                return None;
            }
            let mut s = shard.to_vec();
            s.sort();
            Some(subsample(s, sample_cap))
        },
        move |a: Vec<K>, b: Vec<K>| {
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut ia, mut ib) = (0, 0);
            while ia < a.len() && ib < b.len() {
                if a[ia] <= b[ib] {
                    merged.push(a[ia].clone());
                    ia += 1;
                } else {
                    merged.push(b[ib].clone());
                    ib += 1;
                }
            }
            merged.extend_from_slice(&a[ia..]);
            merged.extend_from_slice(&b[ib..]);
            subsample(merged, sample_cap)
        },
    )?;
    let sample = merged.unwrap_or_default();

    // Step 2: coarse splitters to every machine.
    let mut coarse: Vec<K> = Vec::with_capacity(groups.saturating_sub(1));
    if !sample.is_empty() {
        for g in 1..groups {
            let idx = (g * sample.len()) / groups;
            coarse.push(sample[idx.min(sample.len() - 1)].clone());
        }
    }
    let coarse_everywhere = broadcast(rt, coarse)?;
    let coarse_parts = coarse_everywhere.into_parts();

    // Step 3: route to groups, spreading by key hash within the group.
    let routed = rt.round("gsort:route-group", input, move |id, shard, em| {
        let sp = &coarse_parts[id];
        for (i, rec) in shard.into_iter().enumerate() {
            let k = key(&rec);
            let group = sp.partition_point(|s| *s <= k);
            // The last group may be partial; spread over its real size.
            let size = group_size.min(m - group * group_size);
            let spread = (mix_seed(id as u64, i as u64) % size as u64) as usize;
            em.send(group * group_size + spread, rec);
        }
        Vec::new()
    })?;

    // Step 4a: group leaders collect per-machine samples.
    let leader_samples = {
        let keys = Dist::from_parts(
            routed
                .parts()
                .iter()
                .map(|p| p.iter().map(key).collect::<Vec<K>>())
                .collect(),
        );
        rt.round("gsort:sample", keys, move |id, mut shard, em| {
            if shard.is_empty() {
                return Vec::new();
            }
            shard.sort();
            let leader = (id / group_size) * group_size;
            let per = OVERSAMPLE.min((cap / (2 * group_size)).max(1));
            let step = (shard.len() / per).max(1);
            for k in shard.into_iter().step_by(step).take(per) {
                em.send(leader, k);
            }
            Vec::new()
        })?
    };
    // Leaders derive fine splitter vectors: one key fewer than their
    // group's real size (the last group may be partial).
    let fine = rt.map_local(leader_samples, move |id, mut shard| {
        if id % group_size != 0 || shard.is_empty() {
            return Vec::new();
        }
        shard.sort();
        let size = group_size.min(m - id);
        let mut out: Vec<K> = Vec::with_capacity(size - 1);
        for b in 1..size {
            let idx = (b * shard.len()) / size;
            out.push(shard[idx.min(shard.len() - 1)].clone());
        }
        out
    })?;

    // Step 4b: intra-group broadcast tree for the fine splitters.
    let splitter_words = group_size; // ~1 word per key, checked by runtime
    let fanout = (cap / splitter_words.max(1)).max(1);
    let mut fine = fine;
    let mut holders = 1usize;
    let mut step_idx = 0usize;
    while holders < group_size {
        let h = holders;
        let new_total = (h + h * fanout).min(group_size);
        let label = format!("gsort:fine-bcast{step_idx}");
        fine = rt.round(&label, fine, move |id, shard, em| {
            if shard.is_empty() {
                return shard;
            }
            let leader = (id / group_size) * group_size;
            let rank = id - leader;
            if rank >= h {
                return shard;
            }
            let first = h + rank * fanout;
            let last = (first + fanout).min(new_total);
            for t in first..last {
                let dest = leader + t;
                if dest < m {
                    for k in &shard {
                        em.send(dest, k.clone());
                    }
                }
            }
            shard
        })?;
        holders = new_total;
        step_idx += 1;
    }
    let fine_parts = fine.into_parts();

    // Step 5: final route within the group + local sort.
    let final_routed = rt.round("gsort:route-fine", routed, move |id, shard, em| {
        let leader = (id / group_size) * group_size;
        let sp = &fine_parts[id];
        for rec in shard {
            let k = key(&rec);
            em.send(leader + sp.partition_point(|s| *s <= k), rec);
        }
        Vec::new()
    })?;
    rt.map_local(final_routed, move |_, mut shard| {
        shard.sort_by_key(key);
        shard
    })
}

/// Evenly subsamples a sorted vector down to at most `cap` elements.
fn subsample<K: Clone>(mut v: Vec<K>, cap: usize) -> Vec<K> {
    if v.len() <= cap {
        return v;
    }
    let step = v.len() as f64 / cap as f64;
    let mut out = Vec::with_capacity(cap);
    for i in 0..cap {
        out.push(v[(i as f64 * step) as usize].clone());
    }
    v.clear();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rt(cap: usize, machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(1 << 12, cap, machines).with_threads(4))
            .build()
    }

    #[test]
    fn sorts_random_data_globally() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..10_000)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut rt = rt(512, 40);
        let dist = rt.distribute(data).unwrap();
        let sorted = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        assert_eq!(rt.gather(sorted), expect);
    }

    #[test]
    fn uses_constant_rounds() {
        let mut rt = rt(512, 40);
        let dist = rt.distribute((0..2000u64).rev().collect()).unwrap();
        let _ = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        assert!(
            rt.metrics().rounds() <= 5,
            "rounds = {}",
            rt.metrics().rounds()
        );
    }

    #[test]
    fn sorts_on_single_machine() {
        let mut rt = rt(512, 1);
        let dist = rt.distribute(vec![3u64, 1, 2]).unwrap();
        let sorted = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        assert_eq!(rt.gather(sorted), vec![1, 2, 3]);
    }

    #[test]
    fn sorts_by_custom_key() {
        let mut rt = rt(512, 8);
        let data: Vec<(u64, u64)> = (0..100).map(|i| (i, 99 - i)).collect();
        let dist = rt.distribute(data).unwrap();
        let sorted = sort_by_key(&mut rt, dist, |r| r.1).unwrap();
        let out = rt.gather(sorted);
        for w in out.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn handles_heavily_skewed_duplicates() {
        let mut data: Vec<u64> = vec![42; 500];
        data.extend(0..100u64);
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(1 << 12, 1024, 8).with_threads(4))
            .build();
        let dist = rt.distribute(data.clone()).unwrap();
        let sorted = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(rt.gather(sorted), expect);
    }

    #[test]
    fn two_level_sorts_when_machines_exceed_capacity() {
        // M = 120 machines with 64-word capacity: 2M > s forces the
        // two-level path (single-level splitters would not fit).
        let mut rng = StdRng::seed_from_u64(21);
        let data: Vec<u64> = (0..3000).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(1 << 14, 128, 120).with_threads(4))
            .build();
        let dist = rt.distribute(data).unwrap();
        let sorted = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        assert_eq!(rt.gather(sorted), expect);
        assert_eq!(rt.metrics().violations(), 0);
    }

    #[test]
    fn two_level_partial_last_group_keeps_its_own_machines() {
        // 120 machines form groups of 11, the last one holding only 10.
        // Its leader must derive 9 fine splitters: a tenth bucket would
        // land on machine 119 on top of its own and overflow it.
        let mut rng = StdRng::seed_from_u64(21);
        let data: Vec<u64> = (0..3000).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(1 << 14, 128, 120).with_threads(4))
            .build();
        let even = Dist::from_parts(data.chunks(25).map(<[u64]>::to_vec).collect());
        let sorted = sort_two_level(&mut rt, even, |x| *x).unwrap();
        assert_eq!(rt.gather(sorted), expect);
        assert_eq!(rt.metrics().violations(), 0);
    }

    #[test]
    fn two_level_round_count_is_bounded() {
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(1 << 14, 128, 120).with_threads(4))
            .build();
        let dist = rt.distribute((0..2000u64).rev().collect()).unwrap();
        let _ = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        assert!(
            rt.metrics().rounds() <= 14,
            "rounds = {}",
            rt.metrics().rounds()
        );
    }

    #[test]
    fn two_level_explicit_call_matches_single_level() {
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<u64> = (0..1500).map(|_| rng.gen_range(0..10_000)).collect();
        let mut rt1 = Runtime::builder()
            .config(MpcConfig::explicit(1 << 14, 2048, 16).with_threads(4))
            .build();
        let d1 = rt1.distribute(data.clone()).unwrap();
        let s1 = sort_single_level(&mut rt1, d1, |x| *x).unwrap();
        let mut rt2 = Runtime::builder()
            .config(MpcConfig::explicit(1 << 14, 2048, 16).with_threads(4))
            .build();
        let d2 = rt2.distribute(data).unwrap();
        let s2 = sort_two_level(&mut rt2, d2, |x| *x).unwrap();
        assert_eq!(rt1.gather(s1), rt2.gather(s2));
    }

    #[test]
    fn two_level_handles_duplicate_heavy_input() {
        // Equal keys must colocate on one machine, so the largest
        // duplicate group must fit in capacity; beyond that, skew is
        // handled by routing.
        let mut data: Vec<u64> = vec![7; 100];
        data.extend((0..400u64).map(|i| i * 3));
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(1 << 14, 160, 100).with_threads(4))
            .build();
        let dist = rt.distribute(data).unwrap();
        let sorted = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        assert_eq!(rt.gather(sorted), expect);
    }

    #[test]
    fn two_level_reports_failure_on_oversized_duplicate_group() {
        // 800 equal keys cannot fit one 96-word machine: the sort must
        // fail cleanly (capacity error), not mis-sort.
        let mut data: Vec<u64> = vec![7; 800];
        data.extend((0..400u64).map(|i| i * 3));
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(1 << 14, 96, 100).with_threads(4))
            .build();
        let dist = rt.distribute(data).unwrap();
        let err = sort_by_key(&mut rt, dist, |x| *x).unwrap_err();
        assert!(matches!(err, crate::MpcError::CapacityExceeded { .. }));
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let mut rt = rt(128, 4);
        let dist = rt.distribute(Vec::<u64>::new()).unwrap();
        let sorted = sort_by_key(&mut rt, dist, |x| *x).unwrap();
        assert!(rt.gather(sorted).is_empty());
    }
}
