//! Hash shuffles: co-locate records by key in one round.

use crate::cluster::{Dist, Runtime};
use crate::error::MpcResult;
use crate::words::Words;
use treeemb_linalg::random::mix2;

/// Routes every record to machine `hash(key) % M`, co-locating equal
/// keys. One round. Under a well-spread key distribution the load per
/// machine concentrates around `total/M`; heavy skew can legitimately
/// breach capacity, which the round reports as an error.
pub fn shuffle_by_key<T, F>(rt: &mut Runtime, input: Dist<T>, key: F) -> MpcResult<Dist<T>>
where
    T: Words + Send + Sync + Clone,
    F: Fn(&T) -> u64 + Sync + Send + Copy,
{
    let _sp = treeemb_obs::span!("mpc.shuffle", "items" = input.total_len());
    let m = rt.num_machines();
    rt.round("shuffle", input, move |_, shard, em| {
        for rec in shard {
            let dest = (mix2(key(&rec), 0x5AFE_C0DE) % m as u64) as usize;
            em.send(dest, rec);
        }
        Vec::new()
    })
}

/// Shuffles by key and deduplicates records with equal keys (keeping an
/// arbitrary—but deterministic, source-order—representative). One round
/// plus local work; the distributed-deduplication step used when
/// Algorithm 2 merges tree nodes discovered by different machines.
pub fn dedup_by_key<T, F>(rt: &mut Runtime, input: Dist<T>, key: F) -> MpcResult<Dist<T>>
where
    T: Words + Send + Sync + Clone,
    F: Fn(&T) -> u64 + Sync + Send + Copy,
{
    let _sp = treeemb_obs::span!("mpc.dedup");
    let shuffled = shuffle_by_key(rt, input, key)?;
    rt.map_local(shuffled, move |_, shard| {
        let mut seen = std::collections::HashSet::with_capacity(shard.len());
        let mut out = Vec::with_capacity(shard.len());
        for rec in shard {
            if seen.insert(key(&rec)) {
                out.push(rec);
            }
        }
        out
    })
}

/// Groups records by key on their destination machines and applies a
/// per-group fold. Returns one output record per distinct key.
pub fn group_fold<T, U, F, G>(
    rt: &mut Runtime,
    input: Dist<T>,
    key: F,
    fold: G,
) -> MpcResult<Dist<U>>
where
    T: Words + Send + Sync + Clone,
    U: Words + Send + Sync,
    F: Fn(&T) -> u64 + Sync + Send + Copy,
    G: Fn(u64, Vec<T>) -> U + Sync + Send,
{
    let _sp = treeemb_obs::span!("mpc.group_fold");
    let shuffled = shuffle_by_key(rt, input, key)?;
    rt.map_local(shuffled, move |_, shard| {
        let mut groups: std::collections::HashMap<u64, Vec<T>> = std::collections::HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for rec in shard {
            let k = key(&rec);
            let entry = groups.entry(k).or_default();
            if entry.is_empty() {
                order.push(k);
            }
            entry.push(rec);
        }
        order
            .into_iter()
            .map(|k| {
                let group = groups.remove(&k).expect("group exists");
                fold(k, group)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn rt(machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(1 << 12, 256, machines).with_threads(4))
            .build()
    }

    #[test]
    fn shuffle_colocates_equal_keys() {
        let mut rt = rt(8);
        let data: Vec<u64> = (0..400).map(|i| i % 20).collect();
        let dist = rt.distribute(data).unwrap();
        let out = shuffle_by_key(&mut rt, dist, |x| *x).unwrap();
        // Every key appears on exactly one machine.
        for k in 0..20u64 {
            let machines_with_k = out.parts().iter().filter(|p| p.contains(&k)).count();
            assert_eq!(machines_with_k, 1, "key {k}");
        }
        assert_eq!(rt.metrics().rounds(), 1);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rt = rt(8);
        let data: Vec<u64> = (0..500).collect();
        let dist = rt.distribute(data.clone()).unwrap();
        let out = shuffle_by_key(&mut rt, dist, |x| *x).unwrap();
        let mut gathered = rt.gather(out);
        gathered.sort_unstable();
        assert_eq!(gathered, data);
    }

    #[test]
    fn dedup_keeps_one_per_key() {
        let mut rt = rt(8);
        let data: Vec<u64> = (0..600).map(|i| i % 37).collect();
        let dist = rt.distribute(data).unwrap();
        let out = dedup_by_key(&mut rt, dist, |x| *x).unwrap();
        let mut gathered = rt.gather(out);
        gathered.sort_unstable();
        assert_eq!(gathered, (0..37u64).collect::<Vec<_>>());
    }

    #[test]
    fn group_fold_counts_occurrences() {
        let mut rt = rt(8);
        let data: Vec<u64> = (0..300).map(|i| i % 10).collect();
        let dist = rt.distribute(data).unwrap();
        let counts = group_fold(&mut rt, dist, |x| *x, |k, group| (k, group.len() as u64)).unwrap();
        let mut gathered = rt.gather(counts);
        gathered.sort_unstable();
        assert_eq!(gathered, (0..10u64).map(|k| (k, 30u64)).collect::<Vec<_>>());
    }

    #[test]
    fn group_fold_on_empty_input() {
        let mut rt = rt(4);
        let dist = rt.distribute(Vec::<u64>::new()).unwrap();
        let out = group_fold(&mut rt, dist, |x| *x, |k, g| (k, g.len() as u64)).unwrap();
        assert!(rt.gather(out).is_empty());
    }
}
