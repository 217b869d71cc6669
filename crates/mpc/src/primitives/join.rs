//! Distributed hash join: co-locate two collections by key and merge.
//!
//! The relational workhorse behind iterative tree/graph algorithms
//! (pointer doubling joins each node with its ancestor's record). One
//! communication round: both sides route to `hash(key) % M`, then each
//! machine joins locally.

use crate::cluster::{Dist, Runtime};
use crate::error::MpcResult;
use crate::words::Words;
use std::collections::HashMap;
use treeemb_linalg::random::mix2;

/// Tagged union shipping both sides of a join through one round.
#[derive(Debug, Clone)]
enum Side<L, R> {
    Left(L),
    Right(R),
}

impl<L: Words, R: Words> Words for Side<L, R> {
    fn words(&self) -> usize {
        match self {
            Side::Left(l) => l.words(),
            Side::Right(r) => r.words(),
        }
    }
}

/// Inner hash join: for every pair `(l, r)` with `lkey(l) == rkey(r)`,
/// emits `merge(l, r)`. Right-side keys should be unique (typical for
/// lookup tables — e.g. one record per tree node); duplicate right keys
/// keep the first arrival (deterministic source order).
pub fn join_by_key<L, R, U, KL, KR, M>(
    rt: &mut Runtime,
    left: Dist<L>,
    right: Dist<R>,
    lkey: KL,
    rkey: KR,
    merge: M,
) -> MpcResult<Dist<U>>
where
    L: Words + Send + Sync + Clone,
    R: Words + Send + Sync + Clone,
    U: Words + Send + Sync,
    KL: Fn(&L) -> u64 + Sync + Send + Copy,
    KR: Fn(&R) -> u64 + Sync + Send + Copy,
    M: Fn(&L, &R) -> U + Sync + Send,
{
    let _sp = treeemb_obs::span!("mpc.join");
    let m = rt.num_machines();
    // One round: both sides route by key hash. Left records are kept on
    // their destination; right records likewise; then local join.
    let mut mixed_parts: Vec<Vec<Side<L, R>>> = Vec::with_capacity(m);
    for (lp, rp) in left.into_parts().into_iter().zip(right.into_parts()) {
        let mut v: Vec<Side<L, R>> = Vec::with_capacity(lp.len() + rp.len());
        v.extend(lp.into_iter().map(Side::Left));
        v.extend(rp.into_iter().map(Side::Right));
        mixed_parts.push(v);
    }
    let routed = rt.round(
        "join:route",
        Dist::from_parts(mixed_parts),
        move |_, shard, em| {
            for rec in shard {
                let key = match &rec {
                    Side::Left(l) => lkey(l),
                    Side::Right(r) => rkey(r),
                };
                let dest = (mix2(key, 0x101_1E4) % m as u64) as usize;
                em.send(dest, rec);
            }
            Vec::new()
        },
    )?;
    rt.map_local(routed, move |_, shard| {
        let mut table: HashMap<u64, R> = HashMap::new();
        let mut lefts: Vec<L> = Vec::new();
        for rec in shard {
            match rec {
                Side::Right(r) => {
                    table.entry(rkey(&r)).or_insert(r);
                }
                Side::Left(l) => lefts.push(l),
            }
        }
        lefts
            .into_iter()
            .filter_map(|l| table.get(&lkey(&l)).map(|r| merge(&l, r)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn rt(machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(1 << 12, 1024, machines).with_threads(4))
            .build()
    }

    #[test]
    fn joins_matching_keys() {
        let mut rt = rt(8);
        let left = rt
            .distribute((0..100u64).map(|i| (i % 10, i)).collect())
            .unwrap();
        let right = rt
            .distribute((0..10u64).map(|k| (k, k * 1000)).collect())
            .unwrap();
        let joined = join_by_key(
            &mut rt,
            left,
            right,
            |l: &(u64, u64)| l.0,
            |r: &(u64, u64)| r.0,
            |l, r| (l.1, r.1),
        )
        .unwrap();
        let mut out = rt.gather(joined);
        out.sort_unstable();
        assert_eq!(out.len(), 100);
        for (lv, rv) in out {
            assert_eq!(rv, (lv % 10) * 1000);
        }
    }

    #[test]
    fn unmatched_left_records_are_dropped() {
        let mut rt = rt(4);
        let left = rt
            .distribute(vec![(1u64, 10u64), (2, 20), (3, 30)])
            .unwrap();
        let right = rt.distribute(vec![(2u64, 200u64)]).unwrap();
        let joined = join_by_key(
            &mut rt,
            left,
            right,
            |l: &(u64, u64)| l.0,
            |r: &(u64, u64)| r.0,
            |l, r| l.1 + r.1,
        )
        .unwrap();
        assert_eq!(rt.gather(joined), vec![220]);
    }

    #[test]
    fn join_is_one_round() {
        let mut rt = rt(8);
        let left = rt.distribute((0..50u64).collect()).unwrap();
        let right = rt.distribute((0..50u64).collect()).unwrap();
        let before = rt.metrics().rounds();
        let _ = join_by_key(&mut rt, left, right, |l| *l, |r| *r, |l, _| *l).unwrap();
        assert_eq!(rt.metrics().rounds() - before, 1);
    }

    #[test]
    fn empty_sides_join_to_empty() {
        let mut rt = rt(4);
        let left = rt.distribute(Vec::<u64>::new()).unwrap();
        let right = rt.distribute((0..5u64).collect()).unwrap();
        let joined = join_by_key(&mut rt, left, right, |l| *l, |r| *r, |l, _| *l).unwrap();
        assert!(rt.gather(joined).is_empty());
    }
}
