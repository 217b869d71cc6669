//! Aggregation trees: global reductions in O(log_f M) = O(1/ε) rounds.

use crate::cluster::{Dist, Runtime};
use crate::error::MpcResult;
use crate::words::Words;

/// Reduces every machine's shard to a single value with `local`, then
/// combines the per-machine partials up a fanout-`f` aggregation tree
/// with `combine`. The final value lands on machine 0 and is returned to
/// the host.
///
/// Returns `None` for an empty cluster-wide collection.
pub fn reduce<T, A, L, C>(
    rt: &mut Runtime,
    input: Dist<T>,
    local: L,
    combine: C,
) -> MpcResult<Option<A>>
where
    T: Words + Send + Sync + Clone,
    A: Words + Send + Sync + Clone,
    L: Fn(&[T]) -> Option<A> + Sync,
    C: Fn(A, A) -> A + Sync + Send + Copy,
{
    let _sp = treeemb_obs::span!("mpc.reduce", "items" = input.total_len());
    // Local reduction (fused, no round).
    let partials: Vec<Vec<A>> = input
        .parts()
        .iter()
        .map(|p| local(p).into_iter().collect::<Vec<A>>())
        .collect();
    let mut dist = Dist::from_parts(partials);

    let mut active = rt.num_machines();
    let mut step = 0usize;
    while active > 1 {
        // Fanout per step, sized to the actual partial footprint: a
        // parent keeps one partial and receives up to `fanout` more.
        let part_w = dist.max_part_words().max(1);
        // A parent keeps one partial and receives `fanout` more:
        // (fanout + 1) * part_w must fit in capacity.
        let fanout = (rt.capacity() / part_w).saturating_sub(1).max(2);
        let parents = active.div_ceil(fanout);
        let label = format!("reduce:step{step}");
        dist = rt.round(&label, dist, move |id, shard, em| {
            if shard.is_empty() {
                return shard;
            }
            if id < parents {
                return shard; // parents keep their partials
            }
            let parent = id / fanout;
            for a in shard {
                em.send(parent, a);
            }
            Vec::new()
        })?;
        // Parents fold their received partials locally (fused).
        dist = rt.map_local(dist, move |_, shard| {
            let mut it = shard.into_iter();
            match it.next() {
                None => Vec::new(),
                Some(first) => vec![it.fold(first, combine)],
            }
        })?;
        active = parents;
        step += 1;
    }
    let mut parts = dist.into_parts();
    Ok(parts.swap_remove(0).pop())
}

/// Global sum of a numeric projection.
pub fn sum_by<T, F>(rt: &mut Runtime, input: &Dist<T>, f: F) -> MpcResult<f64>
where
    T: Words + Send + Sync + Clone,
    F: Fn(&T) -> f64 + Sync,
{
    let partial: Vec<Vec<f64>> = input
        .parts()
        .iter()
        .map(|p| vec![p.iter().map(&f).sum::<f64>()])
        .collect();
    let dist = Dist::from_parts(partial);
    Ok(reduce(rt, dist, |s| s.first().copied(), |a, b| a + b)?.unwrap_or(0.0))
}

/// Global maximum of an ordered projection.
pub fn max_by<T, K, F>(rt: &mut Runtime, input: &Dist<T>, f: F) -> MpcResult<Option<K>>
where
    T: Words + Send + Sync + Clone,
    K: Ord + Words + Send + Sync + Clone,
    F: Fn(&T) -> K + Sync,
{
    let partial: Vec<Vec<K>> = input
        .parts()
        .iter()
        .map(|p| p.iter().map(&f).max().into_iter().collect::<Vec<K>>())
        .collect();
    let dist = Dist::from_parts(partial);
    reduce(
        rt,
        dist,
        |s| s.iter().max().cloned(),
        |a, b| if a >= b { a } else { b },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn rt(machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(1 << 12, 64, machines).with_threads(4))
            .build()
    }

    #[test]
    fn sum_matches_closed_form() {
        let mut rt = rt(20);
        let dist = rt.distribute((1..=100u64).collect()).unwrap();
        let s = sum_by(&mut rt, &dist, |x| *x as f64).unwrap();
        assert_eq!(s, 5050.0);
    }

    #[test]
    fn max_finds_global_extreme() {
        let mut rt = rt(15);
        let data: Vec<u64> = (0..500).map(|i| (i * 37) % 499).collect();
        let dist = rt.distribute(data.clone()).unwrap();
        let m = max_by(&mut rt, &dist, |x| *x).unwrap();
        assert_eq!(m, data.iter().copied().max());
    }

    #[test]
    fn reduce_on_empty_is_none() {
        let mut rt = rt(4);
        let dist = rt.distribute(Vec::<u64>::new()).unwrap();
        let out = reduce(&mut rt, dist, |s| s.first().copied(), |a: u64, b| a + b).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn round_count_constant_for_large_clusters() {
        let mut rt = Runtime::builder()
            .config(MpcConfig::explicit(1 << 16, 64, 900).with_threads(8))
            .build();
        let dist = rt.distribute((0..4000u64).collect()).unwrap();
        let _ = sum_by(&mut rt, &dist, |x| *x as f64).unwrap();
        // fanout = 32: 900 -> 29 -> 1, i.e. 2 steps.
        assert!(
            rt.metrics().rounds() <= 3,
            "rounds = {}",
            rt.metrics().rounds()
        );
    }

    #[test]
    fn single_machine_reduction_needs_no_rounds() {
        let mut rt = rt(1);
        let dist = rt.distribute(vec![1u64, 2, 3]).unwrap();
        assert_eq!(sum_by(&mut rt, &dist, |x| *x as f64).unwrap(), 6.0);
        assert_eq!(rt.metrics().rounds(), 0);
    }
}
