//! Property tests for the MPC runtime: primitives must be *correct for
//! every input* and *deterministic under any thread count*.

use proptest::prelude::*;
use treeemb_mpc::primitives::{aggregate, join, shuffle};
use treeemb_mpc::{MpcConfig, Runtime};

fn runtime(cap: usize, machines: usize, threads: usize) -> Runtime {
    Runtime::builder()
        .config(MpcConfig::explicit(1 << 14, cap, machines).with_threads(threads))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shuffle_preserves_multiset(
        data in proptest::collection::vec(0u64..1000, 0..400),
        machines in 1usize..20,
    ) {
        let mut rt = runtime(2048, machines, 4);
        let dist = rt.distribute(data.clone()).unwrap();
        let out = shuffle::shuffle_by_key(&mut rt, dist, |x| *x).unwrap();
        let mut got = rt.gather(out);
        got.sort_unstable();
        let mut expect = data;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn aggregates_match_host_computation(
        data in proptest::collection::vec(1u64..10_000, 0..400),
        machines in 1usize..30,
    ) {
        let mut rt = runtime(1024, machines, 4);
        let dist = rt.distribute(data.clone()).unwrap();
        let count = aggregate::reduce(&mut rt, dist.clone(), |s| Some(s.len() as u64), |a, b| a + b)
            .unwrap()
            .unwrap_or(0);
        prop_assert_eq!(count, data.len() as u64);
        let sum = aggregate::sum_by(&mut rt, &dist, |x| *x as f64).unwrap();
        prop_assert!((sum - data.iter().sum::<u64>() as f64).abs() < 1e-6);
        let max = aggregate::max_by(&mut rt, &dist, |x| *x).unwrap();
        prop_assert_eq!(max, data.iter().copied().max());
    }

    #[test]
    fn rounds_are_deterministic_across_thread_counts(
        data in proptest::collection::vec(0u64..50_000, 1..300),
        machines in 2usize..16,
    ) {
        let run = |threads: usize| {
            let mut rt = runtime(2048, machines, threads);
            let dist = rt.distribute(data.clone()).unwrap();
            let shuffled = shuffle::shuffle_by_key(&mut rt, dist, |x| x / 3).unwrap();
            let sums = shuffle::group_fold(&mut rt, shuffled.clone(), |x| x % 101, |k, g| {
                (k, g.iter().sum::<u64>())
            })
            .unwrap();
            let joined =
                join::join_by_key(&mut rt, shuffled, sums, |x| x % 101, |s| s.0, |x, s| x ^ s.1)
                    .unwrap();
            let total = aggregate::reduce(
                &mut rt,
                joined.clone(),
                |s| Some(s.iter().sum::<u64>()),
                |a, b| a + b,
            )
            .unwrap();
            // Shard boundaries AND contents must be identical.
            let parts: Vec<Vec<u64>> = joined.parts().to_vec();
            (parts, total, rt.metrics().rounds(), rt.metrics().total_sent_words())
        };
        let a = run(1);
        let b = run(8);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn dedup_keeps_exactly_distinct_keys(
        data in proptest::collection::vec(0u64..200, 0..400),
        machines in 1usize..20,
    ) {
        let mut rt = runtime(2048, machines, 4);
        let dist = rt.distribute(data.clone()).unwrap();
        let out = shuffle::dedup_by_key(&mut rt, dist, |x| *x).unwrap();
        let mut got = rt.gather(out);
        got.sort_unstable();
        let mut expect: Vec<u64> = data;
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(got, expect);
    }
}
