//! MPC implementation of the FJLT (paper Algorithm 3 / Theorem 3).
//!
//! The transform runs in four phases on coordinate records
//! `(point, index, value)`:
//!
//! 1. **D** — multiply each record by the sign `D_{jj}` (machine-local;
//!    signs derive from the broadcast seed, so no table is shipped);
//! 2. **H** — distributed Walsh–Hadamard transform: the `log₂ d`
//!    butterfly stages are grouped into super-rounds of `b` bits. Each
//!    super-round co-locates, per point, the `2^b` coordinates sharing
//!    all index bits outside the group (one shuffle round), applies the
//!    `b` stages locally, and re-emits. `⌈log₂(d)/b⌉ = O(1/ε)` rounds —
//!    the same schedule as the MPC FFT of \[45\] that the paper invokes;
//! 3. **P** — every machine could derive `P` from the broadcast seed;
//!    the simulation derives it once and shares the copy read-only,
//!    which is the same pure function, memoized. When the WHT ran in at
//!    most one super-round (`8·d_pad ≤ capacity`, every bench scale),
//!    each point's whole vector already sits on one machine, which
//!    applies `P` locally with no communication. Otherwise (the paper's
//!    `d > s` case) every coordinate fans out to the nonzeros of `P`'s
//!    column, and contributions are summed by destination coordinate
//!    (one shuffle round + local fold). The local path adds each
//!    output's contributions in the order that fold would receive them
//!    from the point's one machine, so skipping the round keeps the bits;
//! 4. **gather** — output records are collected into a `k`-dimensional
//!    [`PointSet`].
//!
//! With the same [`FjltParams`], this computes the *same linear map* as
//! [`crate::fjlt::Fjlt`] (exactly for `D`/`H`; `P`'s additions may
//! reassociate, giving `≈1e-12` relative differences).

use crate::fjlt::FjltParams;
use treeemb_geom::PointSet;
use treeemb_linalg::random::mix2;
use treeemb_linalg::sparse::fjlt_projection;
use treeemb_mpc::{MpcError, MpcResult, Runtime, Words};

/// One coordinate of one point in transit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coord {
    /// Point id.
    pub pt: u32,
    /// Coordinate index (input: `0..d_pad`; output: `0..k`).
    pub idx: u32,
    /// Value.
    pub val: f64,
}

impl Words for Coord {
    fn words(&self) -> usize {
        2 // packed (pt, idx) + value
    }
}

/// Applies the FJLT to `ps` on the simulated cluster. Returns the
/// `k`-dimensional embedded point set.
///
/// Fails with [`MpcError::AlgorithmFailure`] if `ps.dim()` differs
/// from `params.d`.
pub fn fjlt_mpc(rt: &mut Runtime, ps: &PointSet, params: &FjltParams) -> MpcResult<PointSet> {
    if ps.dim() != params.d {
        return Err(MpcError::AlgorithmFailure(format!(
            "point set has dimension {} but the FJLT parameters expect {}",
            ps.dim(),
            params.d
        )));
    }
    let mut sp = treeemb_obs::span!("fjlt.transform", "n" = ps.len(), "d" = params.d);
    sp.arg("k", params.k as u64);
    let n = ps.len();
    if n == 0 {
        return Ok(PointSet::new(params.k.max(1)));
    }
    if n > u32::MAX as usize {
        return Err(MpcError::AlgorithmFailure(
            "too many points for u32 ids".into(),
        ));
    }
    let m = rt.num_machines();

    // Load coordinate records (zeros omitted; they are implicit).
    let load_sp = treeemb_obs::span!("fjlt.load");
    let mut records = Vec::with_capacity(n * params.d);
    for (pt, p) in ps.iter().enumerate() {
        for (j, &v) in p.iter().enumerate() {
            if v != 0.0 {
                records.push(Coord {
                    pt: pt as u32,
                    idx: j as u32,
                    val: v,
                });
            }
        }
    }
    let mut dist = rt.distribute(records)?;
    drop(load_sp);

    // Phase D: machine-local sign flips.
    let sign_sp = treeemb_obs::span!("fjlt.sign");
    let p_d = *params;
    dist = rt.map_local(dist, move |_, mut shard| {
        for r in &mut shard {
            r.val *= p_d.d_sign(r.idx as usize);
        }
        shard
    })?;
    drop(sign_sp);

    // Phase H: butterfly super-rounds.
    let wht_sp = treeemb_obs::span!("fjlt.wht");
    let total_bits = params.d_pad.trailing_zeros();
    // Group size: each class holds 2^b coords of one point; a machine
    // must fit many classes, so bound 2^b by a quarter of capacity.
    let b_max = (rt.capacity() / 8).max(2).ilog2();
    let b = b_max.min(total_bits).max(1);
    let mut lo = 0u32;
    while lo < total_bits {
        let hi = (lo + b).min(total_bits);
        let width = hi - lo;
        let blk = 1usize << width;
        let group_mask: u32 = ((blk - 1) as u32) << lo;
        let label = format!("fjlt:wht:{lo}..{hi}");
        // Route: class = (pt, idx with group bits cleared).
        let routed = rt.round(&label, dist, move |_, shard, em| {
            for r in shard {
                let class = ((r.pt as u64) << 32) | (r.idx & !group_mask) as u64;
                let dest = (mix2(class, 0x87A5) % m as u64) as usize;
                em.send(dest, r);
            }
            Vec::new()
        })?;
        // Local stages: gather each class into a dense block, butterfly.
        dist = rt.map_local(routed, move |_, shard| {
            let mut classes: std::collections::BTreeMap<(u32, u32), Vec<f64>> =
                std::collections::BTreeMap::new();
            for r in shard {
                let rest = r.idx & !group_mask;
                let slot = ((r.idx & group_mask) >> lo) as usize;
                classes
                    .entry((r.pt, rest))
                    .or_insert_with(|| vec![0.0; blk])[slot] = r.val;
            }
            let mut out = Vec::with_capacity(classes.len() * blk);
            for ((pt, rest), mut vals) in classes {
                treeemb_linalg::wht::wht_inplace(&mut vals);
                for (t, v) in vals.into_iter().enumerate() {
                    if v != 0.0 {
                        out.push(Coord {
                            pt,
                            idx: rest | ((t as u32) << lo),
                            val: v,
                        });
                    }
                }
            }
            out
        })?;
        lo = hi;
    }
    drop(wht_sp);

    // Phase P: apply the sparse projection and scale.
    let project_sp = treeemb_obs::span!("fjlt.project");
    let p = fjlt_projection(params.k, params.d_pad, params.q, params.p_seed());
    let p = &p;
    let (k, scale) = (params.k, params.output_scale());
    let summed = if b >= total_bits {
        // At most one WHT super-round ran, so each point's vector is one
        // run of index-ascending records on one machine (module doc).
        rt.map_local(dist, move |_, shard| {
            let mut acc: Vec<Option<f64>> = vec![None; k];
            let mut out = Vec::new();
            for run in shard.chunk_by(|a, b| a.pt == b.pt) {
                for r in run {
                    for (i, pij) in p.column(r.idx as usize) {
                        *acc[i as usize].get_or_insert(0.0) += pij * r.val;
                    }
                }
                for (i, a) in acc.iter_mut().enumerate() {
                    if let Some(val) = a.take() {
                        out.push(Coord {
                            pt: run[0].pt,
                            idx: i as u32,
                            val: val * scale,
                        });
                    }
                }
            }
            out
        })?
    } else {
        // A point's vector spans machines: every coordinate fans out to
        // the nonzeros of its column of P, and contributions are summed
        // by destination coordinate.
        let routed = rt.round("fjlt:project", dist, move |_, shard, em| {
            for r in shard {
                for (i, pij) in p.column(r.idx as usize) {
                    let key = ((r.pt as u64) << 32) | i as u64;
                    let dest = (mix2(key, 0x9B0B) % m as u64) as usize;
                    em.send(
                        dest,
                        Coord {
                            pt: r.pt,
                            idx: i,
                            val: pij * r.val,
                        },
                    );
                }
            }
            Vec::new()
        })?;
        rt.map_local(routed, move |_, shard| {
            let mut acc: std::collections::BTreeMap<(u32, u32), f64> =
                std::collections::BTreeMap::new();
            for r in shard {
                *acc.entry((r.pt, r.idx)).or_insert(0.0) += r.val;
            }
            acc.into_iter()
                .map(|((pt, idx), val)| Coord {
                    pt,
                    idx,
                    val: val * scale,
                })
                .collect()
        })?
    };
    drop(project_sp);

    // Gather into a dense k-dimensional point set.
    let _gather_sp = treeemb_obs::span!("fjlt.gather");
    let out_records = rt.gather(summed);
    let mut flat = vec![0.0; n * params.k];
    for r in out_records {
        flat[r.pt as usize * params.k + r.idx as usize] = r.val;
    }
    Ok(PointSet::from_flat(params.k, flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fjlt::Fjlt;
    use treeemb_geom::generators;
    use treeemb_mpc::{FaultEvent, FaultPlan, FaultSpec, MpcConfig};

    fn runtime(cap: usize, machines: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(1 << 16, cap, machines).with_threads(4))
            .build()
    }

    #[test]
    fn matches_sequential_transform() {
        let ps = generators::uniform_cube(12, 24, 256, 3);
        let params = FjltParams::explicit(24, 8, 0.5, 42);
        let seq = Fjlt::new(params).apply(&ps);
        let mut rt = runtime(4096, 8);
        let par = fjlt_mpc(&mut rt, &ps, &params).unwrap();
        assert_eq!(par.len(), 12);
        assert_eq!(par.dim(), 8);
        for i in 0..ps.len() {
            for j in 0..8 {
                let (a, b) = (seq.point(i)[j], par.point(i)[j]);
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_across_machine_counts() {
        let ps = generators::uniform_cube(6, 16, 64, 5);
        let params = FjltParams::explicit(16, 4, 0.7, 9);
        let seq = Fjlt::new(params).apply(&ps);
        for machines in [1usize, 3, 16] {
            let mut rt = runtime(8192, machines);
            let par = fjlt_mpc(&mut rt, &ps, &params).unwrap();
            for i in 0..ps.len() {
                for j in 0..4 {
                    assert!(
                        (seq.point(i)[j] - par.point(i)[j]).abs() < 1e-9,
                        "machines {machines}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_count_is_constant_in_n() {
        let params = FjltParams::explicit(32, 8, 0.5, 1);
        let mut rounds = Vec::new();
        for n in [8usize, 32, 128] {
            let ps = generators::uniform_cube(n, 32, 512, 7);
            let mut rt = runtime(1 << 14, 16);
            let _ = fjlt_mpc(&mut rt, &ps, &params).unwrap();
            rounds.push(rt.metrics().rounds());
        }
        assert_eq!(rounds[0], rounds[1]);
        assert_eq!(rounds[1], rounds[2]);
    }

    /// 256 machines of 256 words: `8·d_pad` exceeds capacity for
    /// `d_pad = 64`, so the WHT takes several super-rounds and `P` is
    /// applied by the distributed round.
    fn spread_runtime(plan: Option<FaultPlan>) -> Runtime {
        let mut builder =
            Runtime::builder().config(MpcConfig::explicit(1 << 16, 256, 256).with_threads(4));
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan);
        }
        builder.build()
    }

    fn spread_input() -> (PointSet, FjltParams) {
        (
            generators::uniform_cube(8, 64, 128, 2),
            FjltParams::explicit(64, 8, 0.5, 3),
        )
    }

    #[test]
    fn wht_rounds_shrink_with_capacity() {
        let (ps, params) = spread_input();
        let mut small = spread_runtime(None);
        let _ = fjlt_mpc(&mut small, &ps, &params).unwrap();
        let mut big = runtime(1 << 14, 64);
        let _ = fjlt_mpc(&mut big, &ps, &params).unwrap();
        let small_wht = small.metrics().rounds_labeled("fjlt:wht");
        let big_wht = big.metrics().rounds_labeled("fjlt:wht");
        assert!(small_wht > big_wht, "{small_wht} vs {big_wht}");
        assert_eq!(
            big_wht, 1,
            "big capacity should do the WHT in one super-round"
        );
    }

    /// The distributed projection and the machine-local one compute the
    /// same map; only the fold order differs between the two
    /// configurations.
    #[test]
    fn local_and_distributed_projection_agree() {
        let (ps, params) = spread_input();
        let mut small = spread_runtime(None);
        let spread = fjlt_mpc(&mut small, &ps, &params).unwrap();
        let mut big = runtime(1 << 14, 64);
        let local = fjlt_mpc(&mut big, &ps, &params).unwrap();
        assert!(small.metrics().rounds_labeled("fjlt:wht") >= 2);
        assert_eq!(small.metrics().rounds_labeled("fjlt:project"), 1);
        assert_eq!(big.metrics().rounds_labeled("fjlt:project"), 0);
        for (a, b) in spread.as_flat().iter().zip(local.as_flat()) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(b.abs()), "{a} vs {b}");
        }
    }

    /// Retried drops in the distributed `fjlt:project` round leave the
    /// output bits unchanged.
    #[test]
    fn distributed_projection_survives_retryable_faults() {
        let (ps, params) = spread_input();
        let mut clean_rt = spread_runtime(None);
        let clean = fjlt_mpc(&mut clean_rt, &ps, &params).unwrap();
        let project = clean_rt
            .metrics()
            .round_stats()
            .iter()
            .find(|r| r.label == "fjlt:project")
            .expect("the distributed path ran")
            .round;
        let mut plan = FaultPlan::new(11).with_max_retries(3);
        for src in 0..64 {
            plan = plan
                .with_fault(FaultSpec::Drop {
                    round: project,
                    attempt: 0,
                    src,
                    msg_index: 0,
                })
                .with_fault(FaultSpec::Drop {
                    round: project,
                    attempt: 0,
                    src,
                    msg_index: 1,
                });
        }
        let mut rt = spread_runtime(Some(plan));
        let out = fjlt_mpc(&mut rt, &ps, &params).unwrap();
        assert_eq!(
            out.as_flat()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            clean
                .as_flat()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        let dropped = |msg: usize| {
            rt.fault_log().iter().any(|e| {
                matches!(e, FaultEvent::Injected(FaultSpec::Drop { round, msg_index, .. })
                         if *round == project && *msg_index == msg)
            })
        };
        assert!(dropped(0) && dropped(1));
        assert!(rt.metrics().retried_rounds() >= 1);
    }

    /// `f64::to_bits` of `fjlt_mpc`'s output on a fixed input. How `P`
    /// is derived and how rounds deliver may change; the output bits may
    /// not, at any thread count.
    #[test]
    fn output_bits_are_pinned_across_thread_counts() {
        const GOLDEN: [u64; 24] = [
            0x4058dbc7ba4832eb,
            0x40412676e0b6b806,
            0xc049bdb2afa6dfc1,
            0x4055fabbb4f73494,
            0x405b9249dbfc477f,
            0x40386b03249453f3,
            0xc0517df4eb03efff,
            0x4062f262b45c66e7,
            0x40462a0570d53117,
            0xc0287706d75c97de,
            0xc059754e2d2e0cab,
            0x4049ae816a171a2d,
            0x40622cfe3c2f2cbc,
            0xc03636702b4dec85,
            0xc034dbd2523b5301,
            0x40622e712af29825,
            0x4052800a03e26b0a,
            0x402ff1379c39c604,
            0xc040ce7a5148ec86,
            0x405005cc390025c3,
            0x4050e16aa989982b,
            0x400d65f9c1c865cc,
            0xc01a085fca8c9f86,
            0x40534de41d4eebcf,
        ];
        let ps = generators::uniform_cube(6, 20, 64, 5);
        let params = FjltParams::explicit(20, 4, 0.5, 77);
        for threads in [1usize, 2, 4] {
            let mut rt = Runtime::builder()
                .config(MpcConfig::explicit(1 << 16, 4096, 3).with_threads(threads))
                .build();
            let out = fjlt_mpc(&mut rt, &ps, &params).unwrap();
            let bits: Vec<u64> = out.as_flat().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, GOLDEN, "threads {threads}");
        }
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let ps = generators::uniform_cube(4, 12, 64, 1);
        let params = FjltParams::explicit(16, 4, 0.5, 1);
        let mut rt = runtime(4096, 4);
        match fjlt_mpc(&mut rt, &ps, &params) {
            Err(MpcError::AlgorithmFailure(msg)) => {
                assert!(msg.contains("12") && msg.contains("16"), "{msg}");
            }
            other => panic!("expected AlgorithmFailure, got {other:?}"),
        }
        assert_eq!(rt.metrics().rounds(), 0, "fails before any round");
    }

    #[test]
    fn empty_input_is_fine() {
        let ps = PointSet::new(4);
        let params = FjltParams::explicit(4, 2, 0.5, 1);
        let mut rt = runtime(1024, 4);
        let out = fjlt_mpc(&mut rt, &ps, &params).unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn preserves_distances_like_sequential() {
        let ps = generators::uniform_cube(16, 48, 1024, 11);
        let params = FjltParams::for_dataset(16, 48, 0.45, 13);
        let mut rt = runtime(1 << 15, 8);
        let out = fjlt_mpc(&mut rt, &ps, &params).unwrap();
        let report = crate::audit::distortion_report(&ps, &out);
        assert!(
            report.max_expansion < 2.0 && report.max_contraction > 0.5,
            "{report:?}"
        );
    }
}
