//! k-median on the tree embedding — the application that motivated
//! probabilistic tree embeddings historically (Bartal; FRT's `O(log n)`
//! bound "notably yielded the first polylogarithmic approximation for
//! the k-median problem", paper §1).
//!
//! On our HSTs the distance from an internal node `v` to *every* leaf
//! below it is the same value `down(v)` (level-uniform weights plus
//! tail-exact truncation), so `dist_T(c, m) = 2·down(lca)` where `lca`
//! is the lowest ancestor of client `c` whose subtree contains the
//! median `m` nearest to `c`. k-median on the tree then has an exact
//! `O(n·k²)` dynamic program:
//!
//! `dp[v][j]` = cost of serving all clients in `subtree(v)` with `j`
//! medians inside it — where `j = 0` defers every client upward at cost
//! charged by the lowest median-bearing ancestor `a` (`2·down(a)` per
//! client).
//!
//! Solving on the embedding and *pricing the chosen medians in Euclidean
//! space* gives an `O(E[distortion])`-approximation to Euclidean
//! k-median, exactly the classic reduction.

use treeemb_core::seq::Embedding;
use treeemb_geom::metrics::dist;
use treeemb_geom::PointSet;

/// Result of the tree k-median DP.
#[derive(Debug, Clone, PartialEq)]
pub struct KMedianResult {
    /// Chosen median points (size ≤ k; fewer only if n < k).
    pub medians: Vec<usize>,
    /// Optimal k-median cost under the tree metric.
    pub tree_cost: f64,
}

/// Exact k-median on the tree metric via subtree DP, returning the
/// chosen leaves (as point ids) and the optimal tree cost.
///
/// ```
/// use treeemb_apps::kmedian::tree_kmedian;
/// use treeemb_core::{params::HybridParams, seq::SeqEmbedder};
/// let ps = treeemb_geom::generators::uniform_cube(12, 4, 128, 1);
/// let emb = SeqEmbedder::new(HybridParams::for_dataset(&ps, 2).unwrap())
///     .embed(&ps, 3)
///     .unwrap();
/// let result = tree_kmedian(&emb, 2);
/// assert_eq!(result.medians.len(), 2);
/// ```
///
/// # Panics
/// Panics if `k == 0`.
pub fn tree_kmedian(emb: &Embedding, k: usize) -> KMedianResult {
    assert!(k >= 1, "k must be positive");
    let t = &emb.tree;
    let n_nodes = t.num_nodes();
    let k = k.min(t.num_points());

    // down[v]: distance from v to any leaf below (uniform; asserted).
    let mut down = vec![f64::NAN; n_nodes];
    for id in t.post_order() {
        let children = t.children(id);
        if children.is_empty() {
            down[id] = 0.0;
            continue;
        }
        let mut val = f64::NAN;
        for &c in children {
            let through = t.node(c).weight_to_parent + down[c];
            if val.is_nan() {
                val = through;
            } else {
                debug_assert!(
                    (val - through).abs() <= 1e-6 * (1.0 + val),
                    "non-uniform leaf depth under node {id}: {val} vs {through}"
                );
            }
        }
        down[id] = val;
    }
    let counts = t.subtree_counts();

    // dp[v][j], with one backpointer per (child stage, j): the knapsack
    // over v's children processes child c as one stage, and
    // back[back_at[c] + j] is the median count c got when the children
    // up to and including c hold j medians in total.
    const INF: f64 = f64::INFINITY;
    let mut dp: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];
    let mut back: Vec<u32> = Vec::new();
    let mut back_at = vec![0usize; n_nodes];
    for id in t.post_order() {
        let children = t.children(id);
        let cap = k.min(counts[id]);
        if children.is_empty() {
            // A leaf: either no median (defer) or a median here.
            dp[id] = vec![0.0; cap + 1];
            continue;
        }
        // Knapsack over children. acc[j] = best cost using the first
        // processed children with j medians total, where children with 0
        // medians charge count·2·down(id) (their clients exit at id) —
        // valid only when the final total j >= 1; the j = 0 column is
        // separately 0 (defer everything).
        let mut acc: Vec<f64> = vec![0.0];
        for &c in children {
            let child_cap = k.min(counts[c]);
            let exit_cost = counts[c] as f64 * 2.0 * down[id];
            let new_len = (acc.len() - 1 + child_cap).min(cap) + 1;
            let mut next: Vec<f64> = vec![INF; new_len];
            back_at[c] = back.len();
            back.resize(back.len() + new_len, 0);
            let stage = &mut back[back_at[c]..];
            for (j_prev, &cost_prev) in acc.iter().enumerate() {
                if cost_prev == INF {
                    continue;
                }
                // dp[c][0] (defer) is replaced by the exit charge.
                let child_costs = std::iter::once(exit_cost).chain(dp[c][1..].iter().copied());
                for (j_c, c_cost) in child_costs.enumerate() {
                    let j_total = j_prev + j_c;
                    if j_total >= new_len {
                        break;
                    }
                    let cand = cost_prev + c_cost;
                    if cand < next[j_total] {
                        next[j_total] = cand;
                        stage[j_total] = j_c as u32;
                    }
                }
            }
            acc = next;
        }
        // j = 0: defer everything upward at zero local cost.
        acc[0] = 0.0;
        dp[id] = acc;
    }

    // Backtrack: walk each node's stages in reverse, peeling off the
    // last child's share of the running total.
    let mut medians = Vec::with_capacity(k);
    let mut stack = vec![(t.root(), k.min(counts[t.root()]))];
    while let Some((id, mut j)) = stack.pop() {
        if j == 0 {
            continue;
        }
        let children = t.children(id);
        if children.is_empty() {
            if let Some(p) = t.node(id).point {
                medians.push(p);
            }
            continue;
        }
        for &c in children.iter().rev() {
            let j_c = back[back_at[c] + j] as usize;
            stack.push((c, j_c));
            j -= j_c;
        }
        debug_assert_eq!(j, 0, "allocation must account for every median");
    }
    medians.sort_unstable();
    let tree_cost = dp[t.root()][k.min(counts[t.root()])];
    KMedianResult { medians, tree_cost }
}

/// Euclidean k-median cost of a given median set: every point pays its
/// distance to the nearest median.
pub fn kmedian_cost_euclid(ps: &PointSet, medians: &[usize]) -> f64 {
    assert!(!medians.is_empty());
    let mut total = 0.0;
    for i in 0..ps.len() {
        let best = medians
            .iter()
            .map(|&m| dist(ps.point(i), ps.point(m)))
            .fold(f64::INFINITY, f64::min);
        total += best;
    }
    total
}

/// Tree-metric k-median cost of a given median set (for validating the
/// DP against brute force).
pub fn kmedian_cost_tree(emb: &Embedding, medians: &[usize]) -> f64 {
    assert!(!medians.is_empty());
    let n = emb.tree.num_points();
    let mut total = 0.0;
    for i in 0..n {
        let best = medians
            .iter()
            .map(|&m| emb.tree_distance(i, m))
            .fold(f64::INFINITY, f64::min);
        total += best;
    }
    total
}

/// Exact Euclidean k-median over point-located medians by exhaustive
/// subset enumeration — `O(C(n,k)·n·k)`, for small baselines only.
pub fn exact_kmedian_euclid(ps: &PointSet, k: usize) -> (Vec<usize>, f64) {
    let n = ps.len();
    assert!(k >= 1 && k <= n);
    let mut best_cost = f64::INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut subset: Vec<usize> = (0..k).collect();
    loop {
        let cost = kmedian_cost_euclid(ps, &subset);
        if cost < best_cost {
            best_cost = cost;
            best = subset.clone();
        }
        // Next k-combination.
        let mut i = k;
        loop {
            if i == 0 {
                return (best, best_cost);
            }
            i -= 1;
            if subset[i] != i + n - k {
                subset[i] += 1;
                for j in (i + 1)..k {
                    subset[j] = subset[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_core::params::HybridParams;
    use treeemb_core::seq::SeqEmbedder;
    use treeemb_geom::generators;

    fn embed(ps: &PointSet, seed: u64) -> Embedding {
        let params = HybridParams::for_dataset(ps, 2.min(ps.dim())).unwrap();
        SeqEmbedder::new(params).embed(ps, seed).unwrap()
    }

    #[test]
    fn dp_matches_brute_force_on_tree_metric() {
        // Enumerate all median subsets and check the DP's tree cost is
        // the true optimum of the tree metric.
        let ps = generators::uniform_cube(9, 4, 64, 5);
        let emb = embed(&ps, 3);
        for k in 1..=3usize {
            let result = tree_kmedian(&emb, k);
            assert_eq!(result.medians.len(), k);
            // Brute force over subsets.
            let mut best = f64::INFINITY;
            let mut subset: Vec<usize> = (0..k).collect();
            'outer: loop {
                best = best.min(kmedian_cost_tree(&emb, &subset));
                let mut i = k;
                loop {
                    if i == 0 {
                        break 'outer;
                    }
                    i -= 1;
                    if subset[i] != i + 9 - k {
                        subset[i] += 1;
                        for j in (i + 1)..k {
                            subset[j] = subset[j - 1] + 1;
                        }
                        break;
                    }
                }
            }
            assert!(
                (result.tree_cost - best).abs() < 1e-9 * (1.0 + best),
                "k={k}: dp {} vs brute {best}",
                result.tree_cost
            );
            // The returned median set must achieve the claimed cost.
            let achieved = kmedian_cost_tree(&emb, &result.medians);
            assert!(
                (achieved - result.tree_cost).abs() < 1e-9 * (1.0 + achieved),
                "k={k}: medians achieve {achieved}, dp claims {}",
                result.tree_cost
            );
        }
    }

    #[test]
    fn k_equals_n_costs_zero() {
        let ps = generators::uniform_cube(6, 4, 64, 7);
        let emb = embed(&ps, 1);
        let result = tree_kmedian(&emb, 6);
        assert_eq!(result.tree_cost, 0.0);
        assert_eq!(result.medians, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn k_one_picks_a_single_median() {
        let ps = generators::gaussian_clusters(12, 4, 1, 2.0, 256, 9);
        let emb = embed(&ps, 2);
        let result = tree_kmedian(&emb, 1);
        assert_eq!(result.medians.len(), 1);
        assert!(result.tree_cost > 0.0);
    }

    #[test]
    fn euclid_cost_of_tree_medians_is_near_optimal() {
        // The classic reduction: tree medians priced in Euclidean space,
        // averaged over trees, stay within the distortion of OPT.
        let ps = generators::gaussian_clusters(12, 4, 3, 1.5, 512, 11);
        let (_, opt) = exact_kmedian_euclid(&ps, 3);
        let trials = 6;
        let mut sum = 0.0;
        for s in 0..trials {
            let emb = embed(&ps, 100 + s);
            let result = tree_kmedian(&emb, 3);
            sum += kmedian_cost_euclid(&ps, &result.medians);
        }
        let mean = sum / trials as f64;
        assert!(mean >= opt * (1.0 - 1e-9));
        assert!(mean <= 25.0 * opt + 1e-9, "k-median ratio {}", mean / opt);
    }

    #[test]
    fn more_medians_never_cost_more() {
        let ps = generators::uniform_cube(15, 4, 256, 13);
        let emb = embed(&ps, 4);
        let mut prev = f64::INFINITY;
        for k in 1..=5 {
            let c = tree_kmedian(&emb, k).tree_cost;
            assert!(c <= prev + 1e-9, "cost increased at k={k}");
            prev = c;
        }
    }

    #[test]
    fn exact_enumeration_small_sanity() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![10.0]]);
        let (medians, cost) = exact_kmedian_euclid(&ps, 2);
        // Optimal: one median near {0,1}, one at 10.
        assert!(medians.contains(&2));
        assert_eq!(cost, 1.0);
    }
}
