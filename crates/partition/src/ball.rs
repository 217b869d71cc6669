//! Ball partitioning (Definition 2; Charikar et al.).
//!
//! A *grid of balls* places a ball of radius `w` at every vertex of a
//! randomly shifted lattice of cell length `ℓ = 4w`. One grid leaves
//! gaps, so a **sequence** of independently shifted grids is drawn
//! (`BuildGrids` in Algorithm 1) and each point joins the first ball
//! that covers it.

use std::sync::OnceLock;
use treeemb_linalg::random;

/// One grid of balls: lattice `shift + ℓ·Z^d`, ball radius `w = ℓ/4`
/// by the paper's convention (any `w ≤ ℓ/2` keeps balls disjoint).
#[derive(Debug, Clone, PartialEq)]
pub struct BallGrid {
    cell: f64,
    /// Precomputed `1/cell`: the per-coordinate lattice snap in
    /// [`Self::ball_of`] is a multiply instead of a divide.
    inv_cell: f64,
    radius: f64,
    shift: Vec<f64>,
}

impl BallGrid {
    /// Constructs a ball grid with an explicit shift in `[0, cell)^d`.
    ///
    /// # Panics
    ///
    /// If `cell` or `radius` is not finite and positive, or if balls of
    /// that radius overlap at that cell length (`2·radius > cell`).
    pub fn new(cell: f64, radius: f64, shift: Vec<f64>) -> Self {
        assert!(
            cell.is_finite() && radius.is_finite() && cell > 0.0 && radius > 0.0,
            "scales must be finite and positive (cell {cell}, radius {radius})"
        );
        assert!(
            2.0 * radius <= cell + 1e-12,
            "balls of radius {radius} overlap at cell length {cell}"
        );
        Self {
            cell,
            inv_cell: 1.0 / cell,
            radius,
            shift,
        }
    }

    /// Derives the shift from a counter stream.
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn from_seed(dim: usize, cell: f64, radius: f64, seed: u64) -> Self {
        Self::new(cell, radius, seeded_shift(dim, cell, seed).collect())
    }

    /// Ball radius `w`.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Lattice cell length `ℓ`.
    #[must_use]
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.shift.len()
    }

    /// The lattice shift vector (each component in `[0, cell)`). Exposed
    /// so the MPC embedder can broadcast grids as raw words (Lemma 8's
    /// space accounting).
    pub fn shift(&self) -> &[f64] {
        &self.shift
    }

    /// If `p` lies within radius of its nearest lattice vertex, returns
    /// that vertex's integer lattice coordinates.
    pub fn ball_of(&self, p: &[f64]) -> Option<Vec<i64>> {
        debug_assert_eq!(p.len(), self.dim());
        let mut sq = 0.0;
        let mut coords = Vec::with_capacity(p.len());
        let r2 = self.radius * self.radius;
        for (x, s) in p.iter().zip(&self.shift) {
            let t = (x - s) * self.inv_cell;
            let m = t.round();
            let e = (t - m) * self.cell;
            sq += e * e;
            if sq > r2 {
                return None; // early exit: already outside every ball
            }
            coords.push(m as i64);
        }
        Some(coords)
    }
}

/// The shift [`BallGrid::from_seed`] draws: component `j` is
/// `unit_f64(seed, j)·cell`.
fn seeded_shift(dim: usize, cell: f64, seed: u64) -> impl Iterator<Item = f64> {
    (0..dim).map(move |j| random::unit_f64(seed, j as u64) * cell)
}

/// Offset of grid `i`'s coordinate 0 within its block's lane layout:
/// the start of its group (`LANES·dim` words each) plus its lane.
/// Coordinate `j` follows at `+ j·LANES`.
fn lane_at(i: usize, dim: usize) -> usize {
    (i - i % LANES) * dim + i % LANES
}

/// Assignment of a point under a grid sequence: the index of the first
/// covering grid and the lattice coordinates of the covering ball.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BallAssignment {
    /// Index of the first grid whose ball covers the point.
    pub grid_index: u32,
    /// Lattice coordinates of the covering ball within that grid.
    pub cell: Vec<i64>,
}

/// Grids evaluated together by one step of [`GridSequence::first_covering`]:
/// one group of a block's coordinate-major shift storage. Four lanes
/// (a row is two SSE2 registers at the baseline x86-64 target)
/// measured faster per probe than eight.
const LANES: usize = 4;

/// Shift stored in the lanes past grid `U − 1` of a sequence's last
/// group. Every `t` computed from it is NaN, and `NaN ≤ w²` is false,
/// so a padding lane never covers.
const PAD: f64 = f64::NAN;

/// `1.5·2⁵²`: adding and subtracting it rounds any `|t| < 2⁵¹` to the
/// nearest integer, ties to even, without a libm call.
const RNE_MAGIC: f64 = 6_755_399_441_055_744.0;

/// The lane scan runs only when every `|x|/ℓ` is below this, so that
/// every `t = (x − s)/ℓ` stays well inside `RNE_MAGIC`'s exact range.
const LANE_GUARD: f64 = 1e15;

/// Grids per lazily filled block of a [`GridSequence`]. A multiple of
/// [`LANES`], so no lane group of [`GridSequence::first_covering`]
/// crosses a block boundary.
const BLOCK: usize = 64;
const _: () = assert!(BLOCK.is_multiple_of(LANES));

/// An ordered sequence of independently shifted ball grids at one scale
/// (the output of `BuildGrids`).
///
/// The `U` shifts live in blocks of 64 grids, and each block in groups
/// of 4 grids stored coordinate by coordinate: group `g` holds `dim`
/// rows, row `j` being coordinate `j` of the block's grids
/// `4g … 4g + 3`. The first-covering scan thus walks memory linearly
/// and updates all lanes of a row at once. Lanes past grid `U − 1` in
/// the last group hold NaN. A block is filled on first touch: most
/// scans stop in the first few blocks, so a sequence holds only the
/// prefix its callers reach. Grid `u`'s shift is a pure function of
/// `(seed, u)`, so the content does not depend on which thread fills a
/// block. [`Self::grids`] rebuilds the per-grid [`BallGrid`] form on
/// demand.
#[derive(Debug, Clone)]
pub struct GridSequence {
    count: usize,
    dim: usize,
    cell: f64,
    inv_cell: f64,
    radius: f64,
    seed: u64,
    /// Block `b` holds the shifts of grids `b*BLOCK .. min((b+1)*BLOCK, U)`,
    /// padded to whole lane groups.
    blocks: Box<[OnceLock<Box<[f64]>>]>,
}

impl GridSequence {
    /// Builds `count` grids of cell length `4w`, radius `w` (the paper's
    /// Definition-2 geometry), with shifts derived from `(seed, grid
    /// index)` counter streams.
    ///
    /// # Panics
    ///
    /// As [`Self::build_with_cell_factor`] at `factor = 4`.
    pub fn build(dim: usize, w: f64, count: usize, seed: u64) -> Self {
        Self::build_with_cell_factor(dim, w, 4.0, count, seed)
    }

    /// Builds grids with cell length `factor·w` for radius `w`. The
    /// paper fixes `factor = 4`; smaller factors (≥ 2, keeping balls
    /// disjoint) cover more per grid (`V_m/factor^m`) at the price of a
    /// higher ball-boundary density — the E15 ablation quantifies the
    /// trade-off.
    ///
    /// Grid `u`'s shift is [`BallGrid::from_seed`]'s under seed
    /// `mix2(seed, u)`, written into its block when the block is first
    /// read.
    ///
    /// # Panics
    ///
    /// If `count == 0`, if `w` is not finite and positive, if `factor`
    /// is not finite and at least 2, or if the cell length `factor·w`
    /// overflows to infinity. A finite cell keeps every shift finite,
    /// which the NaN padding of [`Self::first_covering`] relies on.
    pub fn build_with_cell_factor(
        dim: usize,
        w: f64,
        factor: f64,
        count: usize,
        seed: u64,
    ) -> Self {
        assert!(count > 0, "need at least one grid");
        assert!(
            w.is_finite() && w > 0.0,
            "radius {w} must be finite and positive"
        );
        assert!(
            factor.is_finite() && factor >= 2.0,
            "balls must stay disjoint (factor >= 2, finite); got {factor}"
        );
        let cell = factor * w;
        assert!(cell.is_finite(), "cell length {factor}·{w} overflows");
        Self {
            count,
            dim,
            cell,
            inv_cell: 1.0 / cell,
            radius: w,
            seed,
            blocks: (0..count.div_ceil(BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Number of grids (`U`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the sequence holds no grids. The constructors reject
    /// `count == 0`, so this is always `false` for a built sequence; it
    /// exists to satisfy the `len`/`is_empty` API convention.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Ball radius `w` of the sequence.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The grids, in priority order, materialized from the shift
    /// blocks (filling all of them). Tests scan them as the reference
    /// for [`Self::first_covering`]; the scan itself never builds them.
    #[must_use]
    pub fn grids(&self) -> Vec<BallGrid> {
        (0..self.count)
            .map(|u| BallGrid::new(self.cell, self.radius, self.shift(u).collect()))
            .collect()
    }

    /// Grids `b*BLOCK ..` held by block `b`.
    fn block_len(&self, b: usize) -> usize {
        (self.count - b * BLOCK).min(BLOCK)
    }

    /// The coordinate-major shifts of block `b`, filled on first read.
    fn block(&self, b: usize) -> &[f64] {
        self.blocks[b].get_or_init(|| {
            let first = b * BLOCK;
            let len = self.block_len(b);
            let mut shifts = vec![PAD; len.next_multiple_of(LANES) * self.dim];
            for i in 0..len {
                let seed = random::mix2(self.seed, (first + i) as u64);
                for (j, s) in seeded_shift(self.dim, self.cell, seed).enumerate() {
                    shifts[lane_at(i, self.dim) + j * LANES] = s;
                }
            }
            shifts.into_boxed_slice()
        })
    }

    /// Grid `u`'s shift, read through the lane layout.
    fn shift(&self, u: usize) -> impl Iterator<Item = f64> + '_ {
        let block = self.block(u / BLOCK);
        let at = lane_at(u % BLOCK, self.dim);
        (0..self.dim).map(move |j| block[at + j * LANES])
    }

    /// Index of the first grid whose ball covers `p`: the same answer,
    /// bit for bit, as scanning [`Self::grids`] with
    /// [`BallGrid::ball_of`].
    ///
    /// The scan evaluates one group of 4 consecutive grids per step with
    /// no data-dependent branch: for each coordinate `j` in order, every
    /// lane adds `e²` with `e = (t − rne(t))·ℓ`, `t = (x_j − s)/ℓ` and
    /// `rne(t) = (t + 1.5·2⁵²) − 1.5·2⁵²`, and the first lane whose sum
    /// is `≤ w²` wins. Each lane thus sums over all `m` coordinates in
    /// `ball_of`'s order. This agrees with the scalar early-exit loop
    /// because
    /// * for `|t| < 2⁵¹`, `rne` rounds half to even; it differs from
    ///   `t.round()` (half away from zero) only at exact ties, where
    ///   `|t − r| = 0.5` either way, so `e²` is the same;
    /// * a sum of non-negative terms is monotone under IEEE
    ///   round-to-nearest, so some prefix sum exceeds `w²` exactly when
    ///   the full sum does;
    /// * the padding lanes after grid `U − 1` hold NaN, so their sums are
    ///   NaN and `NaN ≤ w²` is false; every real shift is finite (the
    ///   constructors reject a non-finite cell length) and so is every
    ///   `x` on the lane path, so no real lane's sum is NaN.
    ///
    /// The lane path runs only when every `|x|/ℓ < 10¹⁵` (false for NaN
    /// and ±∞); other points take the scalar loop.
    #[must_use]
    pub fn first_covering(&self, p: &[f64]) -> Option<u32> {
        debug_assert_eq!(p.len(), self.dim);
        if !p.iter().all(|x| x.abs() * self.inv_cell < LANE_GUARD) {
            return self.first_covering_scalar(p);
        }
        let r2 = self.radius * self.radius;
        let group = LANES * self.dim;
        for b in 0..self.blocks.len() {
            let block = self.block(b);
            for g in 0..self.block_len(b).div_ceil(LANES) {
                let hits = self.covered_lanes(p, &block[g * group..(g + 1) * group], r2);
                if hits != 0 {
                    let u = b * BLOCK + g * LANES + hits.trailing_zeros() as usize;
                    return Some(u as u32);
                }
            }
        }
        None
    }

    /// Bit `l` set iff lane `l` of `group` (`dim` rows of `LANES`
    /// shifts) covers `p`; see [`Self::first_covering`] for why this
    /// matches the scalar loop.
    fn covered_lanes(&self, p: &[f64], group: &[f64], r2: f64) -> u32 {
        let mut sq = [0.0f64; LANES];
        for (x, row) in p.iter().zip(group.as_chunks::<LANES>().0) {
            for (acc, s) in sq.iter_mut().zip(row) {
                let t = (x - s) * self.inv_cell;
                let e = (t - ((t + RNE_MAGIC) - RNE_MAGIC)) * self.cell;
                *acc += e * e;
            }
        }
        sq.iter()
            .enumerate()
            .fold(0, |hits, (l, &acc)| hits | (u32::from(acc <= r2) << l))
    }

    /// The reference scan over grids `0..U`: `ball_of`'s arithmetic
    /// (reciprocal multiply, `round`, same operation order) with its
    /// early exit.
    fn first_covering_scalar(&self, p: &[f64]) -> Option<u32> {
        let r2 = self.radius * self.radius;
        (0..self.count)
            .find(|&u| {
                let mut sq = 0.0;
                for (x, s) in p.iter().zip(self.shift(u)) {
                    let t = (x - s) * self.inv_cell;
                    let e = (t - t.round()) * self.cell;
                    sq += e * e;
                    if sq > r2 {
                        return false; // early exit: outside every ball of this grid
                    }
                }
                true
            })
            .map(|u| u as u32)
    }

    /// Streams the lattice coordinates of `p`'s ball in grid `u` (as
    /// returned by [`Self::first_covering`]) without allocating. Must
    /// only be called for a covering grid. Keeps `round` (half away
    /// from zero): node ids hash these coordinates.
    pub fn covering_cell(&self, u: u32, p: &[f64], mut emit: impl FnMut(i64)) {
        for (x, s) in p.iter().zip(self.shift(u as usize)) {
            let m = ((x - s) * self.inv_cell).round();
            emit(m as i64);
        }
    }

    /// Assigns `p` to the first covering ball, or `None` if no grid in
    /// the sequence covers it (a coverage failure; see Lemma 7 for how
    /// large `U` must be to make this improbable).
    pub fn assign(&self, p: &[f64]) -> Option<BallAssignment> {
        let u = self.first_covering(p)?;
        let mut cell = Vec::with_capacity(self.dim);
        self.covering_cell(u, p, |c| cell.push(c));
        Some(BallAssignment {
            grid_index: u,
            cell,
        })
    }

    /// Words of memory this sequence occupies when broadcast in MPC:
    /// `U·(m+2)`, one shift vector plus cell length and radius per grid
    /// (Lemma 8 charges every grid, however deep the scan goes).
    #[must_use]
    pub fn words(&self) -> usize {
        self.count * (self.dim + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_of_detects_coverage() {
        // Unshifted 1-D grid: cells of length 4, balls of radius 1 at 0, 4, 8...
        let g = BallGrid::new(4.0, 1.0, vec![0.0]);
        assert_eq!(g.ball_of(&[0.5]), Some(vec![0]));
        assert_eq!(g.ball_of(&[3.6]), Some(vec![1]));
        assert_eq!(g.ball_of(&[2.0]), None, "midpoint is uncovered");
        assert_eq!(g.ball_of(&[8.4]), Some(vec![2]));
    }

    #[test]
    fn ball_of_euclidean_not_linf() {
        // Point at (0.9, 0.9): within 1 of origin in l-inf but not l2.
        let g = BallGrid::new(4.0, 1.0, vec![0.0, 0.0]);
        assert_eq!(g.ball_of(&[0.9, 0.0]), Some(vec![0, 0]));
        assert_eq!(g.ball_of(&[0.9, 0.9]), None);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_balls_rejected() {
        let _ = BallGrid::new(1.0, 0.6, vec![0.0]);
    }

    #[test]
    fn sequence_assign_prefers_earliest_grid() {
        let seq = GridSequence::build(2, 1.0, 50, 123);
        let p = [10.3, -4.7];
        if let Some(a) = seq.assign(&p) {
            // Every earlier grid must not cover p.
            for u in 0..a.grid_index {
                assert!(seq.grids()[u as usize].ball_of(&p).is_none());
            }
            assert!(seq.grids()[a.grid_index as usize].ball_of(&p).is_some());
        }
    }

    #[test]
    fn enough_grids_cover_low_dimensions() {
        // In 2-D the per-grid cover probability is pi/16 ~ 0.196, so 100
        // grids miss a point with probability ~ 3e-10.
        let seq = GridSequence::build(2, 2.0, 100, 7);
        for i in 0..100 {
            let p = [i as f64 * 1.37, (i * i % 19) as f64];
            assert!(seq.assign(&p).is_some(), "point {i} uncovered");
        }
    }

    #[test]
    fn coverage_rate_matches_ball_volume_fraction() {
        // One grid covers a random point with probability
        // V_d(w) / (4w)^d; in 2-D that is pi w^2 / 16 w^2 = pi/16.
        let trials = 4000;
        let mut covered = 0;
        for t in 0..trials {
            let g = BallGrid::from_seed(2, 4.0, 1.0, random::mix2(55, t as u64));
            // Fixed probe point: randomness of the shift is equivalent to
            // randomness of the point.
            if g.ball_of(&[0.0, 0.0]).is_some() {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        let expect = std::f64::consts::PI / 16.0;
        assert!((rate - expect).abs() < 0.02, "rate {rate} vs {expect}");
    }

    #[test]
    fn nearby_points_share_balls_when_covered_deep() {
        let seq = GridSequence::build(3, 5.0, 200, 99);
        let p = [1.0, 2.0, 3.0];
        let q = [1.05, 2.0, 3.0];
        let (ap, aq) = (seq.assign(&p), seq.assign(&q));
        if let (Some(ap), Some(aq)) = (ap, aq) {
            if ap.grid_index == aq.grid_index {
                assert_eq!(
                    ap.cell, aq.cell,
                    "same grid must give same ball for close points"
                );
            }
        }
    }

    #[test]
    fn words_counts_broadcast_size() {
        let seq = GridSequence::build(4, 1.0, 10, 1);
        assert_eq!(seq.words(), 10 * 6);
    }

    #[test]
    fn first_covering_matches_per_grid_scan() {
        let seq = GridSequence::build(3, 2.0, 60, 42);
        for i in 0..200 {
            let p = [i as f64 * 0.53, (i % 17) as f64 * 1.1, -(i as f64) * 0.21];
            let slow = seq
                .grids()
                .iter()
                .position(|g| g.ball_of(&p).is_some())
                .map(|u| u as u32);
            assert_eq!(seq.first_covering(&p), slow, "point {i}");
        }
    }

    #[test]
    fn lane_scan_matches_ball_of_on_edge_cases() {
        // Cell lengths 1 and 2 make `1/ℓ` exact, so a point at
        // `s + (k + ½)·ℓ` sits on an exact rounding tie whenever the sum
        // is exact; at factor 2 such a tie lies on the ball's boundary.
        let mut exact_ties = 0;
        for dim in 1..=8 {
            for count in [
                1,
                LANES - 1,
                LANES,
                LANES + 1,
                7,
                8,
                9,
                BLOCK - 1,
                BLOCK,
                BLOCK + 1,
                BLOCK + LANES - 1,
                128,
                129,
                1039,
            ] {
                for factor in [2.0, 4.0] {
                    let cell = factor * 0.5;
                    let seed = (dim * 10_000 + count) as u64;
                    let seq = GridSequence::build_with_cell_factor(dim, 0.5, factor, count, seed);
                    let grids = seq.grids();
                    let check = |p: &[f64]| {
                        let slow = grids
                            .iter()
                            .position(|g| g.ball_of(p).is_some())
                            .map(|u| u as u32);
                        assert_eq!(seq.first_covering(p), slow, "dim {dim} U {count} {p:?}");
                    };
                    for u in [0, count / 2, count - 1] {
                        let s = grids[u].shift();
                        for j0 in [0, dim - 1] {
                            for k in [-1.0, 2.0] {
                                let mut p = s.to_vec();
                                p[j0] = s[j0] + (k + 0.5) * cell;
                                if ((p[j0] - s[j0]) / cell).fract().abs() == 0.5 {
                                    exact_ties += 1;
                                }
                                check(&p);
                            }
                        }
                    }
                    let stream = |i: u64, scale: f64| -> Vec<f64> {
                        (0..dim as u64)
                            .map(|j| (random::unit_f64(seed, i * 8 + j) - 0.5) * scale)
                            .collect()
                    };
                    for i in 0..8 {
                        check(&stream(i, 40.0));
                        // Beyond the lane guard, and just inside it.
                        check(&stream(i, 4e16 * cell));
                        check(&stream(i, 1.9e15 * cell));
                    }
                    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                        for j in [0, dim - 1] {
                            let mut p = stream(9, 40.0);
                            p[j] = bad;
                            check(&p);
                        }
                        // The scalar loop never exceeds `w²` on a
                        // non-finite sum, so grid 0 "covers" the point.
                        assert_eq!(seq.first_covering(&vec![bad; dim]), Some(0));
                    }
                }
            }
        }
        assert!(exact_ties > 0, "no exact tie was constructed");
    }

    /// The NaN lanes after grid `U − 1` never win. At `dim = 8` one grid
    /// covers a point with probability `V₈/4⁸ ≈ 6·10⁻⁵`, so the real
    /// grids leave almost every point uncovered; half the points sit
    /// near vertices of the unshifted lattice `ℓ·Z⁸`, where a padding
    /// lane holding shift 0 instead of NaN would cover them.
    #[test]
    fn padding_lanes_never_cover() {
        let (dim, w) = (8, 0.5);
        let cell = 4.0 * w;
        for count in 1..=2 * LANES + 1 {
            let seq = GridSequence::build(dim, w, count, count as u64);
            let grids = seq.grids();
            for i in 0..200u64 {
                let p: Vec<f64> = (0..dim as u64)
                    .map(|j| {
                        let u = random::unit_f64(i, j) - 0.5;
                        if i % 2 == 0 {
                            u * 40.0
                        } else {
                            (j as f64 - 4.0) * cell + u * w / 4.0
                        }
                    })
                    .collect();
                let got = seq.first_covering(&p);
                assert!(
                    got.is_none_or(|u| (u as usize) < count),
                    "U {count} point {i}: {got:?}"
                );
                let slow = grids
                    .iter()
                    .position(|g| g.ball_of(&p).is_some())
                    .map(|u| u as u32);
                assert_eq!(got, slow, "U {count} point {i}");
            }
        }
    }

    #[test]
    fn grid_geometry_must_be_finite() {
        // `4·1e308` overflows the cell length; an infinite radius does
        // too. Both used to build, and `first_covering` then disagreed
        // with the per-grid reference scan.
        for (w, factor) in [
            (1e308, 4.0),
            (f64::INFINITY, 4.0),
            (f64::NAN, 4.0),
            (1.0, f64::INFINITY),
            (1.0, f64::NAN),
        ] {
            let built = std::panic::catch_unwind(|| {
                GridSequence::build_with_cell_factor(2, w, factor, 16, 1)
            });
            assert!(built.is_err(), "w {w} factor {factor} was accepted");
        }
        for (cell, radius) in [(f64::INFINITY, 1.0), (4.0, f64::NAN), (f64::NAN, 1.0)] {
            let built = std::panic::catch_unwind(|| BallGrid::new(cell, radius, vec![0.0]));
            assert!(built.is_err(), "cell {cell} radius {radius} was accepted");
        }
        // The largest finite geometry still builds and agrees.
        let seq = GridSequence::build(2, 1e307, 16, 1);
        let p = [0.5, -0.25];
        let slow = seq
            .grids()
            .iter()
            .position(|g| g.ball_of(&p).is_some())
            .map(|u| u as u32);
        assert_eq!(seq.first_covering(&p), slow);
    }

    /// Blocks filled concurrently, in different orders, hold what a
    /// serial scan of a fresh sequence sees.
    #[test]
    fn concurrent_block_fills_match_a_serial_scan() {
        let (dim, w, count, seed) = (6, 0.5, 1039, 3);
        let points: Vec<Vec<f64>> = (0..16u64)
            .map(|i| {
                let mut p: Vec<f64> = (0..dim as u64)
                    .map(|j| (random::unit_f64(7, i * 8 + j) - 0.5) * 40.0)
                    .collect();
                if i % 4 == 0 {
                    // Beyond the lane guard: the scalar scan.
                    p[0] = 4e16 * 4.0 * w;
                }
                p
            })
            .collect();
        let fresh = GridSequence::build(dim, w, count, seed);
        let serial: Vec<Option<u32>> = points.iter().map(|p| fresh.first_covering(p)).collect();
        assert!(serial.contains(&None), "no point fills every block");
        assert!(
            points
                .iter()
                .zip(&serial)
                .any(|(p, u)| p[0].abs() > LANE_GUARD && u.is_none_or(|u| u as usize >= BLOCK)),
            "no scalar scan crosses a block"
        );
        let shared = GridSequence::build(dim, w, count, seed);
        let scan = |order: Vec<usize>| {
            let mut got = vec![None; points.len()];
            for i in order {
                got[i] = shared.first_covering(&points[i]);
            }
            got
        };
        let (fwd, rev) = std::thread::scope(|s| {
            let fwd = s.spawn(|| scan((0..points.len()).collect()));
            let rev = s.spawn(|| scan((0..points.len()).rev().collect()));
            (fwd.join().unwrap(), rev.join().unwrap())
        });
        assert_eq!(fwd, serial);
        assert_eq!(rev, serial);
        let per_grid: Vec<BallGrid> = (0..count)
            .map(|u| BallGrid::from_seed(dim, 4.0 * w, w, random::mix2(seed, u as u64)))
            .collect();
        assert_eq!(shared.grids(), per_grid);
    }

    #[test]
    fn covering_cell_streams_ball_of_coords() {
        let seq = GridSequence::build(4, 1.5, 80, 9);
        for i in 0..100 {
            let p = [i as f64 * 0.3, 1.0, (i % 5) as f64, -2.5];
            if let Some(u) = seq.first_covering(&p) {
                let expect = seq.grids()[u as usize].ball_of(&p).unwrap();
                let mut got = Vec::new();
                seq.covering_cell(u, &p, |c| got.push(c));
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn sequences_differ_across_seeds() {
        let a = GridSequence::build(2, 1.0, 5, 1);
        let b = GridSequence::build(2, 1.0, 5, 2);
        assert_ne!(a.grids()[0], b.grids()[0]);
    }
}
