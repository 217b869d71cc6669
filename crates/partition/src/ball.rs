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
    /// that radius overlap at that cell length (`2·radius > cell`, up to
    /// a relative slack of `10⁻¹²`).
    pub fn new(cell: f64, radius: f64, shift: Vec<f64>) -> Self {
        assert!(
            cell.is_finite() && radius.is_finite() && cell > 0.0 && radius > 0.0,
            "scales must be finite and positive (cell {cell}, radius {radius})"
        );
        assert!(
            2.0 * radius <= cell * (1.0 + 1e-12),
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

/// Runs `f` on a scratch slice of `len` default values: on the stack
/// up to [`STACK_DIM`], on the heap beyond, so no bucket dimension is
/// turned away from the screen.
fn with_scratch<T: Copy + Default, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= STACK_DIM {
        f(&mut [T::default(); STACK_DIM][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
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

/// Grids screened together by one step of
/// [`GridSequence::first_covering`]: one group of a block's
/// coordinate-major phase storage. Eight `f32` lanes (a row is two SSE2
/// registers at the baseline x86-64 target) measured faster per call
/// than four.
const LANES: usize = 8;

/// Phase stored in the lanes past grid `U − 1` of a sequence's last
/// group. Every screen term computed from it is NaN, and `NaN ≤ τ` is
/// false, so a padding lane never reaches the confirm step.
const PAD: f32 = f32::NAN;

/// `1.5·2⁵²`: adding and subtracting it rounds any `|t| < 2⁵¹` to the
/// nearest integer, ties to even, without a libm call.
const RNE_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `t` rounded to the nearest integer, ties to even, for `|t| < 2⁵¹`.
fn rne(t: f64) -> f64 {
    (t + RNE_MAGIC) - RNE_MAGIC
}

/// `1.5·2²³`: the same rounding in `f32`, exact for `|d| < 2²²`.
const RNE_MAGIC_F32: f32 = 12_582_912.0;

/// The screen runs only when every `|x|·(1/ℓ)` is below `G = 2⁵⁰`,
/// where the phases and [`rne`] are exact; see [`ScreenBound`].
const SCREEN_GUARD: f64 = (1u64 << 50) as f64;

/// Bucket dimensions up to this keep the per-call scratch (phases,
/// lattice coordinates) on the stack.
const STACK_DIM: usize = 32;

/// Grids per lazily filled block of a [`GridSequence`]. A multiple of
/// [`LANES`], so no lane group of [`GridSequence::first_covering`]
/// crosses a block boundary.
const BLOCK: usize = 64;
const _: () = assert!(BLOCK.is_multiple_of(LANES));

/// The screen's pass bound `τ = (h + μ)²(1 + κ)`, `h = w/ℓ`, for one
/// sequence: `μ` depends on the point, through its largest
/// `Q = max_j |x_j|·(1/ℓ)`, and is worked out per call by [`Self::tau`].
///
/// **Claim.** If `Q < G` and the reference test of grid `u`
/// (`ball_of`'s arithmetic) accepts `x`, the screen's `f32` sum
/// `S = Σ δ_j²` is `≤ τ(Q)`. The screen thus rejects only grids the
/// reference rejects. Write `ε = 2⁻⁵³` and `ε₃₂ = 2⁻²⁴` for the unit
/// roundoffs, `θ_j = (x_j − s_j)/ℓ` for the exact phase difference and
/// `a_j = dist(θ_j, ℤ)`. Every operation rounds to nearest.
///
/// 1. *Reference error.* `Q` is a rounded product, so every
///    `|x_j|/ℓ ≤ Q(1 + 3ε)`, and `|θ_j| ≤ Q(1 + 3ε) + 1` (`0 ≤ s_j ≤ ℓ`).
///    `t_j = fl(fl(x_j − s_j)·fl(1/ℓ))` is within `3.0001ε·|θ_j|` of
///    `θ_j`. `r_j = t_j − round(t_j)` is exact, and `dist(·, ℤ)` is
///    1-Lipschitz, so `||r_j| − a_j| ≤ α = 3.0001ε(Q(1 + 3ε) + 1)`. This
///    term grows like `|x|/ℓ·2⁻⁵²`.
/// 2. *Reference acceptance.* It means `fl-Σ fl(e_j²) ≤ fl(w²)` with
///    `e_j = fl(r_j·ℓ)`. Summing `m` non-negative terms loses at most a
///    factor `(1 − ε)^m`; a square that underflows loses at most
///    `2⁻¹⁰⁷⁵ ≤ ε·fl(w²)`, because `w²` is normal; and `ℓ² ≥ 2⁻¹⁰²²`
///    keeps an underflowing `e_j` within `2⁻⁵⁶³` of `|r_j|·ℓ` in phase
///    units. With `h_c = fl(w/ℓ)` this gives `‖r‖₂ ≤ Γ·h_c + √m·2⁻⁵⁶³`,
///    where `Γ² = (1 + ε)(1 + mε)/(1 − ε)^{m+4} ≤ (1 + 2ε)^{2m+5}`.
/// 3. *Screen error.* The point's phase `φ_x,j = q − rne(q)`, `q =
///    fl(x_j·fl(1/ℓ))`, is within `2.0001ε·Q(1 + 3ε)` of `x_j/ℓ` modulo 1
///    (the subtraction is exact for `|q| < 2⁵¹`). Grid `u`'s stored
///    phase is `f32(unit_f64(mix2(seed, u), j))`, and `s_j = fl(unit·ℓ)`,
///    so the `f64` phase is within `ε` of `s_j/ℓ`. The casts to `f32`
///    cost `2⁻²⁶` (`|φ_x| ≤ ½`) and `2⁻²⁵` (phase `< 1`). The difference
///    `d = φ_x − φ_u` costs `2⁻²⁴` (`|d| < 2`), and `δ = d − rne₃₂(d)` is
///    exact, with `|δ_j| = dist(d, ℤ)`. Hence `|δ_j| ≤ a_j + β`, `β =
///    2.0001εQ(1 + 3ε) + ε + 7·2⁻²⁶`.
/// 4. *Minkowski.* `|δ_j| ≤ |r_j| + μ₀` with `μ₀ = 6ε(Q + 2) + 2⁻²³`,
///    which is at least `α + β + 2⁻⁵⁶³`. So `‖δ‖₂ ≤ ‖r‖₂ + √m·μ₀ ≤
///    Γ(h_c + μ)` with `μ = √m·μ₀`: the per-coordinate error enters `√m`
///    times.
/// 5. *The `f32` sum.* Each `f32` square and each of the `m − 1` sums
///    gains at most a factor `1 + ε₃₂`, and an underflowing square at
///    most `2⁻¹⁵⁰`, which is below `2⁻¹⁰⁰·(h_c + μ)²` as `μ² ≥ m·2⁻⁴⁶`.
///    So `S ≤ (h_c + μ)²·Γ²(1 + ε₃₂)^m(1 + 2⁻¹⁰⁰) ≤ τ` with `1 + κ =
///    exp(m·ε₃₂ + (2m + 5)·2ε + 2⁻⁴⁰)`. The `2⁻⁴⁰` also covers the
///    `f64` rounding in evaluating `τ`. `κ` stays finite for every `m`;
///    when `τ` exceeds `f32::MAX` it rounds up to `∞` and every real
///    lane passes, which is slow but exact.
///
/// **The guard.** The scan screens only when `Q < G = 2⁵⁰`, which is
/// false for NaN and ±∞ coordinates. Below it the phase subtraction of
/// step 3 is exact, and so is the confirm step's [`rne`], as every
/// `|t_j| ≤ (Q(1 + 3ε) + 1)(1 + 3.0001ε) < 2⁵¹`. `μ` grows linearly in
/// `Q`: near the origin `μ₀ ≈ 2⁻²³`, at `2³⁶` cells `μ₀ ≈ 4.6·10⁻⁵`
/// (about 0.3% on `τ` at `m = 65` and factor 4), and near `2⁴⁷` cells,
/// where `f64` resolves a coordinate only to `2⁻⁵` of a cell,
/// `μ₀` reaches a tenth of a cell and most lanes pass to the confirm
/// step.
#[derive(Debug, Clone, Copy)]
struct ScreenBound {
    /// `h_c = fl(w/ℓ)`.
    h: f64,
    /// `√m`.
    sqrt_m: f64,
    /// `1 + κ`.
    one_plus_kappa: f64,
}

impl ScreenBound {
    /// The bound for bucket dimension `dim` and scales `w`, `ℓ`; or
    /// `None` when `w²` or `ℓ²` is not a normal `f64`, where every scan
    /// takes the reference loop.
    fn new(dim: usize, w: f64, cell: f64) -> Option<Self> {
        if !((w * w).is_normal() && (cell * cell).is_normal()) {
            return None;
        }
        let eps = f64::EPSILON / 2.0;
        let m = dim as f64;
        Some(Self {
            h: w / cell,
            sqrt_m: m.sqrt(),
            one_plus_kappa: (m * 2f64.powi(-24) + (2.0 * m + 5.0) * 2.0 * eps + 2f64.powi(-40))
                .exp(),
        })
    }

    /// `τ(Q)` rounded up to `f32`, for a point whose largest
    /// `|x_j|·(1/ℓ)` is `top < G`.
    fn tau(&self, top: f64) -> f32 {
        let eps = f64::EPSILON / 2.0;
        let mu = self.sqrt_m * (6.0 * eps * (top + 2.0) + 2f64.powi(-23));
        let tau = (self.h + mu) * (self.h + mu) * self.one_plus_kappa;
        let rounded = tau as f32;
        if f64::from(rounded) < tau {
            rounded.next_up()
        } else {
            rounded
        }
    }
}

/// Bit `l` set iff lane `l` of `group` (`dim` rows of `LANES` grid
/// phases) passes the screen for the point phases `phase`: its `f32`
/// sum of `δ² ≤ tau`, `δ = d − rne₃₂(d)`, `d = φ_x − φ_u`.
fn screen(phase: &[f32], group: &[f32], tau: f32) -> u32 {
    let mut sq = [0.0f32; LANES];
    for (&x, row) in phase.iter().zip(group.as_chunks::<LANES>().0) {
        for (acc, &s) in sq.iter_mut().zip(row) {
            let d = x - s;
            let e = d - ((d + RNE_MAGIC_F32) - RNE_MAGIC_F32);
            *acc += e * e;
        }
    }
    sq.iter()
        .enumerate()
        .fold(0, |hits, (l, &acc)| hits | (u32::from(acc <= tau) << l))
}

/// An ordered sequence of independently shifted ball grids at one scale
/// (the output of `BuildGrids`).
///
/// Grid `u`'s shift is a pure function of `(seed, u)`:
/// `s_j = unit_f64(mix2(seed, u), j)·ℓ`. The sequence stores only each
/// shift's **phase** `s_j/ℓ`, as an `f32`, for the first-covering screen,
/// and regenerates the `f64` shift wherever an exact answer is needed
/// ([`Self::grids`], the confirm step). The
/// phases live in blocks of 64 grids, and each block in groups of 8
/// grids stored coordinate by coordinate: group `g` holds `dim` rows,
/// row `j` being coordinate `j` of the block's grids `8g … 8g + 7`. The
/// screen thus walks memory linearly and updates all lanes of a row at
/// once. Lanes past grid `U − 1` in the last group hold NaN. A block is
/// filled on first touch: most scans stop in the first few blocks, so a
/// sequence holds only the prefix its callers reach, and the content
/// does not depend on which thread fills a block.
#[derive(Debug, Clone)]
pub struct GridSequence {
    count: usize,
    dim: usize,
    cell: f64,
    inv_cell: f64,
    radius: f64,
    seed: u64,
    /// The screen's bound; `None` sends every scan to the reference
    /// loop.
    bound: Option<ScreenBound>,
    /// Block `b` holds the phases of grids `b*BLOCK .. min((b+1)*BLOCK, U)`,
    /// padded to whole lane groups.
    blocks: Box<[OnceLock<Box<[f32]>>]>,
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
    /// `mix2(seed, u)`; its phases are written into its block when the
    /// block is first read.
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
            bound: ScreenBound::new(dim, w, cell),
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

    /// The grids, in priority order, with their regenerated shifts.
    /// Tests scan them as the reference for [`Self::first_covering`];
    /// the scan itself never builds them.
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

    /// The coordinate-major `f32` phases of block `b`, filled on first
    /// read.
    fn block(&self, b: usize) -> &[f32] {
        self.blocks[b].get_or_init(|| {
            let first = b * BLOCK;
            let len = self.block_len(b);
            let mut phases = vec![PAD; len.next_multiple_of(LANES) * self.dim];
            for i in 0..len {
                let seed = random::mix2(self.seed, (first + i) as u64);
                for j in 0..self.dim {
                    phases[lane_at(i, self.dim) + j * LANES] =
                        random::unit_f64(seed, j as u64) as f32;
                }
            }
            phases.into_boxed_slice()
        })
    }

    /// Grid `u`'s shift, regenerated from `(seed, u)`.
    fn shift(&self, u: usize) -> impl Iterator<Item = f64> {
        seeded_shift(self.dim, self.cell, random::mix2(self.seed, u as u64))
    }

    /// Index of the first grid whose ball covers `p`: the same answer,
    /// bit for bit, as scanning [`Self::grids`] with
    /// [`BallGrid::ball_of`].
    ///
    /// The scan screens one group of 8 consecutive grids per step with
    /// no data-dependent branch, in `f32` on the stored phases: with the
    /// point's phases `φ_x,j = frac(x_j/ℓ)` computed once in `f64`, a
    /// lane passes iff its sum of `δ_j²`, `δ_j = d − rne₃₂(d)` and
    /// `d = φ_x,j − φ_u,j`, is `≤ τ`. `τ` is worked out per call from
    /// the point's largest `|x_j|/ℓ`, and the crate-private `ScreenBound`
    /// derives the error budget behind it: the screen is conservative,
    /// so a grid the reference accepts always passes. Each passing lane,
    /// in index order, is then confirmed with the reference arithmetic
    /// on its regenerated `f64` shift, and the first confirmed grid is
    /// the answer. The padding lanes after grid `U − 1` hold NaN phases,
    /// so their sums are NaN and never pass.
    ///
    /// The confirm step rounds with `rne(t) = (t + 1.5·2⁵²) − 1.5·2⁵²`,
    /// which agrees with `ball_of`'s `round` because
    /// * for `|t| < 2⁵¹` (true under the guard), `rne` differs from
    ///   `t.round()` (half away from zero) only at exact ties, where
    ///   `|t − r| = 0.5` either way, so `e²` is the same;
    /// * both stop once the running sum exceeds `w²`.
    ///
    /// The screen steps aside, and every grid goes to the reference test
    /// (with `round`) in order, when some `|x|/ℓ` reaches `2⁵⁰`, a
    /// coordinate is NaN or ±∞, or `w²` or `ℓ²` is not a normal `f64`.
    #[must_use]
    pub fn first_covering(&self, p: &[f64]) -> Option<u32> {
        self.scan(p, |u, round| self.covers(u, p, round, |_, _| {}))
    }

    /// The first grid `u` of the scan for which `confirm(u, round)`
    /// holds, where `round` is the rounding the reference test may use
    /// for this point. Screened scans offer only the lanes that pass the
    /// screen, with [`rne`]; otherwise every grid is offered in order,
    /// with `f64::round`.
    fn scan(
        &self,
        p: &[f64],
        mut confirm: impl FnMut(usize, fn(f64) -> f64) -> bool,
    ) -> Option<u32> {
        debug_assert_eq!(p.len(), self.dim);
        let screened = self.bound.and_then(|bound| {
            with_scratch(self.dim, |phase: &mut [f32]| {
                let mut top = 0.0f64;
                for (ph, x) in phase.iter_mut().zip(p) {
                    let q = x * self.inv_cell;
                    if q.is_nan() || q.abs() >= SCREEN_GUARD {
                        return None;
                    }
                    top = top.max(q.abs());
                    *ph = (q - rne(q)) as f32;
                }
                Some(self.screened(phase, bound.tau(top), &mut confirm))
            })
        });
        screened.unwrap_or_else(|| {
            (0..self.count)
                .find(|&u| confirm(u, f64::round))
                .map(|u| u as u32)
        })
    }

    /// The screened scan for the point phases `phase`: each group's
    /// lanes that pass the screen at `tau`, in index order, are offered
    /// to `confirm` with [`rne`].
    fn screened(
        &self,
        phase: &[f32],
        tau: f32,
        confirm: &mut impl FnMut(usize, fn(f64) -> f64) -> bool,
    ) -> Option<u32> {
        let group = LANES * self.dim;
        for b in 0..self.blocks.len() {
            let block = self.block(b);
            for g in 0..self.block_len(b).div_ceil(LANES) {
                let mut hits = screen(phase, &block[g * group..(g + 1) * group], tau);
                while hits != 0 {
                    let u = b * BLOCK + g * LANES + hits.trailing_zeros() as usize;
                    if confirm(u, rne) {
                        return Some(u as u32);
                    }
                    hits &= hits - 1;
                }
            }
        }
        None
    }

    /// The reference test: whether grid `u`'s ball covers `p`, with
    /// `ball_of`'s arithmetic (reciprocal multiply, same operation
    /// order, early exit) on the regenerated shift, rounding with
    /// `round`. Reports each coordinate's `t = (x − s)·(1/ℓ)` to `seen`
    /// as it goes.
    fn covers(
        &self,
        u: usize,
        p: &[f64],
        round: fn(f64) -> f64,
        mut seen: impl FnMut(usize, f64),
    ) -> bool {
        let r2 = self.radius * self.radius;
        let mut sq = 0.0;
        for (j, (x, s)) in p.iter().zip(self.shift(u)).enumerate() {
            let t = (x - s) * self.inv_cell;
            let e = (t - round(t)) * self.cell;
            sq += e * e;
            if sq > r2 {
                return false; // early exit: outside every ball of this grid
            }
            seen(j, t);
        }
        true
    }

    /// [`Self::first_covering`] fused with the covering ball's lattice
    /// coordinates: calls `f(u, cell)` with the first covering grid and
    /// the coordinates of `p`'s ball in it, both from the one confirm
    /// that accepted `u`, so its shift is regenerated once. The
    /// coordinates use `round` (half away from zero), as `ball_of`
    /// does: node ids hash them.
    pub(crate) fn covering<R>(&self, p: &[f64], f: impl FnOnce(u32, &[i64]) -> R) -> Option<R> {
        with_scratch(self.dim, |cell: &mut [i64]| {
            let u = self.scan(p, |u, round| {
                self.covers(u, p, round, |j, t| cell[j] = t.round() as i64)
            })?;
            Some(f(u, cell))
        })
    }

    /// Assigns `p` to the first covering ball, or `None` if no grid in
    /// the sequence covers it (a coverage failure; see Lemma 7 for how
    /// large `U` must be to make this improbable).
    pub fn assign(&self, p: &[f64]) -> Option<BallAssignment> {
        self.covering(p, |u, cell| BallAssignment {
            grid_index: u,
            cell: cell.to_vec(),
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

    /// The disjointness slack is relative: at `ℓ = 10⁻¹³` an absolute
    /// `10⁻¹²` used to admit `2r/ℓ = 10`, whose balls overlap.
    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_balls_rejected_at_small_scales() {
        let _ = BallGrid::new(1e-13, 5e-13, vec![0.0]);
    }

    /// `radius = cell/2`, the full-cover geometry of the `r = d` hybrid,
    /// stays legal at every scale.
    #[test]
    fn half_cell_radius_builds_at_every_scale() {
        for cell in [1e-300, 1e-13, 0.3, 1.0, 7.0, 1e13, 1e300] {
            let g = BallGrid::new(cell, cell / 2.0, vec![0.0]);
            assert_eq!(g.ball_of(&[0.2 * cell]), Some(vec![0]), "cell {cell}");
        }
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
            let slow = reference(&seq.grids(), &p);
            assert_eq!(seq.first_covering(&p), slow, "point {i}");
        }
    }

    #[test]
    fn screen_matches_ball_of_on_edge_cases() {
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
                        let slow = reference(&grids, p);
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
                        // Far out but screened; just inside the screen
                        // guard; beyond it; and out to 2·10¹⁶ cells, where
                        // `rne` is no longer exact and only `round` agrees
                        // with `ball_of`.
                        for scale in [2f64.powi(37), 1.9 * SCREEN_GUARD, 4.0 * SCREEN_GUARD, 4e16] {
                            check(&stream(i, scale * cell));
                        }
                    }
                    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                        for j in [0, dim - 1] {
                            let mut p = stream(9, 40.0);
                            p[j] = bad;
                            check(&p);
                        }
                        // The reference loop never exceeds `w²` on a
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
    /// lane holding phase 0 instead of NaN would pass the screen.
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
                assert_eq!(got, reference(&grids, &p), "U {count} point {i}");
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
        assert_eq!(seq.first_covering(&p), reference(&seq.grids(), &p));
    }

    /// Blocks filled concurrently, in different orders, hold what a
    /// serial scan of a fresh sequence fills them with.
    #[test]
    fn concurrent_block_fills_match_a_serial_scan() {
        let (dim, w, count, seed) = (6, 0.5, 1039, 3);
        let points: Vec<Vec<f64>> = (0..16u64)
            .map(|i| {
                let mut p: Vec<f64> = (0..dim as u64)
                    .map(|j| (random::unit_f64(7, i * 8 + j) - 0.5) * 40.0)
                    .collect();
                if i % 4 == 0 {
                    // Beyond the screen guard: the reference loop.
                    p[0] = 4e16 * 4.0 * w;
                }
                p
            })
            .collect();
        let fresh = GridSequence::build(dim, w, count, seed);
        let serial: Vec<Option<u32>> = points.iter().map(|p| fresh.first_covering(p)).collect();
        assert!(serial.contains(&None), "no point fills every block");
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
        let bits = |seq: &GridSequence, b: usize| -> Vec<u32> {
            seq.blocks[b]
                .get()
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        for b in 0..count.div_ceil(BLOCK) {
            assert_eq!(bits(&shared, b), bits(&fresh, b), "block {b}");
        }
        let per_grid: Vec<BallGrid> = (0..count)
            .map(|u| BallGrid::from_seed(dim, 4.0 * w, w, random::mix2(seed, u as u64)))
            .collect();
        assert_eq!(shared.grids(), per_grid);
    }

    /// The fused scan that `assign` and the node-id chain use returns
    /// `ball_of`'s lattice coordinates in the first covering grid.
    #[test]
    fn assign_returns_ball_of_coords() {
        let seq = GridSequence::build(4, 1.5, 80, 9);
        let mut covered = 0;
        for i in 0..100 {
            let p = [i as f64 * 0.3, 1.0, (i % 5) as f64, -2.5];
            let got = seq.assign(&p).map(|a| (a.grid_index, a.cell));
            let want = seq.first_covering(&p).map(|u| {
                covered += 1;
                (u, seq.grids()[u as usize].ball_of(&p).unwrap())
            });
            assert_eq!(got, want, "point {i}");
        }
        assert!(covered > 50, "only {covered} points covered");
    }

    #[test]
    fn sequences_differ_across_seeds() {
        let a = GridSequence::build(2, 1.0, 5, 1);
        let b = GridSequence::build(2, 1.0, 5, 2);
        assert_ne!(a.grids()[0], b.grids()[0]);
    }

    /// The first of `grids` whose `ball_of` covers `p`: the answer
    /// [`GridSequence::first_covering`] must reproduce.
    fn reference(grids: &[BallGrid], p: &[f64]) -> Option<u32> {
        grids
            .iter()
            .position(|g| g.ball_of(p).is_some())
            .map(|u| u as u32)
    }

    /// A direction in `R^dim` drawn from a counter stream.
    fn direction(dim: usize, seed: u64) -> Vec<f64> {
        (0..dim as u64)
            .map(|j| random::unit_f64(seed, j) - 0.5)
            .collect()
    }

    /// Points on the ray `c + λ·v` from the centre `c` of `grid`'s ball
    /// `k` cells from its shift (in every coordinate) across that ball's
    /// boundary: the last `λ` the reference keeps in the ball and the
    /// first it puts outside, found by bisection down to adjacent floats,
    /// and the three floats beyond each. Their reference sums lie within
    /// a few ulps of `w²` on either side.
    fn boundary_points(grid: &BallGrid, k: f64, v: &[f64]) -> Vec<Vec<f64>> {
        let centre: Vec<f64> = grid.shift().iter().map(|s| s + k * grid.cell()).collect();
        let home = grid.ball_of(&centre);
        let at =
            |lam: f64| -> Vec<f64> { centre.iter().zip(v).map(|(c, v)| c + lam * v).collect() };
        let norm = v.iter().map(|v| v * v).sum::<f64>().sqrt();
        let (mut lo, mut hi) = (0.0, 1.5 * grid.radius() / norm);
        for _ in 0..2100 {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                break;
            }
            if grid.ball_of(&at(mid)) == home {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut lams = vec![lo, hi];
        let (mut down, mut up) = (lo, hi);
        for _ in 0..3 {
            down = down.next_down();
            up = up.next_up();
            lams.extend([down, up]);
        }
        lams.into_iter().map(at).collect()
    }

    /// Points whose reference sum for one grid sits a few ulps on either
    /// side of `w²`, at bucket dimensions from 1 to 65, `U` not a
    /// multiple of the lane width, and four cell factors. Grid 0 is
    /// among the targets, and a point its reference test accepts must
    /// be answered 0, so a screen that drops a covering lane fails here.
    #[test]
    fn screen_keeps_every_lane_the_reference_accepts_near_the_boundary() {
        let mut pinned = 0;
        for dim in [1, 2, 4, 5, 16, 65] {
            for count in [13, 67] {
                for (fi, factor) in [2.0, 2.5, 3.0, 4.0].into_iter().enumerate() {
                    for w in [0.5, 3.7e-3, 1.9e4] {
                        let seed = (dim * 1000 + count * 10 + fi) as u64;
                        let seq = GridSequence::build_with_cell_factor(dim, w, factor, count, seed);
                        assert!(seq.bound.is_some(), "the screen must run");
                        let grids = seq.grids();
                        for u in [0, LANES - 1, count - 1] {
                            for (d, k) in [-3.0, 2.0].into_iter().enumerate() {
                                let v = direction(dim, seed ^ (u * 4 + d) as u64);
                                for p in boundary_points(&grids[u], k, &v) {
                                    let want = reference(&grids, &p);
                                    pinned += usize::from(u == 0 && want == Some(0));
                                    assert_eq!(
                                        seq.first_covering(&p),
                                        want,
                                        "dim {dim} U {count} factor {factor} w {w} grid {u} {p:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(pinned > 100, "only {pinned} boundary points inside grid 0");
    }

    /// Balls centred from `2²⁰` to `3·2⁵¹` cells from the origin: where
    /// the screen's phase error grows with the point's distance, just
    /// under and just over the guard `G = 2⁵⁰` where the reference loop
    /// takes over, and past `2⁵¹` cells. Single coordinates at the guard.
    /// Points on grid 0's balls an odd number of cells past `2⁵¹`, where
    /// `rne` rounds to an even neighbour, so only `round` agrees with
    /// `ball_of`.
    #[test]
    fn screen_guard_boundary_matches_ball_of() {
        for dim in [1, 2, 5, 16] {
            for factor in [2.0, 4.0] {
                let (w, count) = (0.75, 21);
                let cell = factor * w;
                let seq =
                    GridSequence::build_with_cell_factor(dim, w, factor, count, 77 + dim as u64);
                let grids = seq.grids();
                let check = |p: &[f64]| {
                    assert_eq!(
                        seq.first_covering(p),
                        reference(&grids, p),
                        "dim {dim} factor {factor} {p:?}"
                    );
                };
                for k in [
                    2f64.powi(20),
                    2f64.powi(36) - 2.0,
                    2f64.powi(44) + 1.0,
                    SCREEN_GUARD - 2.0,
                    SCREEN_GUARD + 1.0,
                    6.0 * SCREEN_GUARD + 1.0,
                ] {
                    for k in [k, -k] {
                        for u in [0, count - 1] {
                            let v = direction(dim, u as u64 + k.to_bits());
                            for p in boundary_points(&grids[u], k, &v) {
                                check(&p);
                            }
                        }
                    }
                }
                let edge = SCREEN_GUARD * cell;
                for x0 in [edge.next_down(), edge, edge.next_up(), 2.0 * edge] {
                    for x0 in [x0, -x0] {
                        let mut p = direction(dim, 9);
                        p[0] = x0;
                        check(&p);
                        // The same point moved onto a ball of grid 0.
                        let mut q: Vec<f64> = grids[0].shift().to_vec();
                        q[0] += (x0 / cell).round() * cell;
                        check(&q);
                    }
                }
            }
        }
        // Cells of length 1 and 2 make `1/ℓ` exact, so the reference's
        // `t` is a multiple of ½ near `k`, and `rne` moves an odd `t` a
        // whole cell.
        let mut covered = 0;
        for factor in [2.0, 4.0] {
            let seq = GridSequence::build_with_cell_factor(3, 0.5, factor, 9, 5);
            let grids = seq.grids();
            let cell = factor * 0.5;
            for k in [
                1.0,
                3.0,
                5.0,
                2.0 * SCREEN_GUARD + 1.0,
                6.0 * SCREEN_GUARD + 7.0,
            ] {
                for k in [2.0 * SCREEN_GUARD + k, -2.0 * SCREEN_GUARD - k] {
                    let mut q: Vec<f64> = grids[0].shift().to_vec();
                    q[0] += k * cell;
                    let want = reference(&grids, &q);
                    covered += usize::from(want == Some(0));
                    assert_eq!(seq.first_covering(&q), want, "factor {factor} {q:?}");
                }
            }
        }
        assert!(
            covered > 0,
            "no point past 2⁵¹ cells is on a ball of grid 0"
        );
    }

    #[test]
    fn non_finite_and_subnormal_coordinates_match_ball_of() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        for dim in [1, 3, 8] {
            for w in [0.5, 1e-150] {
                let seq = GridSequence::build(dim, w, 19, dim as u64);
                let grids = seq.grids();
                for bad in [
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    subnormal,
                    -subnormal,
                    5e-324,
                    0.0,
                    -0.0,
                ] {
                    for j in 0..dim {
                        let mut p: Vec<f64> = direction(dim, j as u64)
                            .iter()
                            .map(|x| x * 8.0 * w)
                            .collect();
                        p[j] = bad;
                        assert_eq!(seq.first_covering(&p), reference(&grids, &p), "{p:?}");
                    }
                    let p = vec![bad; dim];
                    assert_eq!(seq.first_covering(&p), reference(&grids, &p), "{p:?}");
                }
            }
        }
    }

    /// Where `w²` or `ℓ²` is not a normal `f64` the screen's error
    /// budget does not hold, and every scan takes the reference loop. At
    /// `w = 10³⁰⁷`, `w²` overflows and the reference accepts every grid.
    #[test]
    fn extreme_scales_match_ball_of() {
        for (w, factor, screened) in [
            (1e307, 4.0, false),
            (1e154, 4.0, false),
            (1e-160, 2.0, false),
            (1e-300, 4.0, false),
            (1e150, 4.0, true),
            (1e-150, 4.0, true),
        ] {
            let seq = GridSequence::build_with_cell_factor(3, w, factor, 37, 5);
            assert_eq!(seq.bound.is_some(), screened, "w {w}");
            let grids = seq.grids();
            for i in 0..40 {
                let p: Vec<f64> = direction(3, i).iter().map(|x| x * 40.0 * w).collect();
                assert_eq!(seq.first_covering(&p), reference(&grids, &p), "w {w} {p:?}");
            }
            if screened {
                for p in boundary_points(&grids[0], -2.0, &direction(3, 1)) {
                    assert_eq!(seq.first_covering(&p), reference(&grids, &p), "w {w} {p:?}");
                }
            }
        }
        assert_eq!(
            GridSequence::build(2, 1e307, 16, 1).first_covering(&[3e307, -1e300]),
            Some(0)
        );
    }

    /// The bound is finite and loosens `h²` by well under 1% at the
    /// bucket dimensions the pipeline uses, by far less near the origin,
    /// and grows with the point's distance from it.
    #[test]
    fn screen_bound_stays_close_to_the_radius() {
        for dim in [1, 5, 65] {
            let bound = ScreenBound::new(dim, 1.0, 4.0).unwrap();
            let near = f64::from(bound.tau(1e3));
            let far = f64::from(bound.tau(2f64.powi(36)));
            assert!(
                near > 1.0 / 16.0 && near < 1.0001 / 16.0,
                "dim {dim}: {near}"
            );
            assert!(far > near && far < 1.01 / 16.0, "dim {dim}: {far}");
            assert!(f64::from(bound.tau(SCREEN_GUARD)) > 0.5, "dim {dim}");
        }
        let huge = ScreenBound::new(1 << 40, 1.0, 4.0).unwrap();
        assert_eq!(huge.tau(0.0), f32::INFINITY);
    }
}
