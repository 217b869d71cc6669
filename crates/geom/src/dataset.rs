//! Flat row-major point container.

/// A set of `n` points in `R^d`, stored row-major in one contiguous
/// allocation. Row-major layout keeps a single point's coordinates
/// adjacent, which is the access pattern of every partitioning and
/// transform step in this workspace.
///
/// ```
/// use treeemb_geom::PointSet;
/// let mut ps = PointSet::new(2);
/// ps.push(&[1.0, 2.0]);
/// ps.push(&[4.0, 6.0]);
/// assert_eq!(ps.len(), 2);
/// assert_eq!(ps.point(1), &[4.0, 6.0]);
/// assert_eq!(treeemb_geom::metrics::dist(ps.point(0), ps.point(1)), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    dim: usize,
    data: Vec<f64>,
}

impl PointSet {
    /// Creates an empty point set of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty point set with capacity for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a point set from a flat row-major coordinate buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer length must be a multiple of dim"
        );
        Self { dim, data }
    }

    /// Builds a point set from per-point rows.
    ///
    /// # Panics
    /// Panics if rows disagree on length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let dim = rows[0].len();
        let mut data = Vec::with_capacity(dim * rows.len());
        for r in rows {
            assert_eq!(r.len(), dim, "all rows must share a dimension");
            data.extend_from_slice(r);
        }
        Self { dim, data }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the set holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimension of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow point `i` as a coordinate slice.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics if `p.len() != self.dim()`.
    pub fn push(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dim, "point dimension mismatch");
        self.data.extend_from_slice(p);
    }

    /// The raw flat buffer (row-major).
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw flat buffer (row-major).
    #[inline]
    pub fn as_flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over points as coordinate slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// Restriction of every point to the coordinate range
    /// `[lo, hi)` — the bucket projection `p^{(j)}` of Definition 3.
    pub fn project(&self, lo: usize, hi: usize) -> PointSet {
        assert!(lo < hi && hi <= self.dim, "invalid projection range");
        let sub = hi - lo;
        let mut data = Vec::with_capacity(sub * self.len());
        for p in self.iter() {
            data.extend_from_slice(&p[lo..hi]);
        }
        PointSet { dim: sub, data }
    }

    /// New point set containing the selected rows, in order.
    pub fn select(&self, ids: &[usize]) -> PointSet {
        let mut out = PointSet::with_capacity(self.dim, ids.len());
        for &i in ids {
            out.push(self.point(i));
        }
        out
    }

    /// Pads every point with zero coordinates up to dimension `new_dim`.
    /// Used to make `d` divisible by the bucket count `r` (paper
    /// footnote 3) and to pad to a power of two for the WHT.
    pub fn zero_pad(&self, new_dim: usize) -> PointSet {
        assert!(new_dim >= self.dim, "zero_pad cannot shrink dimension");
        if new_dim == self.dim {
            return self.clone();
        }
        let mut data = Vec::with_capacity(new_dim * self.len());
        for p in self.iter() {
            data.extend_from_slice(p);
            data.extend(std::iter::repeat_n(0.0, new_dim - self.dim));
        }
        PointSet { dim: new_dim, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index_round_trip() {
        let mut ps = PointSet::new(3);
        ps.push(&[1.0, 2.0, 3.0]);
        ps.push(&[4.0, 5.0, 6.0]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ps.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_matches_from_rows() {
        let a = PointSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = PointSet::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn project_extracts_bucket() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]);
        let head = ps.project(0, 2);
        let tail = ps.project(2, 4);
        assert_eq!(head.point(1), &[5.0, 6.0]);
        assert_eq!(tail.point(0), &[3.0, 4.0]);
    }

    #[test]
    fn zero_pad_appends_zeros() {
        let ps = PointSet::from_rows(&[vec![1.0], vec![2.0]]);
        let padded = ps.zero_pad(3);
        assert_eq!(padded.point(0), &[1.0, 0.0, 0.0]);
        assert_eq!(padded.point(1), &[2.0, 0.0, 0.0]);
    }

    #[test]
    fn select_reorders() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let sub = ps.select(&[2, 0]);
        assert_eq!(sub.point(0), &[2.0]);
        assert_eq!(sub.point(1), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "point dimension mismatch")]
    fn push_wrong_dim_panics() {
        let mut ps = PointSet::new(2);
        ps.push(&[1.0]);
    }

    #[test]
    fn iter_yields_all_points() {
        let ps = PointSet::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let rows: Vec<_> = ps.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[0.0, 1.0]);
    }
}
