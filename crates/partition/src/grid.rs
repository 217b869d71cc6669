//! Random shifted grids (Definition 1; Arora's partitioning).

/// A grid of hypercubic cells with side `width`, translated by a random
/// shift vector drawn uniformly from `[0, width)^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedGrid {
    width: f64,
    shift: Vec<f64>,
}

impl ShiftedGrid {
    /// Constructs a grid with an explicit shift (each component must lie
    /// in `[0, width)`).
    pub fn new(width: f64, shift: Vec<f64>) -> Self {
        assert!(width > 0.0, "cell width must be positive");
        assert!(
            shift.iter().all(|&s| (0.0..width).contains(&s)),
            "shift components must lie in [0, width)"
        );
        Self { width, shift }
    }

    /// Derives the grid's shift from a counter-based random stream, so
    /// identical `(seed, dim, width)` always produce the same grid on
    /// any machine.
    pub fn from_seed(dim: usize, width: f64, seed: u64) -> Self {
        let shift = (0..dim)
            .map(|j| treeemb_linalg::random::unit_f64(seed, j as u64) * width)
            .collect();
        Self::new(width, shift)
    }

    /// Cell width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.shift.len()
    }

    /// Integer cell coordinates containing point `p`:
    /// `⌊(p_j − shift_j) / width⌋` per axis.
    pub fn cell_of(&self, p: &[f64]) -> Vec<i64> {
        assert_eq!(p.len(), self.dim(), "point dimension mismatch");
        p.iter()
            .zip(&self.shift)
            .map(|(x, s)| ((x - s) / self.width).floor() as i64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_respects_shift() {
        let g = ShiftedGrid::new(2.0, vec![0.5, 1.5]);
        assert_eq!(g.cell_of(&[0.0, 0.0]), vec![-1, -1]);
        assert_eq!(g.cell_of(&[0.5, 1.5]), vec![0, 0]);
        assert_eq!(g.cell_of(&[2.4, 3.4]), vec![0, 0]);
        assert_eq!(g.cell_of(&[2.5, 3.5]), vec![1, 1]);
    }

    #[test]
    fn from_seed_is_deterministic() {
        let a = ShiftedGrid::from_seed(4, 3.0, 9);
        let b = ShiftedGrid::from_seed(4, 3.0, 9);
        assert_eq!(a, b);
        assert_ne!(a, ShiftedGrid::from_seed(4, 3.0, 10));
    }

    #[test]
    fn shift_components_in_range() {
        for seed in 0..20 {
            let g = ShiftedGrid::from_seed(6, 5.0, seed);
            assert!(g.shift.iter().all(|&s| (0.0..5.0).contains(&s)));
        }
    }

    #[test]
    fn close_points_usually_share_cells() {
        // Two points at distance 0.1 with cell width 10 are separated with
        // probability <= d * 0.1/10 = 2%; over 200 seeds expect few cuts.
        let p = [5.0, 5.0];
        let q = [5.1, 5.0];
        let mut cuts = 0;
        for seed in 0..200 {
            let g = ShiftedGrid::from_seed(2, 10.0, seed);
            if g.cell_of(&p) != g.cell_of(&q) {
                cuts += 1;
            }
        }
        assert!(cuts < 15, "cuts = {cuts}");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = ShiftedGrid::new(0.0, vec![]);
    }
}
