//! Stable structural identifiers for partitions and tree nodes.
//!
//! The MPC embedding (Algorithm 2) lets every machine compute its
//! points' root-to-leaf paths independently; nodes discovered by
//! different machines must agree on an identifier without communication.
//! We derive 64-bit ids by hashing the *structure* (level, per-bucket
//! ball assignments, parent chain) with a fixed mixing function — any
//! machine hashing the same structure gets the same id.
//!
//! Collisions: with `≈ n·logΔ` distinct nodes and 64-bit ids the
//! collision probability is `≲ n²log²Δ / 2^64`, far below the
//! `1/poly(n)` failure budget Theorem 1 already tolerates.

use crate::ball::BallAssignment;
use treeemb_linalg::random::mix2;

/// Running structural hash (Fowler–Noll–Vo-style chaining over the
/// SplitMix finalizer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructuralHash(pub u64);

impl StructuralHash {
    /// Seed hash for a new chain.
    pub fn root() -> Self {
        StructuralHash(0x7265_6562_6D48_5354) // "reebmHST"
    }

    /// Absorbs one 64-bit token.
    #[inline]
    pub fn absorb(self, token: u64) -> Self {
        StructuralHash(mix2(self.0, token))
    }

    /// Absorbs a signed lattice coordinate.
    #[inline]
    pub fn absorb_i64(self, token: i64) -> Self {
        self.absorb(token as u64)
    }

    /// Absorbs a ball assignment (grid index + lattice cell).
    pub fn absorb_assignment(self, a: &BallAssignment) -> Self {
        let mut h = self.absorb(0xBA11).absorb(a.grid_index as u64);
        for &c in &a.cell {
            h = h.absorb_i64(c);
        }
        h.absorb(0xE4D) // assignment terminator
    }

    /// The digest.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(grid: u32, cell: &[i64]) -> BallAssignment {
        BallAssignment {
            grid_index: grid,
            cell: cell.to_vec(),
        }
    }

    #[test]
    fn equal_structures_hash_equal() {
        let a = StructuralHash::root()
            .absorb(3)
            .absorb_assignment(&asg(1, &[2, -5]));
        let b = StructuralHash::root()
            .absorb(3)
            .absorb_assignment(&asg(1, &[2, -5]));
        assert_eq!(a, b);
    }

    #[test]
    fn different_grid_indices_differ() {
        let a = StructuralHash::root().absorb_assignment(&asg(1, &[0]));
        let b = StructuralHash::root().absorb_assignment(&asg(2, &[0]));
        assert_ne!(a, b);
    }

    #[test]
    fn coordinate_order_matters() {
        let a = StructuralHash::root().absorb_assignment(&asg(0, &[1, 2]));
        let b = StructuralHash::root().absorb_assignment(&asg(0, &[2, 1]));
        assert_ne!(a, b);
    }

    #[test]
    fn chain_is_prefix_sensitive() {
        let a = StructuralHash::root().absorb(1).absorb(2);
        let b = StructuralHash::root().absorb(2).absorb(1);
        assert_ne!(a, b);
    }

    #[test]
    fn negative_coordinates_are_distinct() {
        let a = StructuralHash::root().absorb_assignment(&asg(0, &[-1]));
        let b = StructuralHash::root().absorb_assignment(&asg(0, &[1]));
        assert_ne!(a, b);
    }

    #[test]
    fn no_trivial_length_extension_confusion() {
        // [1] followed by [2] vs [1, 2] in one assignment: the END marker
        // separates assignments.
        let a = StructuralHash::root()
            .absorb_assignment(&asg(0, &[1]))
            .absorb_assignment(&asg(0, &[2]));
        let b = StructuralHash::root().absorb_assignment(&asg(0, &[1, 2]));
        assert_ne!(a, b);
    }
}
