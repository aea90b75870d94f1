//! Edge-weight abstraction.
//!
//! The paper allows *arbitrary non-negative* edge weights (§1.1). We model
//! this with the [`Weight`] trait: a totally ordered additive monoid with a
//! zero and an absorbing "infinity" used for unreachable distances. Two
//! instantiations are provided:
//!
//! * [`u64`] — exact integer weights; used by all correctness tests so that
//!   distance comparisons are exact.
//! * [`F64`] — a total-order wrapper over `f64` (the CONGEST word model
//!   assumes a distance value fits in O(1) words either way). Its sums
//!   round, so it is exact only where every path sum is representable, as
//!   with dyadic weights (w/8, w·0.5), which are all the tests use. With
//!   other reals, sums taken in different orders differ in the last bits:
//!   the oracle's exact-equality checks then reject a correct matrix, and
//!   Ar18 returns wrong distances (a known bug, open on the roadmap).

use core::fmt::Debug;
use core::ops::Add;

/// A totally ordered, additively monotone weight type with `ZERO` and an
/// absorbing `INF` sentinel for "unreachable".
///
/// Laws (checked by property tests in this crate):
/// * `ZERO <= w` for every valid weight `w` (non-negativity),
/// * `w.plus(ZERO) == w`,
/// * `INF.plus(w) == INF` and `w.plus(INF) == INF`,
/// * `plus` is monotone in both arguments.
pub trait Weight:
    Copy + Clone + Ord + PartialOrd + Eq + PartialEq + Debug + Send + Sync + 'static
{
    /// The additive identity (distance of a node to itself).
    const ZERO: Self;
    /// Absorbing sentinel representing an unreachable distance.
    const INF: Self;

    /// Saturating addition: absorbs at `INF` and never overflows. Named
    /// `plus` (not `saturating_add`) to avoid colliding with the inherent
    /// method on the integer types, which is not `INF`-absorbing.
    #[must_use]
    fn plus(self, other: Self) -> Self;

    /// `true` iff this value is the `INF` sentinel.
    #[inline]
    fn is_inf(self) -> bool {
        self == Self::INF
    }
}

impl Weight for u64 {
    const ZERO: Self = 0;
    // Leave generous headroom so that summing n INF/4 terms cannot wrap.
    const INF: Self = u64::MAX / 4;

    #[inline]
    fn plus(self, other: Self) -> Self {
        if self >= Self::INF || other >= Self::INF {
            Self::INF
        } else {
            // Both operands < u64::MAX/4, so the sum cannot overflow, but it
            // may exceed INF; clamp to keep INF absorbing.
            core::cmp::min(self + other, Self::INF)
        }
    }
}

impl Weight for u32 {
    const ZERO: Self = 0;
    const INF: Self = u32::MAX / 4;

    #[inline]
    fn plus(self, other: Self) -> Self {
        if self >= Self::INF || other >= Self::INF {
            Self::INF
        } else {
            core::cmp::min(self + other, Self::INF)
        }
    }
}

/// Total-order `f64` wrapper for real-valued weights.
///
/// Ordering uses [`f64::total_cmp`]; construction rejects NaN and negative
/// values so every `F64` in a graph is a valid non-negative weight.
/// Addition rounds: distances are exact only for weights whose path sums
/// are representable, such as dyadic ones (see the module docs).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct F64(f64);

impl F64 {
    /// Wraps a non-negative finite value.
    ///
    /// # Panics
    /// Panics if `v` is NaN or negative (infinity is reserved for
    /// [`Weight::INF`]).
    #[must_use]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "F64 weight must not be NaN");
        assert!(v >= 0.0, "F64 weight must be non-negative, got {v}");
        F64(v)
    }

    /// Returns the underlying float.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for F64 {}

impl PartialOrd for F64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64 {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for F64 {
    type Output = F64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        F64(self.0 + rhs.0)
    }
}

impl Weight for F64 {
    const ZERO: Self = F64(0.0);
    const INF: Self = F64(f64::INFINITY);

    #[inline]
    fn plus(self, other: Self) -> Self {
        if self.is_inf() || other.is_inf() {
            Self::INF
        } else {
            F64(self.0 + other.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_inf_absorbs() {
        assert_eq!(u64::INF.plus(5), u64::INF);
        assert_eq!(5u64.plus(u64::INF), u64::INF);
        assert_eq!(u64::INF.plus(u64::INF), u64::INF);
    }

    #[test]
    fn u64_near_inf_clamps() {
        let big = u64::INF - 1;
        assert_eq!(big.plus(big), u64::INF);
        assert_eq!(big.plus(0), big);
    }

    #[test]
    fn u64_zero_identity() {
        for w in [0u64, 1, 17, u64::INF - 1, u64::INF] {
            assert_eq!(w.plus(0), w);
        }
    }

    #[test]
    fn f64_ordering_total() {
        let a = F64::new(1.5);
        let b = F64::new(2.5);
        assert!(a < b);
        assert!(F64::ZERO < a);
        assert!(b < F64::INF);
    }

    #[test]
    fn f64_inf_absorbs() {
        assert_eq!(F64::INF.plus(F64::new(3.0)), F64::INF);
        assert_eq!(F64::new(3.0).plus(F64::INF), F64::INF);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn f64_rejects_negative() {
        let _ = F64::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn f64_rejects_nan() {
        let _ = F64::new(f64::NAN);
    }

    #[test]
    fn u32_inf_absorbs() {
        assert_eq!(u32::INF.plus(5), u32::INF);
        assert_eq!(5u32.plus(u32::INF), u32::INF);
    }
}
