//! Long subtraction — an O(n) kernel operator (Table I).

use super::Nat;
use crate::limb::{sbb, Limb};
use std::ops::{Sub, SubAssign};

/// Subtracts `b` from `a` (`a >= b` required), returning the raw difference
/// limbs (not normalized).
///
/// # Panics
///
/// Panics in debug builds if `a < b` (the borrow assertion fires).
pub(crate) fn sub_slices(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    debug_assert!(a.len() >= b.len(), "natural subtraction underflow");
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0;
    #[expect(
        clippy::needless_range_loop,
        reason = "one counted loop over the long operand keeps the borrow chain a single pass; `b.get(i)` pads the short one"
    )]
    for i in 0..a.len() {
        let rhs = b.get(i).copied().unwrap_or(0);
        let (d, br) = sbb(a[i], rhs, borrow);
        out.push(d);
        borrow = br;
    }
    assert_eq!(borrow, 0, "natural subtraction underflow");
    out
}

impl Nat {
    /// Computes `self - rhs`, returning `None` on underflow.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let a = Nat::from(10u64);
    /// let b = Nat::from(3u64);
    /// assert_eq!(a.checked_sub(&b).unwrap().to_u64(), Some(7));
    /// assert!(b.checked_sub(&a).is_none());
    /// ```
    pub fn checked_sub(&self, rhs: &Nat) -> Option<Nat> {
        if self < rhs {
            None
        } else {
            Some(Nat::from_limbs(sub_slices(self.limbs(), rhs.limbs())))
        }
    }

    /// Computes `|self - rhs|` together with whether the result is negative
    /// (i.e. `rhs > self`). Useful for sign-magnitude arithmetic.
    pub fn abs_diff(&self, rhs: &Nat) -> (Nat, bool) {
        if self >= rhs {
            (
                Nat::from_limbs(sub_slices(self.limbs(), rhs.limbs())),
                false,
            )
        } else {
            (
                Nat::from_limbs(sub_slices(rhs.limbs(), self.limbs())),
                true,
            )
        }
    }
}

impl Sub<&Nat> for &Nat {
    type Output = Nat;

    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`Nat::checked_sub`] for a fallible
    /// version.
    #[expect(
        clippy::expect_used,
        reason = "documented operator panic; checked_sub is the fallible API"
    )]
    fn sub(self, rhs: &Nat) -> Nat {
        self.checked_sub(rhs)
            .expect("natural subtraction underflow")
    }
}

impl Sub<Nat> for Nat {
    type Output = Nat;

    fn sub(self, rhs: Nat) -> Nat {
        &self - &rhs
    }
}

impl Sub<Nat> for &Nat {
    type Output = Nat;

    fn sub(self, rhs: Nat) -> Nat {
        self - &rhs
    }
}

impl Sub<&Nat> for Nat {
    type Output = Nat;

    fn sub(self, rhs: &Nat) -> Nat {
        &self - rhs
    }
}

impl SubAssign<&Nat> for Nat {
    fn sub_assign(&mut self, rhs: &Nat) {
        *self = &*self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_borrows_across_limbs() {
        let a = Nat::power_of_two(128);
        let one = Nat::one();
        let d = &a - &one;
        assert_eq!(d.limbs(), &[u64::MAX, u64::MAX]);
    }

    #[test]
    fn sub_to_zero_normalizes() {
        let a = Nat::from(7u64);
        assert!((&a - &a).is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &Nat::one() - &Nat::from(2u64);
    }

    #[test]
    fn abs_diff_both_directions() {
        let a = Nat::from(10u64);
        let b = Nat::from(25u64);
        assert_eq!(a.abs_diff(&b), (Nat::from(15u64), true));
        assert_eq!(b.abs_diff(&a), (Nat::from(15u64), false));
        assert_eq!(a.abs_diff(&a), (Nat::zero(), false));
    }
}
