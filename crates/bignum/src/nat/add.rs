//! Long addition — an O(n) kernel operator (Table I).

use super::Nat;
use crate::limb::{adc, Limb};
use std::ops::{Add, AddAssign};

/// Adds two little-endian limb slices, returning a freshly allocated sum
/// (not normalized: may carry one extra limb that is never zero unless both
/// inputs were empty).
pub(crate) fn add_slices(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0;
    #[expect(
        clippy::needless_range_loop,
        reason = "one counted loop over the long operand keeps the carry chain a single pass; `short.get(i)` pads the short one"
    )]
    for i in 0..long.len() {
        let rhs = short.get(i).copied().unwrap_or(0);
        let (s, c) = adc(long[i], rhs, carry);
        out.push(s);
        carry = c;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Adds `b` into `a` in place starting at limb offset `offset`; returns the
/// final carry out of `a`'s existing length (0 or 1). `a` must be at least
/// `offset + b.len()` limbs long.
pub(crate) fn add_assign_at(a: &mut [Limb], b: &[Limb], offset: usize) -> Limb {
    debug_assert!(a.len() >= offset + b.len());
    let mut carry = 0;
    for (i, &bl) in b.iter().enumerate() {
        let (s, c) = adc(a[offset + i], bl, carry);
        a[offset + i] = s;
        carry = c;
    }
    let mut i = offset + b.len();
    while carry != 0 && i < a.len() {
        let (s, c) = adc(a[i], 0, carry);
        a[i] = s;
        carry = c;
        i += 1;
    }
    carry
}

impl Nat {
    /// Adds a single limb to `self`.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(u64::MAX).add_limb(1);
    /// assert_eq!(n, Nat::power_of_two(64));
    /// ```
    pub fn add_limb(&self, rhs: u64) -> Nat {
        if rhs == 0 {
            return self.clone();
        }
        Nat::from_limbs(add_slices(self.limbs(), &[rhs]))
    }
}

impl Add<&Nat> for &Nat {
    type Output = Nat;

    fn add(self, rhs: &Nat) -> Nat {
        Nat::from_limbs(add_slices(self.limbs(), rhs.limbs()))
    }
}

impl Add<Nat> for Nat {
    type Output = Nat;

    fn add(self, rhs: Nat) -> Nat {
        &self + &rhs
    }
}

impl Add<&Nat> for Nat {
    type Output = Nat;

    fn add(self, rhs: &Nat) -> Nat {
        &self + rhs
    }
}

impl Add<Nat> for &Nat {
    type Output = Nat;

    fn add(self, rhs: Nat) -> Nat {
        self + &rhs
    }
}

impl AddAssign<&Nat> for Nat {
    fn add_assign(&mut self, rhs: &Nat) {
        *self = &*self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_with_carry_propagation() {
        let a = Nat::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = Nat::one();
        assert_eq!(&a + &b, Nat::power_of_two(128));
    }

    #[test]
    fn add_zero_identity() {
        let a = Nat::from(12345u64);
        assert_eq!(&a + &Nat::zero(), a);
        assert_eq!(&Nat::zero() + &a, a);
    }

    #[test]
    fn add_asymmetric_lengths() {
        let a = Nat::power_of_two(200);
        let b = Nat::from(1u64);
        let s = &a + &b;
        assert_eq!(s.bit_len(), 201);
        assert_eq!(&s - &a, b);
    }

    #[test]
    fn add_assign_at_with_tail_carry() {
        let mut a = vec![u64::MAX, u64::MAX, 0];
        let carry = add_assign_at(&mut a, &[1], 0);
        assert_eq!(carry, 0);
        assert_eq!(a, vec![0, 0, 1]);
    }

    #[test]
    fn add_assign_at_returns_overflow() {
        let mut a = vec![u64::MAX];
        let carry = add_assign_at(&mut a, &[1], 0);
        assert_eq!(carry, 1);
        assert_eq!(a, vec![0]);
    }

    #[test]
    fn add_limb_fast_path() {
        assert_eq!(Nat::from(41u64).add_limb(1).to_u64(), Some(42));
        assert_eq!(Nat::from(41u64).add_limb(0).to_u64(), Some(41));
    }
}
