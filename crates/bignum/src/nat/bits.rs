//! Bit-level accessors and logical operations.
//!
//! Cambricon-P consumes operands as *bitflows* (1 bit/cycle, LSB first);
//! these accessors are what the `cambricon-p` crate's bit-serial IPU and
//! clocked RTL models use to serialize a [`Nat`] into streams.

use super::Nat;
use crate::limb::{bit_split, usize_from, LIMB_BITS};
use std::ops::{BitAnd, BitOr, BitXor};

impl Nat {
    /// Returns bit `index` (LSB = index 0).
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(0b101u64);
    /// assert!(n.bit(0));
    /// assert!(!n.bit(1));
    /// assert!(n.bit(2));
    /// assert!(!n.bit(1_000_000));
    /// ```
    #[inline]
    pub fn bit(&self, index: u64) -> bool {
        let (limb, bit) = bit_split(index);
        self.limbs()
            .get(limb)
            .map_or(false, |&l| (l >> bit) & 1 == 1)
    }

    /// Returns a copy of `self` with bit `index` set to `value`.
    pub fn with_bit(&self, index: u64, value: bool) -> Nat {
        let (limb, bit) = bit_split(index);
        let mut limbs = self.limbs().to_vec();
        if limbs.len() <= limb {
            if !value {
                return self.clone();
            }
            limbs.resize(limb + 1, 0);
        }
        if value {
            limbs[limb] |= 1 << bit;
        } else {
            limbs[limb] &= !(1 << bit);
        }
        Nat::from_limbs(limbs)
    }

    /// Number of set bits (population count).
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::from(0b1011u64).count_ones(), 3);
    /// assert_eq!(Nat::zero().count_ones(), 0);
    /// ```
    pub fn count_ones(&self) -> u64 {
        self.limbs().iter().map(|l| u64::from(l.count_ones())).sum()
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.limbs().iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * u64::from(LIMB_BITS) + u64::from(l.trailing_zeros()));
            }
        }
        None
    }

    /// Iterates over the bits of `self` LSB-first — the exact order a
    /// Cambricon-P bitflow streams an operand into a PE.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let bits: Vec<bool> = Nat::from(0b110u64).bits_lsb().collect();
    /// assert_eq!(bits, [false, true, true]);
    /// ```
    pub fn bits_lsb(&self) -> BitsLsb<'_> {
        BitsLsb {
            nat: self,
            index: 0,
            len: self.bit_len(),
        }
    }
}

/// LSB-first bit iterator returned by [`Nat::bits_lsb`].
#[derive(Debug, Clone)]
pub struct BitsLsb<'a> {
    nat: &'a Nat,
    index: u64,
    len: u64,
}

impl Iterator for BitsLsb<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.index >= self.len {
            return None;
        }
        let b = self.nat.bit(self.index);
        self.index += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = usize_from(self.len - self.index);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BitsLsb<'_> {}

fn zip_limbs(a: &Nat, b: &Nat, f: impl Fn(u64, u64) -> u64) -> Nat {
    let n = a.limb_len().max(b.limb_len());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let x = a.limbs().get(i).copied().unwrap_or(0);
        let y = b.limbs().get(i).copied().unwrap_or(0);
        out.push(f(x, y));
    }
    Nat::from_limbs(out)
}

impl BitAnd<&Nat> for &Nat {
    type Output = Nat;

    fn bitand(self, rhs: &Nat) -> Nat {
        zip_limbs(self, rhs, |a, b| a & b)
    }
}

impl BitOr<&Nat> for &Nat {
    type Output = Nat;

    fn bitor(self, rhs: &Nat) -> Nat {
        zip_limbs(self, rhs, |a, b| a | b)
    }
}

impl BitXor<&Nat> for &Nat {
    type Output = Nat;

    fn bitxor(self, rhs: &Nat) -> Nat {
        zip_limbs(self, rhs, |a, b| a ^ b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_get_set_roundtrip() {
        let n = Nat::zero().with_bit(100, true);
        assert!(n.bit(100));
        assert_eq!(n, Nat::power_of_two(100));
        assert!(n.with_bit(100, false).is_zero());
    }

    #[test]
    fn clearing_unset_bit_is_noop() {
        let n = Nat::from(8u64);
        assert_eq!(n.with_bit(500, false), n);
    }

    #[test]
    fn trailing_zeros_cases() {
        assert_eq!(Nat::zero().trailing_zeros(), None);
        assert_eq!(Nat::one().trailing_zeros(), Some(0));
        assert_eq!(Nat::power_of_two(129).trailing_zeros(), Some(129));
    }

    #[test]
    fn bits_lsb_matches_bit_len() {
        let n = Nat::from(0b10u64);
        let v: Vec<bool> = n.bits_lsb().collect();
        assert_eq!(v.len() as u64, n.bit_len());
        assert_eq!(v, [false, true]);
        assert_eq!(Nat::zero().bits_lsb().count(), 0);
    }

    #[test]
    fn logical_ops() {
        let a = Nat::from(0b1100u64);
        let b = Nat::from(0b1010u64);
        assert_eq!((&a & &b).to_u64(), Some(0b1000));
        assert_eq!((&a | &b).to_u64(), Some(0b1110));
        assert_eq!((&a ^ &b).to_u64(), Some(0b0110));
    }

    #[test]
    fn xor_normalizes_to_zero() {
        let a = Nat::power_of_two(300);
        assert!((&a ^ &a).is_zero());
    }
}
