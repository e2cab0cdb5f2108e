//! Bit shifts — O(n) kernel operators. On Cambricon-P these become pure
//! timing delays/advancements of bitflows (§V-C); in software they move
//! limbs.

use super::Nat;
use crate::limb::{bit_split, shl_step, Limb, LIMB_BITS};
use std::ops::{Shl, Shr};

/// Shifts a limb slice left by `bits < 64`, returning the shifted limbs plus
/// carry-out limb (which may be zero).
pub(crate) fn shl_small(a: &[Limb], bits: u32) -> (Vec<Limb>, Limb) {
    debug_assert!(bits < LIMB_BITS);
    if bits == 0 {
        return (a.to_vec(), 0);
    }
    let mut out = Vec::with_capacity(a.len());
    let mut carry = 0;
    for &l in a {
        let (shifted, next) = shl_step(l, bits, carry);
        out.push(shifted);
        carry = next;
    }
    (out, carry)
}

impl Nat {
    /// Returns `self << bits` (multiplication by `2^bits`).
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::one().shl_bits(100), Nat::power_of_two(100));
    /// assert_eq!(Nat::from(5u64).shl_bits(0).to_u64(), Some(5));
    /// ```
    pub fn shl_bits(&self, bits: u64) -> Nat {
        if self.is_zero() || bits == 0 {
            return if bits == 0 { self.clone() } else { Nat::zero() };
        }
        let (limb_shift, bit_shift) = bit_split(bits);
        let mut limbs = vec![0; limb_shift];
        let (shifted, carry) = shl_small(self.limbs(), bit_shift);
        limbs.extend_from_slice(&shifted);
        if carry != 0 {
            limbs.push(carry);
        }
        Nat::from_limbs(limbs)
    }

    /// Returns `self >> bits` (floor division by `2^bits`).
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::from(5u64).shr_bits(1).to_u64(), Some(2));
    /// assert!(Nat::from(5u64).shr_bits(3).is_zero());
    /// ```
    pub fn shr_bits(&self, bits: u64) -> Nat {
        if self.is_zero() {
            return Nat::zero();
        }
        if bits >= self.bit_len() {
            return Nat::zero();
        }
        let (limb_shift, bit_shift) = bit_split(bits);
        let src = &self.limbs()[limb_shift..];
        if bit_shift == 0 {
            return Nat::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = src
                .get(i + 1)
                .map_or(0, |&next| next << (LIMB_BITS - bit_shift));
            out.push(lo | hi);
        }
        Nat::from_limbs(out)
    }

    /// Splits `self` at bit position `bits`, returning `(low, high)` so that
    /// `self == low + (high << bits)`. This is the primitive fast-algorithm
    /// decompositions (Karatsuba, Toom) use to split operands into limbs of
    /// `bits` width.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(0b110_101u64);
    /// let (lo, hi) = n.split_at_bit(3);
    /// assert_eq!(lo.to_u64(), Some(0b101));
    /// assert_eq!(hi.to_u64(), Some(0b110));
    /// ```
    pub fn split_at_bit(&self, bits: u64) -> (Nat, Nat) {
        (self.low_bits(bits), self.shr_bits(bits))
    }

    /// Returns the low `bits` bits of `self` (i.e. `self mod 2^bits`).
    pub fn low_bits(&self, bits: u64) -> Nat {
        if bits == 0 {
            return Nat::zero();
        }
        if bits >= self.bit_len() {
            return self.clone();
        }
        let (full_limbs, rem_bits) = bit_split(bits);
        let mut limbs = self.limbs()[..full_limbs].to_vec();
        if rem_bits != 0 {
            let mask = (1u64 << rem_bits) - 1;
            limbs.push(self.limbs()[full_limbs] & mask);
        }
        Nat::from_limbs(limbs)
    }

    /// Splits `self` into `count` chunks of `bits` bits each, little-endian
    /// (least significant chunk first). Used by the fast multiplication
    /// algorithms and by the inner-product transformation of the paper
    /// (Eq. 1).
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(0xABCDu64);
    /// let parts = n.to_chunks(4, 4);
    /// let vals: Vec<u64> = parts.iter().map(|p| p.to_u64().unwrap()).collect();
    /// assert_eq!(vals, [0xD, 0xC, 0xB, 0xA]);
    /// ```
    pub fn to_chunks(&self, bits: u64, count: usize) -> Vec<Nat> {
        assert!(bits > 0, "chunk width must be positive");
        let mut out = Vec::with_capacity(count);
        let mut rest = self.clone();
        for _ in 0..count {
            let (lo, hi) = rest.split_at_bit(bits);
            out.push(lo);
            rest = hi;
        }
        assert!(
            rest.is_zero(),
            "value does not fit in {count} chunks of {bits} bits"
        );
        out
    }

    /// Reassembles chunks produced by [`Nat::to_chunks`]:
    /// `sum(chunks[i] << (i * bits))`. Chunks may exceed `bits` width
    /// (overlaps are added), which is exactly the partial-sum gathering
    /// step of the paper's Figure 7.
    pub fn from_chunks(chunks: &[Nat], bits: u64) -> Nat {
        let mut acc = Nat::zero();
        for chunk in chunks.iter().rev() {
            acc = acc.shl_bits(bits);
            acc = &acc + chunk;
        }
        acc
    }
}

impl Shl<u64> for &Nat {
    type Output = Nat;

    fn shl(self, bits: u64) -> Nat {
        self.shl_bits(bits)
    }
}

impl Shr<u64> for &Nat {
    type Output = Nat;

    fn shr(self, bits: u64) -> Nat {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shl_shr_roundtrip() {
        let n = Nat::from(0xDEAD_BEEF_u64);
        for bits in [0u64, 1, 63, 64, 65, 127, 128, 1000] {
            assert_eq!(n.shl_bits(bits).shr_bits(bits), n, "bits={bits}");
        }
    }

    #[test]
    fn shr_discards_low_bits() {
        let n = Nat::from(0b1011u64);
        assert_eq!(n.shr_bits(2).to_u64(), Some(0b10));
    }

    #[test]
    fn shr_beyond_length_is_zero() {
        assert!(Nat::from(1u64).shr_bits(64).is_zero());
        assert!(Nat::zero().shr_bits(3).is_zero());
    }

    #[test]
    fn low_bits_masks() {
        let n = Nat::from_limbs(vec![u64::MAX, u64::MAX]);
        assert_eq!(n.low_bits(65), Nat::power_of_two(65) - Nat::one());
        assert_eq!(n.low_bits(0), Nat::zero());
        assert_eq!(n.low_bits(1000), n);
    }

    #[test]
    fn split_reassemble() {
        let n = Nat::from(0x1234_5678_9abc_def0u64) * Nat::power_of_two(100);
        let (lo, hi) = n.split_at_bit(77);
        assert_eq!(&lo + &hi.shl_bits(77), n);
    }

    #[test]
    fn chunks_roundtrip_across_limb_sizes() {
        let n = Nat::from(0xfeed_face_cafe_f00du64) + Nat::power_of_two(199);
        for bits in [7u64, 32, 64, 100] {
            let count = n.bit_len().div_ceil(bits);
            let chunks = n.to_chunks(bits, count as usize);
            assert_eq!(Nat::from_chunks(&chunks, bits), n, "bits={bits}");
        }
    }

    #[test]
    fn from_chunks_handles_overlapping_chunks() {
        // chunks wider than the radix: 3 + 3*2 = 9 with 1-bit radix
        let chunks = vec![Nat::from(3u64), Nat::from(3u64)];
        assert_eq!(Nat::from_chunks(&chunks, 1).to_u64(), Some(9));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn to_chunks_rejects_overflow() {
        let _ = Nat::from(256u64).to_chunks(4, 2);
    }
}
