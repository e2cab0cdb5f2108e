//! Natural numbers of arbitrary size (the GMP **MPN** layer equivalent).
//!
//! [`Nat`] stores a natural number as a normalized little-endian vector of
//! 64-bit limbs (no trailing zero limbs; zero is the empty vector). All
//! higher layers of the reproduction — signed integers, floats, the MPApca
//! runtime of the `cambricon-p` crate, and the four applications — bottom
//! out in the kernels in this module, mirroring the software stack of
//! Figure 1 in the paper.

pub mod add;
pub mod bits;
pub mod div;
pub mod gcd;
pub mod mont;
pub mod mul;
pub mod prime;
pub mod radix;
pub mod random;
pub mod root;
pub mod shift;
pub mod sqr;
pub mod sqrt;
pub mod sub;

use crate::limb::{Limb, LIMB_BITS};
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision natural number (unsigned integer).
///
/// `Nat` is the workhorse of the reproduction: all APC kernel operators
/// (*Multiply*, *Add*, *Shift* — the ones the paper measures at 87.2% of
/// application runtime) are methods on this type.
///
/// ```
/// use apc_bignum::Nat;
///
/// let a = Nat::from(10u64).pow(30);
/// let b = &a + &Nat::from(7u64);
/// assert_eq!(b.to_decimal_string(), "1000000000000000000000000000007");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Nat {
    /// Little-endian limbs, normalized: `limbs.last() != Some(&0)`.
    limbs: Vec<Limb>,
}

impl Nat {
    /// The natural number zero.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert!(Nat::zero().is_zero());
    /// ```
    #[inline]
    pub fn zero() -> Self {
        Nat { limbs: Vec::new() }
    }

    /// The natural number one.
    #[inline]
    pub fn one() -> Self {
        Nat { limbs: vec![1] }
    }

    /// Creates a `Nat` from little-endian limbs, normalizing trailing zeros.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from_limbs(vec![5, 0, 0]);
    /// assert_eq!(n.limbs(), &[5]);
    /// ```
    pub fn from_limbs(limbs: Vec<Limb>) -> Self {
        let mut n = Nat { limbs };
        n.normalize();
        n
    }

    /// Returns `2^exp`.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::power_of_two(70).bit_len(), 71);
    /// ```
    pub fn power_of_two(exp: u64) -> Self {
        let (limb_index, bit_index) = crate::limb::bit_split(exp);
        let mut limbs = vec![0; limb_index + 1];
        limbs[limb_index] = 1 << bit_index;
        Nat { limbs }
    }

    /// The normalized little-endian limb slice (empty for zero).
    #[inline]
    pub fn limbs(&self) -> &[Limb] {
        crate::invariants::check_normalized(&self.limbs);
        &self.limbs
    }

    /// Consumes `self`, returning the normalized limb vector.
    #[inline]
    pub fn into_limbs(self) -> Vec<Limb> {
        self.limbs
    }

    /// Number of significant limbs (0 for zero).
    #[inline]
    pub fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    /// Number of significant bits (0 for zero).
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::from(255u64).bit_len(), 8);
    /// assert_eq!(Nat::zero().bit_len(), 0);
    /// ```
    #[inline]
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * u64::from(LIMB_BITS)
                    + u64::from(crate::limb::bit_len(top))
            }
        }
    }

    /// Whether this number is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this number is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether this number is even (zero counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// The low 64 bits of the number.
    #[inline]
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Converts to `u64` if the value fits.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::from(42u64).to_u64(), Some(42));
    /// assert_eq!(Nat::power_of_two(64).to_u64(), None);
    /// ```
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u128::from(self.limbs[0])),
            2 => Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64)),
            _ => None,
        }
    }

    /// Raises `self` to the power `exp` by binary exponentiation.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::from(3u64).pow(5).to_u64(), Some(243));
    /// assert_eq!(Nat::from(7u64).pow(0).to_u64(), Some(1));
    /// ```
    pub fn pow(&self, mut exp: u32) -> Nat {
        let mut base = self.clone();
        let mut acc = Nat::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Restores the normalization invariant after limb-level surgery.
    #[inline]
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        if v == 0 {
            Nat::zero()
        } else {
            Nat { limbs: vec![v] }
        }
    }
}

impl From<u32> for Nat {
    fn from(v: u32) -> Self {
        Nat::from(u64::from(v))
    }
}

impl From<u128> for Nat {
    fn from(v: u128) -> Self {
        Nat::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_slices(&self.limbs, &other.limbs)
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Compares two normalized little-endian limb slices.
pub(crate) fn cmp_slices(a: &[Limb], b: &[Limb]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bit_len() <= 128 {
            write!(f, "Nat({})", self.to_decimal_string())
        } else {
            write!(
                f,
                "Nat({} bits, top limb {:#x})",
                self.bit_len(),
                self.limbs.last().copied().unwrap_or(0)
            )
        }
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal_string())
    }
}

impl fmt::LowerHex for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0x", "0");
        }
        let mut s = String::new();
        let mut iter = self.limbs.iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&format!("{top:x}"));
        }
        for limb in iter {
            s.push_str(&format!("{limb:016x}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::Binary for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0b", "0");
        }
        let mut s = String::new();
        let mut iter = self.limbs.iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&format!("{top:b}"));
        }
        for limb in iter {
            s.push_str(&format!("{limb:064b}"));
        }
        f.pad_integral(true, "0b", &s)
    }
}

impl std::str::FromStr for Nat {
    type Err = crate::ParseNumberError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Nat::from_decimal_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_normalized_empty() {
        assert_eq!(Nat::zero().limb_len(), 0);
        assert_eq!(Nat::from(0u64), Nat::zero());
        assert!(Nat::default().is_zero());
    }

    #[test]
    fn from_limbs_normalizes() {
        let n = Nat::from_limbs(vec![0, 0, 0]);
        assert!(n.is_zero());
        let n = Nat::from_limbs(vec![1, 2, 0, 0]);
        assert_eq!(n.limbs(), &[1, 2]);
    }

    #[test]
    fn bit_len_across_limb_boundary() {
        assert_eq!(Nat::from(u64::MAX).bit_len(), 64);
        assert_eq!(Nat::power_of_two(64).bit_len(), 65);
        assert_eq!(Nat::power_of_two(127).bit_len(), 128);
    }

    #[test]
    fn ordering_by_length_then_lexicographic() {
        let small = Nat::from(u64::MAX);
        let big = Nat::power_of_two(64);
        assert!(small < big);
        let a = Nat::from_limbs(vec![0, 1]);
        let b = Nat::from_limbs(vec![u64::MAX, 0]);
        assert!(b < a);
    }

    #[test]
    fn u128_roundtrip() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788_u128;
        assert_eq!(Nat::from(v).to_u128(), Some(v));
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(Nat::zero().pow(0).to_u64(), Some(1));
        assert_eq!(Nat::zero().pow(5).to_u64(), Some(0));
        assert_eq!(Nat::from(2u64).pow(100), Nat::power_of_two(100));
    }

    #[test]
    fn hex_and_binary_formatting() {
        let n = Nat::from(0xdead_beefu64);
        assert_eq!(format!("{n:x}"), "deadbeef");
        assert_eq!(format!("{:b}", Nat::from(5u64)), "101");
        assert_eq!(format!("{:x}", Nat::zero()), "0");
        let wide = Nat::from_limbs(vec![1, 0xab]);
        assert_eq!(format!("{wide:x}"), "ab0000000000000001");
    }

    #[test]
    fn even_check() {
        assert!(Nat::zero().is_even());
        assert!(!Nat::one().is_even());
        assert!(Nat::from(2u64).is_even());
    }
}
