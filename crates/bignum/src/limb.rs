//! Single-limb (64-bit word) arithmetic primitives.
//!
//! These are the equivalents of GMP's lowest-level `mpn` building blocks:
//! add-with-carry, subtract-with-borrow, widening multiplication and 2-by-1
//! division. Everything above them (the `nat` module) is expressed in terms
//! of these primitives, mirroring how the paper's software stack (Figure 1)
//! is built hierarchically from limb arithmetic.

/// The machine word used for number storage (a *limb* in GMP terminology).
pub type Limb = u64;

/// Number of bits in a [`Limb`].
pub const LIMB_BITS: u32 = 64;

/// Adds `a + b + carry_in`, returning the low limb and the carry-out (0 or 1).
///
/// ```
/// use apc_bignum::limb::adc;
/// assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
/// assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
/// ```
#[inline]
pub fn adc(a: Limb, b: Limb, carry_in: Limb) -> (Limb, Limb) {
    let (s1, c1) = a.overflowing_add(b);
    let (s2, c2) = s1.overflowing_add(carry_in);
    (s2, Limb::from(c1) + Limb::from(c2))
}

/// Computes `a - b - borrow_in`, returning the low limb and the borrow-out
/// (0 or 1).
///
/// ```
/// use apc_bignum::limb::sbb;
/// assert_eq!(sbb(0, 1, 0), (u64::MAX, 1));
/// assert_eq!(sbb(5, 3, 1), (1, 0));
/// ```
#[inline]
pub fn sbb(a: Limb, b: Limb, borrow_in: Limb) -> (Limb, Limb) {
    let (d1, b1) = a.overflowing_sub(b);
    let (d2, b2) = d1.overflowing_sub(borrow_in);
    (d2, Limb::from(b1) + Limb::from(b2))
}

/// Widening multiplication: `a * b` as `(low, high)` limbs.
///
/// ```
/// use apc_bignum::limb::mul_wide;
/// assert_eq!(mul_wide(u64::MAX, u64::MAX), (1, u64::MAX - 1));
/// ```
#[inline]
pub fn mul_wide(a: Limb, b: Limb) -> (Limb, Limb) {
    let p = u128::from(a) * u128::from(b);
    (p as Limb, (p >> 64) as Limb)
}

/// Fused multiply-add over limbs: `a * b + add + carry`, returned as
/// `(low, high)`. The result always fits in two limbs.
#[inline]
pub fn mul_add_carry(a: Limb, b: Limb, add: Limb, carry: Limb) -> (Limb, Limb) {
    let p = u128::from(a) * u128::from(b) + u128::from(add) + u128::from(carry);
    (p as Limb, (p >> 64) as Limb)
}

/// Divides the two-limb value `(hi, lo)` by `d`, returning `(quotient,
/// remainder)`.
///
/// # Panics
///
/// Panics if `d == 0` or if the quotient would not fit in one limb
/// (i.e. `hi >= d`).
#[inline]
pub fn div2by1(hi: Limb, lo: Limb, d: Limb) -> (Limb, Limb) {
    assert!(d != 0, "division by zero");
    assert!(hi < d, "2-by-1 division overflow");
    let n = (u128::from(hi) << 64) | u128::from(lo);
    let d128 = u128::from(d);
    ((n / d128) as Limb, (n % d128) as Limb)
}

/// One step of a left-shift carry chain: shifts `l` left by `bits`
/// (which must be in `1..=63`), ORs in the carry from the previous limb,
/// and returns `(shifted, carry_out)` where `carry_out` holds the bits
/// shifted out the top — ready to be ORed into the next limb.
///
/// Kernel paths use this instead of a bare `l << bits` (apc-lint L11):
/// the bits a bare shift silently discards are exactly the carry this
/// helper hands back.
///
/// ```
/// use apc_bignum::limb::shl_step;
/// assert_eq!(shl_step(u64::MAX, 1, 1), (u64::MAX, 1));
/// assert_eq!(shl_step(1, 63, 0), (1 << 63, 0));
/// ```
#[inline]
pub fn shl_step(l: Limb, bits: u32, carry: Limb) -> (Limb, Limb) {
    debug_assert!(bits > 0 && bits < LIMB_BITS, "shift step needs 1..=63 bits");
    ((l << bits) | carry, l >> (LIMB_BITS - bits))
}

/// Number of significant bits of `x` (0 for `x == 0`).
#[inline]
pub fn bit_len(x: Limb) -> u32 {
    LIMB_BITS - x.leading_zeros()
}

/// Splits a global bit index into `(limb_index, bit_within_limb)`.
///
/// This is the addressing step shared by every bit accessor and shift. It
/// lives here — outside the `nat` kernel paths checked by apc-lint rule L3 —
/// so kernels never need a bare narrowing `as` cast: the modulo guarantees
/// `bit < 64`, and a limb index that exceeds `usize::MAX` (only possible on
/// 16/32-bit targets) saturates, which out-of-range `slice::get` callers
/// treat as "beyond the number", i.e. a zero bit.
///
/// ```
/// use apc_bignum::limb::bit_split;
/// assert_eq!(bit_split(0), (0, 0));
/// assert_eq!(bit_split(130), (2, 2));
/// ```
#[inline]
pub fn bit_split(index: u64) -> (usize, u32) {
    let limb = usize::try_from(index / u64::from(LIMB_BITS)).unwrap_or(usize::MAX);
    let bit = (index % u64::from(LIMB_BITS)) as u32;
    (limb, bit)
}

/// A mask of the low `width` bits (`width ≤ 64`; the full-word mask at 64).
///
/// Kernel paths use this instead of a bare `(1 << width) - 1`, which is
/// undefined at `width == 64`.
///
/// ```
/// use apc_bignum::limb::low_mask;
/// assert_eq!(low_mask(0), 0);
/// assert_eq!(low_mask(4), 0xF);
/// assert_eq!(low_mask(64), u64::MAX);
/// ```
#[inline]
pub fn low_mask(width: u32) -> Limb {
    debug_assert!(width <= LIMB_BITS, "mask width exceeds a limb");
    if width >= LIMB_BITS {
        Limb::MAX
    } else {
        (1 << width) - 1
    }
}

/// Reads the `width`-bit field starting at bit `offset` of a little-endian
/// limb slice (`width ≤ 64`; bits beyond the slice read as zero).
///
/// This is the word-granular counterpart of `bit_split` + single-bit reads:
/// one call extracts up to 64 consecutive bits, straddling a limb boundary
/// when needed. Kernel paths use it instead of open-coded shift/or chains
/// (apc-lint L11): the boundary straddle is exactly where a bare `<<`
/// silently drops bits.
///
/// ```
/// use apc_bignum::limb::extract_bits;
/// let limbs = [0xAABB_CCDD_EEFF_1122u64, 0x3344];
/// assert_eq!(extract_bits(&limbs, 0, 16), 0x1122);
/// assert_eq!(extract_bits(&limbs, 56, 16), 0x44AA);
/// assert_eq!(extract_bits(&limbs, 128, 16), 0);
/// ```
#[inline]
pub fn extract_bits(limbs: &[Limb], offset: u64, width: u32) -> Limb {
    debug_assert!(width <= LIMB_BITS, "extraction wider than a limb");
    let (word, bit) = bit_split(offset);
    let lo = limbs.get(word).copied().unwrap_or(0) >> bit;
    let hi = if bit == 0 {
        0
    } else {
        // Low `bit` bits of the next limb fill the top of the window.
        limbs.get(word + 1).copied().unwrap_or(0) << (LIMB_BITS - bit)
    };
    (lo | hi) & low_mask(width)
}

/// Splits a double-limb value into `(low, high)` limbs.
///
/// The inverse of the `(low, high)` convention `mul_wide` returns; sliced
/// kernel paths use it to land a `u128` accumulator back into limb
/// storage without bare narrowing casts (apc-lint L3).
///
/// ```
/// use apc_bignum::limb::wide_parts;
/// assert_eq!(wide_parts((1u128 << 64) + 7), (7, 1));
/// ```
#[inline]
pub fn wide_parts(x: u128) -> (Limb, Limb) {
    (x as Limb, (x >> LIMB_BITS) as Limb)
}

/// Converts a `u64` count to `usize`, saturating on 16/32-bit targets.
///
/// Kernel paths use this instead of a bare `as usize` cast (apc-lint L3):
/// on 64-bit targets it is lossless, and a saturated value is only reachable
/// for sizes that could never have been allocated.
#[inline]
pub fn usize_from(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_no_carry() {
        assert_eq!(adc(2, 3, 0), (5, 0));
    }

    #[test]
    fn adc_carry_chain() {
        // max + max + 1 = 2^65 - 1 => low = max, carry = 1
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
    }

    #[test]
    fn sbb_borrow() {
        assert_eq!(sbb(0, 0, 1), (u64::MAX, 1));
    }

    #[test]
    fn mul_wide_basic() {
        assert_eq!(mul_wide(1 << 32, 1 << 32), (0, 1));
        assert_eq!(mul_wide(0, u64::MAX), (0, 0));
    }

    #[test]
    fn mul_add_carry_saturating_inputs() {
        // (2^64-1)^2 + (2^64-1) + (2^64-1) = 2^128 - 1: still fits.
        let (lo, hi) = mul_add_carry(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        assert_eq!((lo, hi), (u64::MAX, u64::MAX));
    }

    #[test]
    fn div2by1_roundtrip() {
        let (q, r) = div2by1(3, u64::MAX, 17);
        let n = (u128::from(3u64) << 64) | u128::from(u64::MAX);
        assert_eq!(u128::from(q) * 17 + u128::from(r), n);
    }

    #[test]
    #[should_panic(expected = "2-by-1 division overflow")]
    fn div2by1_overflow_panics() {
        let _ = div2by1(17, 0, 17);
    }

    #[test]
    fn bit_len_values() {
        assert_eq!(bit_len(0), 0);
        assert_eq!(bit_len(1), 1);
        assert_eq!(bit_len(u64::MAX), 64);
    }

    #[test]
    fn low_mask_bounds() {
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(63), u64::MAX >> 1);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    fn extract_bits_straddles_boundaries() {
        let limbs = [u64::MAX, 0, u64::MAX];
        // Window straddling limbs 0 and 1: ones below the boundary only.
        assert_eq!(extract_bits(&limbs, 32, 64), u64::MAX >> 32);
        // Window straddling limbs 1 and 2: ones above the boundary only.
        assert_eq!(extract_bits(&limbs, 96, 64), u64::MAX << 32);
        // Aligned full-word reads.
        assert_eq!(extract_bits(&limbs, 64, 64), 0);
        // Beyond the slice is zero.
        assert_eq!(extract_bits(&limbs, 192, 64), 0);
    }

    #[test]
    fn extract_bits_matches_shift_reference() {
        let limbs = [0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210];
        let value = (u128::from(limbs[1]) << 64) | u128::from(limbs[0]);
        for offset in 0..120u64 {
            for width in [1u32, 7, 32, 33, 64] {
                let expect = ((value >> offset) as u64) & low_mask(width);
                assert_eq!(
                    extract_bits(&limbs, offset, width),
                    expect,
                    "offset={offset} width={width}"
                );
            }
        }
    }

    #[test]
    fn wide_parts_roundtrip() {
        let x = 0xDEAD_BEEF_0123_4567_89AB_CDEF_FEDC_BA98u128;
        let (lo, hi) = wide_parts(x);
        assert_eq!((u128::from(hi) << 64) | u128::from(lo), x);
    }
}
