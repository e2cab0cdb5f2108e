//! Radix conversion to and from decimal strings, divide-and-conquer in both
//! directions so that printing a million digits of π stays subquadratic-ish.

use super::Nat;
use crate::error::ParseNumberError;

/// Largest power of 10 that fits in a limb: 10^19.
const CHUNK_DIGITS: usize = 19;
const CHUNK_VALUE: u64 = 10_000_000_000_000_000_000;

impl Nat {
    /// Parses a decimal string (ASCII digits only; no sign, no separators).
    ///
    /// # Errors
    ///
    /// Returns [`ParseNumberError`] if the string is empty or contains a
    /// non-digit character.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from_decimal_str("340282366920938463463374607431768211456").unwrap();
    /// assert_eq!(n, Nat::power_of_two(128));
    /// ```
    pub fn from_decimal_str(s: &str) -> Result<Nat, ParseNumberError> {
        if s.is_empty() {
            return Err(ParseNumberError::empty());
        }
        for (i, c) in s.char_indices() {
            if !c.is_ascii_digit() {
                return Err(ParseNumberError::invalid_digit(i, c));
            }
        }
        Ok(from_digits(s.as_bytes()))
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseNumberError`] if the string is empty or contains a
    /// non-hex character.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from_hex_str("DeadBeef").unwrap();
    /// assert_eq!(n.to_u64(), Some(0xDEAD_BEEF));
    /// ```
    pub fn from_hex_str(s: &str) -> Result<Nat, ParseNumberError> {
        if s.is_empty() {
            return Err(ParseNumberError::empty());
        }
        let mut acc = Nat::zero();
        for (i, c) in s.char_indices() {
            let digit = c
                .to_digit(16)
                .ok_or_else(|| ParseNumberError::invalid_digit(i, c))?;
            acc = acc.shl_bits(4).add_limb(u64::from(digit));
        }
        Ok(acc)
    }

    /// Renders as a decimal string by divide-and-conquer splitting on
    /// powers of 10^19.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::zero().to_decimal_string(), "0");
    /// assert_eq!(Nat::power_of_two(64).to_decimal_string(), "18446744073709551616");
    /// ```
    pub fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        if let Some(v) = self.to_u128() {
            return v.to_string();
        }
        // Tower of powers: powers[i] = 10^(19·2^i); grow until it exceeds
        // self so that `self < powers[top]`.
        let mut top = Nat::from(CHUNK_VALUE);
        let mut powers = vec![top.clone()];
        while &top <= self {
            top = &top * &top;
            powers.push(top.clone());
        }
        let mut out = String::new();
        render(self, &powers, powers.len() - 1, true, &mut out);
        out
    }
}

/// Renders `n < powers[level]` as exactly `19·2^level` digits, zero-padded
/// on the left — except when `leading` is set, which suppresses the
/// padding at the front of the whole number.
fn render(n: &Nat, powers: &[Nat], level: usize, leading: bool, out: &mut String) {
    if level == 0 {
        #[expect(
            clippy::expect_used,
            reason = "render invariant: n < powers[0] = 10^19 < 2^128"
        )]
        let v = n.to_u128().expect("chunk below 10^19 fits");
        if leading {
            out.push_str(&v.to_string());
        } else {
            out.push_str(&format!("{v:0>width$}", width = CHUNK_DIGITS));
        }
        return;
    }
    // n < powers[level] = powers[level-1]², so the split below is exact.
    let (hi, lo) = n.divrem(&powers[level - 1]);
    if leading && hi.is_zero() {
        render(&lo, powers, level - 1, true, out);
        return;
    }
    render(&hi, powers, level - 1, leading, out);
    render(&lo, powers, level - 1, false, out);
}

/// Divide-and-conquer digit parsing: split the digit string in half on a
/// power of ten, parse both halves, combine with one multiplication.
fn from_digits(digits: &[u8]) -> Nat {
    if digits.len() <= CHUNK_DIGITS {
        let mut v: u64 = 0;
        for &d in digits {
            v = v * 10 + u64::from(d - b'0');
        }
        return Nat::from(v);
    }
    let split = digits.len() / 2;
    let (hi, lo) = digits.split_at(digits.len() - split);
    let hi_val = from_digits(hi);
    let lo_val = from_digits(lo);
    &(&hi_val * &pow10(split as u64)) + &lo_val
}

/// Returns `10^e` — used by radix conversion and by the float layer's
/// decimal rendering.
///
/// ```
/// use apc_bignum::nat::radix::pow10_pub;
/// assert_eq!(pow10_pub(4).to_u64(), Some(10_000));
/// ```
pub fn pow10_pub(e: u64) -> Nat {
    pow10(e)
}

/// 10^e.
pub(crate) fn pow10(e: u64) -> Nat {
    let mut acc = Nat::one();
    let mut base = Nat::from(10u64);
    let mut e = e;
    while e > 0 {
        if e & 1 == 1 {
            acc = &acc * &base;
        }
        e >>= 1;
        if e > 0 {
            base = &base * &base;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_roundtrip_small() {
        for v in [0u64, 1, 9, 10, 12345, u64::MAX] {
            let s = v.to_string();
            let n = Nat::from_decimal_str(&s).unwrap();
            assert_eq!(n.to_u64(), Some(v));
            assert_eq!(n.to_decimal_string(), s);
        }
    }

    #[test]
    fn roundtrip_large() {
        // 2^1000 has 302 digits; check exact roundtrip.
        let n = Nat::power_of_two(1000);
        let s = n.to_decimal_string();
        assert_eq!(s.len(), 302);
        assert!(s.starts_with("10715086071862673209484250490600018105614048"));
        assert_eq!(Nat::from_decimal_str(&s).unwrap(), n);
    }

    #[test]
    fn roundtrip_with_internal_zeros() {
        // Numbers whose decimal expansion has long zero runs stress the
        // padding logic.
        let n = &pow10(100) + &Nat::from(7u64);
        let s = n.to_decimal_string();
        assert_eq!(s.len(), 101);
        assert!(s.starts_with('1'));
        assert!(s.ends_with("0007"));
        assert_eq!(Nat::from_decimal_str(&s).unwrap(), n);
    }

    #[test]
    fn many_sizes_roundtrip() {
        let mut x: u64 = 0x12345;
        for limbs in [3usize, 4, 7, 12, 40] {
            let v: Vec<u64> = (0..limbs)
                .map(|_| {
                    x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                    x
                })
                .collect();
            let n = Nat::from_limbs(v);
            let s = n.to_decimal_string();
            assert_eq!(Nat::from_decimal_str(&s).unwrap(), n, "limbs={limbs}");
            assert!(!s.starts_with('0'));
        }
    }

    #[test]
    fn reject_bad_strings() {
        assert!(Nat::from_decimal_str("").is_err());
        assert!(Nat::from_decimal_str("12 3").is_err());
        assert!(Nat::from_decimal_str("-5").is_err());
        assert!(Nat::from_decimal_str("12a").is_err());
    }

    #[test]
    fn leading_zeros_accepted() {
        assert_eq!(
            Nat::from_decimal_str("000123").unwrap().to_u64(),
            Some(123)
        );
    }

    #[test]
    fn hex_parse_roundtrip() {
        let n = Nat::from_hex_str("ffffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(n, Nat::power_of_two(128) - Nat::one());
        assert_eq!(Nat::from_hex_str(&format!("{n:x}")).unwrap(), n);
        assert!(Nat::from_hex_str("").is_err());
        assert!(Nat::from_hex_str("12g4").is_err());
        assert_eq!(Nat::from_hex_str("0").unwrap(), Nat::zero());
    }

    #[test]
    fn pow10_values() {
        assert_eq!(pow10(0).to_u64(), Some(1));
        assert_eq!(pow10(3).to_u64(), Some(1000));
        assert_eq!(pow10(19).to_u64(), Some(CHUNK_VALUE));
    }

    #[test]
    fn display_uses_decimal() {
        let n = Nat::from(12345u64);
        assert_eq!(format!("{n}"), "12345");
    }
}
