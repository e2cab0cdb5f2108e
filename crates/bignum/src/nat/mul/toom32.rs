//! Toom-3/2: the unbalanced Toom variant for operands near a 3:2 length
//! ratio (GMP's `mpn_toom32_mul`; the paper's footnote 1 lists
//! "Toom-{3/2, 4/3, …}" among the fast paths its MPApca lacks — the
//! software substrate carries the most important one).
//!
//! The long operand splits into 3 parts, the short into 2; the product
//! polynomial has degree 3, so 4 evaluation points suffice:
//! {0, 1, −1, ∞}.

use super::{mul_recursive, MulAlgorithm, Thresholds};
use crate::int::Int;
use crate::nat::Nat;

/// Toom-3/2 multiplication. `a` must be the longer operand; any length
/// ratio is correct. `Auto` dispatch sends it the products whose
/// long/short ratio is above 1.4 and at most 2, from `th.karatsuba`
/// short limbs up, though it beats the balanced ladder there only from
/// about 600×400 limbs (1.74× slower at 62×44, at parity near 300×200).
pub fn mul(a: &Nat, b: &Nat, algorithm: MulAlgorithm, th: &Thresholds) -> Nat {
    debug_assert!(a.limb_len() >= b.limb_len());
    // Part size from the long operand: 3 parts.
    let part_bits = a.limb_len().div_ceil(3) as u64 * 64;

    let (x0, rest) = a.split_at_bit(part_bits);
    let (x1, x2) = rest.split_at_bit(part_bits);
    let (y0, y1) = b.split_at_bit(part_bits);

    // Evaluations at {0, 1, −1, ∞}.
    let x02 = &x0 + &x2;
    let ex1 = Int::from_nat(&x02 + &x1); // x(1)
    let exm1 = Int::from_nat(x02) - Int::from_nat(x1.clone()); // x(−1)
    let ey1 = Int::from_nat(&y0 + &y1); // y(1)
    let eym1 = Int::from_nat(y0.clone()) - Int::from_nat(y1.clone()); // y(−1)

    let w0 = mul_recursive(&x0, &y0, algorithm, th); // r(0) = c0
    let winf = mul_recursive(&x2, &y1, algorithm, th); // r(∞) = c3
    let w1 = mul_signed(&ex1, &ey1, algorithm, th); // r(1) = c0+c1+c2+c3
    let wm1 = mul_signed(&exm1, &eym1, algorithm, th); // r(−1) = c0−c1+c2−c3

    // Interpolation:
    //   c2 = (r(1) + r(−1))/2 − c0
    //   c1 = (r(1) − r(−1))/2 − c3
    let half_sum = (&w1 + &wm1).div_exact_u64(2);
    let half_diff = (&w1 - &wm1).div_exact_u64(2);
    let c0 = Int::from_nat(w0);
    let c3 = Int::from_nat(winf);
    let c2 = &half_sum - &c0;
    let c1 = &half_diff - &c3;

    let mut acc = c0;
    acc += &c1.shl_bits(part_bits);
    acc += &c2.shl_bits(2 * part_bits);
    acc += &c3.shl_bits(3 * part_bits);
    acc.into_nat()
}

fn mul_signed(a: &Int, b: &Int, algorithm: MulAlgorithm, th: &Thresholds) -> Int {
    Int::from_sign_magnitude(
        a.is_negative() != b.is_negative(),
        mul_recursive(a.magnitude(), b.magnitude(), algorithm, th),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::mul::schoolbook;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed.wrapping_mul(0x6C62272E07BB0142) | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Nat::from_limbs(v)
    }

    fn toom32(a: &Nat, b: &Nat) -> Nat {
        mul(a, b, MulAlgorithm::Auto, &Thresholds::default())
    }

    #[test]
    fn matches_schoolbook_at_3_to_2() {
        for (al, bl) in [(3usize, 2usize), (30, 20), (90, 60), (150, 100)] {
            let a = pattern(al, 1);
            let b = pattern(bl, 2);
            assert_eq!(toom32(&a, &b), schoolbook::mul(&a, &b), "{al}:{bl}");
        }
    }

    #[test]
    fn correct_at_other_ratios() {
        // The split is tuned for 3:2 but must stay correct anywhere with
        // a >= b.
        for (al, bl) in [(10usize, 10usize), (20, 8), (50, 45), (64, 25)] {
            let a = pattern(al, 3);
            let b = pattern(bl, 4);
            assert_eq!(toom32(&a, &b), schoolbook::mul(&a, &b), "{al}:{bl}");
        }
    }

    #[test]
    fn sparse_parts() {
        let a = Nat::power_of_two(64 * 29) + Nat::one();
        let b = pattern(20, 7);
        assert_eq!(toom32(&a, &b), schoolbook::mul(&a, &b));
    }
}
