//! Property-based tests for the arithmetic substrate: ring laws, division
//! invariants, algorithm agreement, radix round trips.

use apc_bignum::{Int, MulAlgorithm, Nat};
use proptest::prelude::*;

fn arb_nat(max_limbs: usize) -> impl Strategy<Value = Nat> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Nat::from_limbs)
}

fn arb_int(max_limbs: usize) -> impl Strategy<Value = Int> {
    (any::<bool>(), arb_nat(max_limbs))
        .prop_map(|(neg, mag)| Int::from_sign_magnitude(neg, mag))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- semiring laws --------------------------------------------------

    #[test]
    fn add_commutative(a in arb_nat(24), b in arb_nat(24)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in arb_nat(16), b in arb_nat(16), c in arb_nat(16)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in arb_nat(20), b in arb_nat(20)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associative(a in arb_nat(8), b in arb_nat(8), c in arb_nat(8)) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn distributive(a in arb_nat(12), b in arb_nat(12), c in arb_nat(12)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in arb_nat(20), b in arb_nat(20)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    // --- algorithm agreement --------------------------------------------

    #[test]
    fn fast_algorithms_agree(a in arb_nat(32), b in arb_nat(32)) {
        let reference = a.mul_with(&b, MulAlgorithm::Schoolbook);
        for alg in [
            MulAlgorithm::Karatsuba,
            MulAlgorithm::Toom3,
            MulAlgorithm::Toom4,
            MulAlgorithm::Toom6,
            MulAlgorithm::Ssa,
        ] {
            prop_assert_eq!(a.mul_with(&b, alg), reference.clone());
        }
    }

    // --- division and roots ----------------------------------------------

    #[test]
    fn divrem_invariant(a in arb_nat(24), b in arb_nat(10)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn divrem_limb_matches_divrem(a in arb_nat(16), d in 1u64..) {
        let (q1, r1) = a.divrem_limb(d);
        let (q2, r2) = a.divrem(&Nat::from(d));
        prop_assert_eq!(q1, q2);
        prop_assert_eq!(Nat::from(r1), r2);
    }

    #[test]
    fn sqrt_rem_invariant(a in arb_nat(12)) {
        let (s, r) = a.sqrt_rem();
        prop_assert_eq!(&(&s * &s) + &r, a.clone());
        let next = &s + &Nat::one();
        prop_assert!(&next * &next > a);
    }

    #[test]
    fn gcd_divides_and_is_maximal(a in arb_nat(6), b in arb_nat(6)) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
            // gcd(a/g, b/g) == 1
            let (ar, br) = (&a / &g, &b / &g);
            prop_assert!(ar.gcd(&br).is_one() || ar.is_zero() || br.is_zero());
        }
    }

    // --- shifts and bits ---------------------------------------------------

    #[test]
    fn shl_is_mul_by_power_of_two(a in arb_nat(12), s in 0u64..500) {
        prop_assert_eq!(a.shl_bits(s), &a * &Nat::power_of_two(s));
    }

    #[test]
    fn split_reassembles(a in arb_nat(16), s in 1u64..1000) {
        let (lo, hi) = a.split_at_bit(s);
        prop_assert!(lo.bit_len() <= s);
        prop_assert_eq!(&lo + &hi.shl_bits(s), a);
    }

    #[test]
    fn count_ones_add_bound(a in arb_nat(8), b in arb_nat(8)) {
        // popcount(a+b) <= popcount(a) + popcount(b) (carries only merge).
        prop_assert!((&a + &b).count_ones() <= a.count_ones() + b.count_ones());
    }

    // --- radix ------------------------------------------------------------

    #[test]
    fn decimal_roundtrip(a in arb_nat(16)) {
        let s = a.to_decimal_string();
        prop_assert_eq!(Nat::from_decimal_str(&s).unwrap(), a);
    }

    // --- signed integers ----------------------------------------------------

    #[test]
    fn int_ring_laws(a in arb_int(10), b in arb_int(10), c in arb_int(10)) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a + &(-&a), Int::zero());
    }

    #[test]
    fn int_divrem_truncated(a in arb_int(12), b in arb_int(6)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.magnitude() < b.magnitude());
        // Remainder takes the dividend's sign (or is zero).
        if !r.is_zero() {
            prop_assert_eq!(r.is_negative(), a.is_negative());
        }
    }

    // --- modular arithmetic ---------------------------------------------------

    #[test]
    fn mod_inverse_works_for_odd_prime_modulus(a in arb_nat(4)) {
        let p = Nat::from(0xFFFF_FFFF_FFFF_FFC5u64); // 64-bit prime
        let a = &a % &p;
        prop_assume!(!a.is_zero());
        let inv = a.mod_inverse(&p).expect("prime modulus");
        prop_assert!(((&a * &inv) % &p).is_one());
    }

    #[test]
    fn pow_mod_homomorphism(a in arb_nat(3), x in 0u32..50, y in 0u32..50) {
        let m = Nat::from(1_000_000_007u64);
        let a = &a % &m;
        // a^x · a^y ≡ a^(x+y) (mod m)
        let lhs = (&apc_bignum::nat::mont::pow_mod(&a, &Nat::from(u64::from(x)), &m)
            * &apc_bignum::nat::mont::pow_mod(&a, &Nat::from(u64::from(y)), &m))
            % &m;
        let rhs = apc_bignum::nat::mont::pow_mod(&a, &Nat::from(u64::from(x + y)), &m);
        prop_assert_eq!(lhs, rhs);
    }
}
