//! Property tests for the invariant layer (`apc_bignum::invariants`):
//! every operation's result must satisfy the representation contracts the
//! rest of the workspace relies on — normalization (no trailing zero
//! limb) and chunk-width bounds. Run with `--features paranoid` to keep
//! the same checks alive in release builds.

use apc_bignum::{invariants, Nat};
use proptest::prelude::*;

fn arb_nat(max_limbs: usize) -> impl Strategy<Value = Nat> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Nat::from_limbs)
}

#[test]
fn invariant_checks_are_active_in_test_builds() {
    // Tests compile with debug_assertions (or the paranoid feature), so
    // the layer must report itself enabled — otherwise every check below
    // would pass vacuously.
    assert!(invariants::enabled());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arithmetic_results_stay_normalized(a in arb_nat(16), b in arb_nat(16)) {
        for v in [&a + &b, &a * &b, a.shl_bits(13), a.shr_bits(13)] {
            invariants::check_normalized(v.limbs());
        }
        if let Some(d) = a.checked_sub(&b) {
            invariants::check_normalized(d.limbs());
        }
    }

    #[test]
    fn cancelling_subtraction_normalizes_to_zero(a in arb_nat(16)) {
        // a − a must collapse to the empty limb vector, not [0, 0, ...].
        let z = &a - &a;
        prop_assert!(z.is_zero());
        invariants::check_normalized(z.limbs());
        prop_assert_eq!(z.limb_len(), 0);
    }

    #[test]
    fn divrem_results_are_normalized(a in arb_nat(16), b in arb_nat(8)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        invariants::check_normalized(q.limbs());
        invariants::check_normalized(r.limbs());
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn chunks_fit_their_width_and_roundtrip(a in arb_nat(12), bits in 1u64..=96) {
        let count = usize::try_from(a.bit_len().div_ceil(bits).max(1)).unwrap();
        let chunks = a.to_chunks(bits, count);
        invariants::check_chunk_widths(&chunks, bits);
        prop_assert_eq!(Nat::from_chunks(&chunks, bits), a);
    }

    #[test]
    fn from_limbs_restores_normalization(
        limbs in prop::collection::vec(any::<u64>(), 0..=12),
        zeros in 0usize..4,
    ) {
        let mut padded = limbs;
        padded.extend(std::iter::repeat_n(0, zeros));
        let n = Nat::from_limbs(padded);
        invariants::check_normalized(n.limbs());
    }

    #[test]
    fn shifts_preserve_normalization_roundtrip(a in arb_nat(12), bits in 0u64..=200) {
        let up = a.shl_bits(bits);
        invariants::check_normalized(up.limbs());
        let back = up.shr_bits(bits);
        invariants::check_normalized(back.limbs());
        prop_assert_eq!(back, a);
    }
}
