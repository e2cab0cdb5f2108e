//! Cross-crate property-based tests: every functional unit of the
//! architecture model and the device built from them must agree with the
//! software substrate on arbitrary inputs, and the substrate must satisfy
//! the algebraic laws of ℕ.

use cambricon_p_repro::apc_bignum::Nat;
use cambricon_p_repro::cambricon_p::accelerator::Accelerator;
use cambricon_p_repro::cambricon_p::converter::generate_patterns;
use cambricon_p_repro::cambricon_p::gu::{gather_carry_parallel, gather_reference};
use cambricon_p_repro::cambricon_p::ipu::{
    bit_indexed_inner_product, plain_bit_serial_inner_product,
};
use cambricon_p_repro::cambricon_p::pe::pe_pass;
use cambricon_p_repro::cambricon_p::transform::{convolve, recompose, to_limb_vector};
use cambricon_p_repro::cambricon_p::Device;
use proptest::prelude::*;

fn arb_nat(max_limbs: usize) -> impl Strategy<Value = Nat> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Nat::from_limbs)
}

fn arb_limb32() -> impl Strategy<Value = Nat> {
    any::<u32>().prop_map(|v| Nat::from(u64::from(v)))
}

fn inner_product_oracle(xs: &[Nat], ys: &[Nat]) -> Nat {
    xs.iter()
        .zip(ys)
        .fold(Nat::zero(), |acc, (x, y)| &acc + &(x * y.clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn converter_patterns_are_subset_sums(
        xs in prop::collection::vec(arb_limb32(), 1..=4)
    ) {
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        for mask in 0..p.len() {
            let mut expect = Nat::zero();
            for (i, x) in xs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    expect = &expect + x;
                }
            }
            prop_assert_eq!(p.get(mask), &expect);
        }
    }

    #[test]
    fn bips_equals_oracle_and_plain_scheme(
        xs in prop::collection::vec(arb_limb32(), 2..=4),
        seed in any::<u64>(),
    ) {
        // Build ys of the same arity from the seed.
        let ys: Vec<Nat> = (0..xs.len())
            .map(|i| Nat::from(u64::from((seed.rotate_left(i as u32 * 13)) as u32)))
            .collect();
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        let bips = bit_indexed_inner_product(&p, &ys, 32);
        let plain = plain_bit_serial_inner_product(&xs, &ys, 32, true);
        let oracle = inner_product_oracle(&xs, &ys);
        prop_assert_eq!(&bips.value, &oracle);
        prop_assert_eq!(&plain.value, &oracle);
        // BIPS never does MORE weighted-gather work than the zero-skipping
        // plain scheme (pattern reuse only removes additions).
        prop_assert!(bips.tally.weighted_gather <= plain.tally.weighted_gather);
    }

    #[test]
    fn canonical_gather_has_one_bit_carries(
        parts in prop::collection::vec(any::<u32>(), 1..=32)
    ) {
        // 2L-bit partials at L = 16: Eq. 2's canonical shape.
        let nats: Vec<Nat> = parts.iter().map(|&v| Nat::from(u64::from(v))).collect();
        let g = gather_carry_parallel(&nats, 16);
        prop_assert!(g.carry_domain <= 2, "carry domain {}", g.carry_domain);
    }

    #[test]
    fn pe_pass_is_inner_products_at_stride(
        x0 in arb_limb32(), x1 in arb_limb32(),
        seed in any::<u64>(),
    ) {
        let block = vec![x0, x1];
        let ys: Vec<Vec<Nat>> = (0..4)
            .map(|k| {
                vec![
                    Nat::from(u64::from((seed.rotate_left(k * 7)) as u16)),
                    Nat::from(u64::from((seed.rotate_right(k * 11)) as u16)),
                ]
            })
            .collect();
        let r = pe_pass(&block, &ys, 32).expect("valid inputs");
        for (k, y) in ys.iter().enumerate() {
            prop_assert_eq!(&r.per_ipu[k], &inner_product_oracle(&block, y));
        }
        prop_assert_eq!(&r.gathered, &gather_reference(&r.per_ipu, 32));
    }

    #[test]
    fn equation_one_random_operands(a_limbs in prop::collection::vec(any::<u64>(), 1..=12),
                                    b_limbs in prop::collection::vec(any::<u64>(), 1..=12)) {
        let a = Nat::from_limbs(a_limbs);
        let b = Nat::from_limbs(b_limbs);
        let xs = to_limb_vector(&a, 32);
        let ys = to_limb_vector(&b, 32);
        let ips = convolve(&xs, &ys);
        prop_assert_eq!(recompose(&ips, 32), &a * &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn device_mul_matches_oracle(a in arb_nat(40), b in arb_nat(40)) {
        let dev = Device::new_default();
        prop_assert_eq!(dev.mul(&a, &b), &a * &b);
    }

    #[test]
    fn device_divrem_is_euclidean(a in arb_nat(30), b in arb_nat(12)) {
        prop_assume!(!b.is_zero());
        let dev = Device::new_default();
        let (q, r) = dev.divrem(&a, &b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn device_sqrt_is_floor_sqrt(a in arb_nat(20)) {
        let dev = Device::new_default();
        let (s, r) = dev.sqrt_rem(&a);
        prop_assert_eq!(&(&s * &s) + &r, a.clone());
        let next = &s + &Nat::one();
        prop_assert!(&next * &next > a);
    }

    #[test]
    fn gather_unit_is_exact(
        parts in prop::collection::vec(any::<u64>(), 0..=24),
        l in 1u32..=48,
    ) {
        let nats: Vec<Nat> = parts.iter().map(|&v| Nat::from(v)).collect();
        let g = gather_carry_parallel(&nats, l);
        prop_assert_eq!(g.value, gather_reference(&nats, l));
    }

    #[test]
    fn mul_cycles_monotone(bits in 64u64..2_000_000) {
        let dev = Device::new_default();
        let c1 = dev.mul_cycles(bits, bits);
        let c2 = dev.mul_cycles(bits * 2, bits * 2);
        prop_assert!(c2 >= c1);
    }
}

proptest! {
    // The structural model is expensive per case; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn structural_accelerator_matches_oracle(a in arb_nat(8), b in arb_nat(8)) {
        let acc = Accelerator::new_default();
        prop_assert_eq!(acc.multiply(&a, &b).product, &a * &b);
    }

    #[test]
    fn parallel_accelerator_is_bit_identical_to_sequential(
        a in arb_nat(12), b in arb_nat(12)
    ) {
        // With the `parallel` feature, `multiply` dispatches PE passes
        // across threads; the reduce must make every observable output —
        // product, cycle model, pass count, bops tally — identical to the
        // sequential schedule. Without the feature both paths are
        // sequential and this degenerates to determinism.
        let acc = Accelerator::new_default();
        let par = acc.multiply(&a, &b);
        let seq = acc.multiply_sequential(&a, &b);
        prop_assert_eq!(par.product, seq.product);
        prop_assert_eq!(par.cycles, seq.cycles);
        prop_assert_eq!(par.pe_passes, seq.pe_passes);
        prop_assert_eq!(par.tally, seq.tally);
    }

    #[test]
    fn parallel_software_mul_is_bit_identical(
        a in arb_nat(1200), b in arb_nat(1200)
    ) {
        // Exercises the Toom-k pointwise-product dispatch in apc-bignum
        // (operands up to ~76k bits reach Toom-2/3/4 with the default
        // thresholds). Keeping the dispatch on this thread must not change
        // any product bit.
        use cambricon_p_repro::apc_bignum::par;
        let seq = par::sequential(|| &a * &b);
        let par_product = &a * &b;
        prop_assert_eq!(par_product, seq);
    }
}

/// The host may have any core count (this CI container has one), so the
/// global pool alone cannot prove multi-worker behavior. Build an explicit
/// eight-worker pool and re-prove bit-identity of both parallel layers —
/// the PE(b, w) grid dispatch and the Toom-6 pointwise-product dispatch —
/// with work genuinely spread over eight deques.
#[cfg(feature = "parallel")]
#[test]
fn eight_worker_pool_is_bit_identical_to_sequential() {
    use cambricon_p_repro::apc_bignum::par;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0xA9C);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("build 8-worker pool");

    // Structural layer: every observable output of the PE grid — product,
    // cycle model, pass count, bops tally — must match the sequential
    // schedule at the bench's largest sweep size.
    let acc = Accelerator::new_default();
    let a = Nat::random_exact_bits(8192, &mut rng);
    let b = Nat::random_exact_bits(8192, &mut rng);
    let seq = acc.multiply_sequential(&a, &b);
    let par = pool.install(|| acc.multiply(&a, &b));
    assert_eq!(par.product, seq.product);
    assert_eq!(par.cycles, seq.cycles);
    assert_eq!(par.pe_passes, seq.pe_passes);
    assert_eq!(par.tally, seq.tally);

    // Software layer: ~128k-bit operands (2000 limbs) land in the Toom-6
    // region of the default thresholds (1536..6000 limbs), so the eleven
    // pointwise products fan out across the pool.
    let a = Nat::random_exact_bits(128_000, &mut rng);
    let b = Nat::random_exact_bits(128_000, &mut rng);
    let seq_product = par::sequential(|| &a * &b);
    let par_product = pool.install(|| &a * &b);
    assert_eq!(par_product, seq_product);

    pool.shutdown();
}
