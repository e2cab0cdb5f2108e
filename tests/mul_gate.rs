//! Multiplication gate: every `MulAlgorithm`, `Auto` and `Nat::square`
//! against an independent reference, a test-local u128 schoolbook over
//! raw limbs that shares no code with apc-bignum.
//!
//! Shapes: every length pair up to 72 limbs with ratios up to 2:1 (which
//! crosses the 1.4:1 Toom-3/2 edge), operands whose carries ripple
//! through every limb, operands with zero low or high halves and zero
//! trailing limbs, and each default threshold −1, +0 and +1. A second
//! pass lowers the thresholds so that Karatsuba and Toom-3 recurse
//! several levels deep (odd splits, unequal halves, reused scratch) on
//! operands small enough to check exhaustively.

use cambricon_p_repro::apc_bignum::nat::mul::{mul_dispatch, Thresholds};
use cambricon_p_repro::apc_bignum::{MulAlgorithm, Nat};

/// `Auto` first and SSA last (see [`algorithms_for`]).
const ALGORITHMS: [MulAlgorithm; 7] = [
    MulAlgorithm::Auto,
    MulAlgorithm::Schoolbook,
    MulAlgorithm::Karatsuba,
    MulAlgorithm::Toom3,
    MulAlgorithm::Toom4,
    MulAlgorithm::Toom6,
    MulAlgorithm::Ssa,
];

/// The reference product of two little-endian limb vectors, with trailing
/// zero limbs stripped (the normal form `Nat::limbs` returns).
fn reference(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// `len` pseudo-random limbs (splitmix64) with a nonzero top limb.
fn random_limbs(len: usize, seed: u64) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut v: Vec<u64> = (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    v
}

/// Operand shapes of `len` limbs: random, all ones, zero low half, zero
/// high half below a nonzero top limb, and zero trailing limbs.
fn shapes(len: usize, seed: u64) -> Vec<Vec<u64>> {
    let random = random_limbs(len, seed);
    let half = len / 2;
    let mut low_zero = random.clone();
    low_zero[..half].fill(0);
    let mut high_zero = random.clone();
    high_zero[half..len - 1].fill(0);
    let mut trailing_zero = random.clone();
    trailing_zero[..len.saturating_sub(1).min(3)].fill(0);
    vec![
        random,
        vec![u64::MAX; len],
        low_zero,
        high_zero,
        trailing_zero,
    ]
}

/// Checks `a·b` under each algorithm, and `b·a` under `Auto`.
fn check(a: &[u64], b: &[u64], algorithms: &[MulAlgorithm], th: &Thresholds) {
    let expect = reference(a, b);
    let (x, y) = (Nat::from_limbs(a.to_vec()), Nat::from_limbs(b.to_vec()));
    let commuted = (MulAlgorithm::Auto, &y, &x);
    let runs = algorithms.iter().map(|&alg| (alg, &x, &y));
    for (alg, p, q) in runs.chain(std::iter::once(commuted)) {
        let got = mul_dispatch(p, q, alg, th);
        assert_eq!(
            got.limbs(),
            expect.as_slice(),
            "{alg:?} {}x{} limbs, thresholds {th:?}",
            p.limb_len(),
            q.limb_len()
        );
    }
}

/// `x mod p` for a little-endian limb vector (Horner over the limbs).
fn residue(limbs: &[u64], p: u64) -> u64 {
    limbs.iter().rev().fold(0u64, |r, &l| {
        (((u128::from(r) << 64) + u128::from(l)) % u128::from(p)) as u64
    })
}

/// Significant bits of a little-endian limb vector with a nonzero top limb.
fn bit_len(limbs: &[u64]) -> u64 {
    let top = limbs
        .last()
        .map_or(0, |l| 64 - u64::from(l.leading_zeros()));
    64 * limbs.len().saturating_sub(1) as u64 + top
}

/// Algorithms for the `i`-th operand pair: forced SSA costs milliseconds
/// per product in a debug build, so it runs on every eighth pair.
fn algorithms_for(i: usize) -> &'static [MulAlgorithm] {
    if i.is_multiple_of(8) {
        &ALGORITHMS
    } else {
        &ALGORITHMS[..6]
    }
}

/// Length pairs `(long, short)` up to `max` limbs with `long ≤ 2·short`.
fn pairs(max: usize) -> impl Iterator<Item = (usize, usize)> {
    (1..=max).flat_map(|long| (long.div_ceil(2)..=long).map(move |short| (long, short)))
}

#[test]
fn every_algorithm_matches_the_reference_up_to_72_limbs() {
    let th = Thresholds::default();
    for (i, (long, short)) in pairs(72).enumerate() {
        let seed = (long * 131 + short) as u64;
        let a = random_limbs(long, seed);
        let b = random_limbs(short, seed ^ 0x5555);
        check(&a, &b, algorithms_for(i), &th);
    }
}

#[test]
fn carry_and_zero_shapes_match_the_reference() {
    let th = Thresholds::default();
    let edges = pairs(72).filter(|&(l, s)| l == s || 5 * l == 7 * s || l == 2 * s);
    for (i, (long, short)) in edges.enumerate() {
        let (a, b) = (shapes(long, long as u64), shapes(short, 7 * short as u64));
        // Random against all ones, all ones squared, then each zero shape
        // against its partner shape.
        for (x, y) in [(0, 1), (1, 1), (2, 3), (3, 2), (4, 4)] {
            check(&a[x], &b[y], algorithms_for(i), &th);
        }
    }
}

#[test]
fn each_default_threshold_edge_matches_the_reference() {
    let th = Thresholds::default();
    for (i, edge) in [th.karatsuba, th.toom3].into_iter().enumerate() {
        for len in [edge - 1, edge, edge + 1] {
            let seed = 1000 * i as u64 + len as u64;
            let b = random_limbs(len, seed);
            check(&random_limbs(len, !seed), &b, &ALGORITHMS, &th);
            // The 1.4:1 Toom-3/2 edge at the same short length.
            check(
                &random_limbs(len * 7 / 5 + 1, seed + 1),
                &b,
                &ALGORITHMS,
                &th,
            );
            let ones = vec![u64::MAX; len];
            check(&ones, &ones, &ALGORITHMS, &th);
        }
    }
    for len in [th.toom4 - 1, th.toom4, th.toom4 + 1] {
        check(
            &random_limbs(len, 5),
            &random_limbs(len, 6),
            &ALGORITHMS[..1],
            &th,
        );
    }
    // At the Toom-6 and SSA edges the quadratic reference would dominate a
    // debug run, so Auto's product is checked modulo three primes instead.
    let primes = [
        (1u64 << 61) - 1,
        0xFFFF_FFFF_FFFF_FFC5,
        0xFFFF_FFFF_0000_0001,
    ];
    for len in [th.toom6, th.ssa]
        .into_iter()
        .flat_map(|e| [e - 1, e, e + 1])
    {
        for (a, b) in [
            (random_limbs(len, 7), random_limbs(len, 8)),
            (vec![u64::MAX; len], vec![u64::MAX; len]),
        ] {
            let got = &Nat::from_limbs(a.clone()) * &Nat::from_limbs(b.clone());
            let bits = bit_len(&a) + bit_len(&b);
            assert!(
                (bits - 1..=bits).contains(&bit_len(got.limbs())),
                "{len} limbs"
            );
            for p in primes {
                let expect = u128::from(residue(&a, p)) * u128::from(residue(&b, p));
                let expect = (expect % u128::from(p)) as u64;
                assert_eq!(residue(got.limbs(), p), expect, "{len} limbs mod {p:#x}");
            }
        }
    }
}

#[test]
fn low_thresholds_recurse_deeply_and_match_the_reference() {
    let forced = [
        MulAlgorithm::Auto,
        MulAlgorithm::Karatsuba,
        MulAlgorithm::Toom3,
    ];
    for karatsuba in [2, 3, 5] {
        let th = Thresholds {
            karatsuba,
            toom3: 4 * karatsuba,
            ..Thresholds::default()
        };
        for (long, short) in pairs(40) {
            let seed = (long * 57 + short + karatsuba) as u64;
            check(
                &random_limbs(long, seed),
                &random_limbs(short, !seed),
                &forced,
                &th,
            );
            if long == short || long == 2 * short {
                let (a, b) = (vec![u64::MAX; long], vec![u64::MAX; short]);
                check(&a, &b, &forced, &th);
            }
        }
        // Far beyond 2:1, which forced algorithms still accept.
        for (long, short) in [(40, 3), (37, 11), (64, 19)] {
            check(
                &random_limbs(long, 9),
                &random_limbs(short, 10),
                &forced,
                &th,
            );
        }
    }
}

#[test]
fn square_matches_the_reference() {
    let th = Thresholds::default();
    let mut lens: Vec<usize> = (1..=72).collect();
    // Squares above the 32-limb squaring basecase take the general ladder.
    lens.extend([96, 200, 382, 383, 400, th.toom3 - 1, th.toom3, th.toom3 + 1]);
    lens.sort_unstable();
    lens.dedup();
    for len in lens {
        for a in shapes(len, 77 + len as u64) {
            let expect = reference(&a, &a);
            let x = Nat::from_limbs(a);
            assert_eq!(x.square().limbs(), expect.as_slice(), "square, {len} limbs");
            assert_eq!((&x * &x).limbs(), expect.as_slice(), "x * x, {len} limbs");
        }
    }
}
