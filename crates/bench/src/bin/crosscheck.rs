//! Cross-validation harness: every computation engine in the repository
//! checked against every other on fresh random inputs. This is the
//! reproduction's equivalent of the paper's "hardware design is verified
//! with CPU results by using VCS and Verdi" (§VI-A) — run it with any
//! `--seed` to extend the verification.

use apc_bench::header;
use apc_bignum::nat::mont::MontgomeryCtx;
use apc_bignum::{MulAlgorithm, Nat};
use cambricon_p::accelerator::Accelerator;
use cambricon_p::bitserial::clocked_pe_pass;
use cambricon_p::mpapca::Device;
use cambricon_p::pe::pe_pass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Tally {
    checks: u64,
    failures: u64,
}

impl Tally {
    fn check(&mut self, name: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            self.failures += 1;
            println!("  FAIL: {name}");
        }
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2022);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tally {
        checks: 0,
        failures: 0,
    };

    header(&format!("Cross-validation sweep (seed {seed})"));

    // 1. Multiplication ladder: all six algorithms against schoolbook.
    for round in 0..6 {
        let bits = [500u64, 3_000, 20_000, 80_000][round % 4];
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_bits(bits, &mut rng);
        let reference = a.mul_with(&b, MulAlgorithm::Schoolbook);
        for alg in [
            MulAlgorithm::Auto,
            MulAlgorithm::Karatsuba,
            MulAlgorithm::Toom3,
            MulAlgorithm::Toom4,
            MulAlgorithm::Toom6,
            MulAlgorithm::Ssa,
        ] {
            t.check(
                &format!("mul {alg:?} @ {bits} bits"),
                a.mul_with(&b, alg) == reference,
            );
        }
    }
    println!("multiplication ladder: ok");

    // 2. Structural accelerator + MPApca device vs oracle.
    let acc = Accelerator::new_default();
    let dev = Device::new_default();
    for _ in 0..4 {
        let bits = rng.gen_range(64..4096);
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_bits(bits, &mut rng);
        let oracle = &a * &b;
        t.check("structural accelerator", acc.multiply(&a, &b).product == oracle);
        t.check("mpapca device", dev.mul(&a, &b) == oracle);
        t.check(
            "structural adder",
            acc.add(&a, &b).sum == &a + &b,
        );
    }
    println!("device models: ok");

    // 3. Clocked RTL PE vs functional PE.
    for _ in 0..3 {
        let x_block: Vec<Nat> = (0..4).map(|_| Nat::random_bits(32, &mut rng)).collect();
        let ys: Vec<Vec<Nat>> = (0..4)
            .map(|_| (0..4).map(|_| Nat::random_bits(32, &mut rng)).collect())
            .collect();
        let functional = pe_pass(&x_block, &ys, 32).expect("valid inputs").gathered;
        let clocked = clocked_pe_pass(&x_block, &ys, 32);
        t.check("clocked PE vs functional PE", clocked == functional);
    }
    println!("clocked RTL model: ok");

    // 4. Division: quotient and remainder come back exactly from q·d + r.
    for _ in 0..4 {
        let q = Nat::random_exact_bits(rng.gen_range(64..5_000), &mut rng);
        let d = Nat::random_exact_bits(rng.gen_range(64..3_000), &mut rng);
        let r = Nat::random_below(&d, &mut rng);
        let n = &q * &d;
        t.check("divrem exact", n.divrem(&d) == (q.clone(), Nat::zero()));
        t.check("div_exact", n.div_exact(&d) == q);
        t.check("divrem with remainder", (&n + &r).divrem(&d) == (q, r));
    }
    println!("division family: ok");

    // 5. Roots.
    for _ in 0..4 {
        let a = Nat::random_exact_bits(rng.gen_range(64..4_000), &mut rng);
        let (s, r) = a.sqrt_rem();
        t.check("sqrt invariant", &(&s * &s) + &r == a && (&s + &Nat::one()).square() > a);
        let c = a.nth_root(3);
        t.check(
            "cbrt invariant",
            c.pow(3) <= a && (&c + &Nat::one()).pow(3) > a,
        );
    }
    println!("roots: ok");

    // 6. Modular exponentiation: Montgomery and device vs square-and-multiply.
    for _ in 0..3 {
        let m = Nat::random_exact_bits(512, &mut rng).with_bit(0, true);
        let base = Nat::random_below(&m, &mut rng);
        let exp = Nat::random_bits(96, &mut rng);
        let mut naive = Nat::one();
        for i in (0..exp.bit_len()).rev() {
            naive = &(&naive * &naive) % &m;
            if exp.bit(i) {
                naive = &(&naive * &base) % &m;
            }
        }
        let mont = MontgomeryCtx::new(m.clone()).pow_mod(&base, &exp);
        t.check("montgomery pow_mod", mont == naive);
        t.check("device pow_mod", dev.pow_mod(&base, &exp, &m) == naive);
    }
    println!("modular arithmetic: ok");

    // 7. Radix round trips.
    for _ in 0..3 {
        let a = Nat::random_exact_bits(rng.gen_range(64..20_000), &mut rng);
        t.check(
            "decimal roundtrip",
            Nat::from_decimal_str(&a.to_decimal_string()).as_ref() == Ok(&a),
        );
        t.check(
            "hex roundtrip",
            Nat::from_hex_str(&format!("{a:x}")).as_ref() == Ok(&a),
        );
    }
    println!("radix: ok");

    header("Summary");
    println!("{} checks, {} failures", t.checks, t.failures);
    assert_eq!(t.failures, 0, "cross-validation must be clean");
}
