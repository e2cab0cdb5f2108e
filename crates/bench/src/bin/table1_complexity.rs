//! Table I: the low-level operators and their complexities — verified
//! empirically by fitting log-log slopes of measured runtimes of this
//! repo's implementations.

use apc_bench::{header, loglog_slope, sample};
use apc_bignum::{MulAlgorithm, Nat};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn operands(limbs: usize, rng: &mut StdRng) -> (Nat, Nat) {
    (
        Nat::random_exact_bits(limbs as u64 * 64, rng),
        Nat::random_exact_bits(limbs as u64 * 64, rng),
    )
}

fn fit_mul(alg: MulAlgorithm, sizes: &[usize], rng: &mut StdRng) -> f64 {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &limbs in sizes {
        let (a, b) = operands(limbs, rng);
        let t = sample(0.1, || a.mul_with(&b, alg)).median;
        xs.push(limbs as f64);
        ys.push(t);
    }
    loglog_slope(&xs, &ys)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    header("Table I — low-level operators and their fast algorithms");

    println!(
        "{:<16} {:>12} {:>10}",
        "multiplication", "theoretical", "measured"
    );
    let cases: [(&str, MulAlgorithm, f64, &[usize]); 6] = [
        ("Schoolbook", MulAlgorithm::Schoolbook, 2.0, &[64, 128, 256, 512]),
        ("Karatsuba", MulAlgorithm::Karatsuba, 1.585, &[128, 256, 512, 1024, 2048]),
        ("Toom-3", MulAlgorithm::Toom3, 1.465, &[128, 256, 512, 1024, 2048]),
        ("Toom-4", MulAlgorithm::Toom4, 1.404, &[256, 512, 1024, 2048, 4096]),
        ("Toom-6", MulAlgorithm::Toom6, 1.338, &[256, 512, 1024, 2048, 4096]),
        ("SSA", MulAlgorithm::Ssa, 1.1, &[512, 1024, 2048, 4096, 8192]),
    ];
    for (name, alg, theory, sizes) in cases {
        let slope = fit_mul(alg, sizes, &mut rng);
        let note = if name == "SSA" {
            " (n·log n·log log n ⇒ slope slightly above 1)"
        } else {
            ""
        };
        println!("{name:<16} {theory:>11.3} {slope:>10.3}{note}");
    }

    println!();
    println!("{:<16} {:>12} {:>10}", "other operators", "theoretical", "measured");

    // O(n) operators.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for limbs in [4096usize, 8192, 16384, 32768] {
        let (a, b) = operands(limbs, &mut rng);
        let t = sample(0.1, || &a + &b).median;
        xs.push(limbs as f64);
        ys.push(t.max(1e-9));
    }
    println!("Addition       {:>12.3} {:>10.3}", 1.0, loglog_slope(&xs, &ys));

    // Division (Burnikel–Ziegler; paper: O(n^m log n), 1 ≤ m < 2).
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for limbs in [256usize, 512, 1024, 2048] {
        let (q, d) = operands(limbs, &mut rng);
        let u = &q * &d;
        let t = sample(0.1, || u.divrem(&d)).median;
        xs.push(limbs as f64);
        ys.push(t);
    }
    let div_slope = loglog_slope(&xs, &ys);
    println!("Division (D&C) {:>12} {div_slope:>10.3}", "1..2");
    assert!(
        div_slope < 2.2,
        "divide-and-conquer division must beat schoolbook asymptotics"
    );

    // Square root.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for limbs in [256usize, 512, 1024, 2048] {
        let (a, _) = operands(limbs, &mut rng);
        let t = sample(0.1, || a.sqrt_rem()).median;
        xs.push(limbs as f64);
        ys.push(t);
    }
    println!("SqrtRem        {:>12} {:>10.3}", "~mul", loglog_slope(&xs, &ys));
}
