//! Threshold evidence for the apc-bignum multiply ladder, written to
//! `BENCH_ablations.json` at the repo root.
//!
//! Each section times two rungs of the ladder at limb counts around their
//! crossover, one host thread, in paired rounds (`apc_bench::sample_rounds`):
//! both algorithms run in every round, in alternating order, and the file
//! reports the median and quartiles of the per-round ratio
//! `upper / lower`, so a drift in the host's speed cancels. A ratio below
//! 1 means the upper rung is faster at that size.
//!
//! - `karatsuba`: one Karatsuba level over schoolbook leaves against the
//!   schoolbook basecase — GMP's `MUL_TOOM22_THRESHOLD` measurement.
//! - `toom3`: one Toom-3 level over the `Auto` ladder below it against
//!   Karatsuba recursing to the committed Karatsuba threshold.
//!
//! `crossover_limbs` is the smallest swept size from which every larger
//! swept size has a median ratio below 1; `Thresholds::default()` cites
//! these rows, and the committed values sit beside them as
//! `committed_limbs`.
//!
//! ```text
//! cargo run --release -p apc-bench --bin bench_ablations
//! ```

use apc_bench::{fmt_seconds, header, sample_rounds, Report, BENCH_FLOOR_SECONDS};
use apc_bignum::nat::mul::{mul_dispatch, Thresholds};
use apc_bignum::{MulAlgorithm, Nat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// One crossover sweep: the rung below and the rung above at each size.
struct Section {
    name: &'static str,
    lower: &'static str,
    upper: &'static str,
    limbs: &'static [usize],
    committed: usize,
    /// Thresholds that run `(lower, upper)` at the top level for `n` limbs.
    configs: fn(usize) -> (Thresholds, Thresholds),
}

fn main() {
    let th = Thresholds::default();
    let sections = [
        Section {
            name: "karatsuba",
            lower: "schoolbook",
            upper: "karatsuba",
            limbs: &[16, 20, 24, 28, 32, 36, 40, 44, 48, 56, 64],
            committed: th.karatsuba,
            configs: |n| {
                let school = Thresholds {
                    karatsuba: n + 1,
                    ..Thresholds::default()
                };
                let kara = Thresholds {
                    karatsuba: n,
                    ..Thresholds::default()
                };
                (school, kara)
            },
        },
        Section {
            name: "toom3",
            lower: "karatsuba",
            upper: "toom3",
            // Up to the committed Toom-4 threshold, which bounds Toom-3's band.
            limbs: &[64, 96, 128, 192, 256, 320, 383],
            committed: th.toom3,
            configs: |n| {
                let kara = Thresholds {
                    toom3: n + 1,
                    toom4: n + 2,
                    ..Thresholds::default()
                };
                let toom = Thresholds {
                    toom3: n,
                    toom4: n + 1,
                    ..Thresholds::default()
                };
                (kara, toom)
            },
        },
    ];

    let mut rng = StdRng::seed_from_u64(27);
    let mut report = Report::new(
        "ablations",
        "apc_bignum::nat::mul::mul_dispatch(Auto), one rung forced per side, 1 host thread",
    );
    for s in &sections {
        header(&format!(
            "{} over {} (paired rounds; ratio = {} / {})",
            s.upper, s.lower, s.upper, s.lower
        ));
        println!(
            "{:>6} {:>12} {:>12} {:>8} {:>17}",
            "limbs", s.lower, s.upper, "ratio", "[q1, q3]"
        );
        let mut below_one = Vec::new();
        for &n in s.limbs {
            let a = Nat::random_exact_bits(n as u64 * 64, &mut rng);
            let b = Nat::random_exact_bits(n as u64 * 64, &mut rng);
            let (lower_th, upper_th) = (s.configs)(n);
            let reference = mul_dispatch(&a, &b, MulAlgorithm::Schoolbook, &lower_th);
            assert_eq!(
                mul_dispatch(&a, &b, MulAlgorithm::Auto, &lower_th),
                reference
            );
            assert_eq!(
                mul_dispatch(&a, &b, MulAlgorithm::Auto, &upper_th),
                reference
            );
            let mut lower = || {
                black_box(mul_dispatch(&a, &b, MulAlgorithm::Auto, &lower_th));
            };
            let mut upper = || {
                black_box(mul_dispatch(&a, &b, MulAlgorithm::Auto, &upper_th));
            };
            let rounds = sample_rounds(BENCH_FLOOR_SECONDS, &mut [&mut lower, &mut upper]);
            let ratio = rounds.ratio(1, 0);
            println!(
                "{n:>6} {:>12} {:>12} {:>8.3} [{:.3}, {:.3}]",
                fmt_seconds(rounds.sample(0).median),
                fmt_seconds(rounds.sample(1).median),
                ratio.median,
                ratio.q1,
                ratio.q3
            );
            let point = |alg: &str| {
                [
                    ("section", s.name.to_string()),
                    ("algorithm", alg.to_string()),
                    ("limbs", n.to_string()),
                ]
            };
            report.sample("seconds", &point(s.lower), &rounds.sample(0));
            report.sample("seconds", &point(s.upper), &rounds.sample(1));
            let at = [("section", s.name.to_string()), ("limbs", n.to_string())];
            report.sample("ratio", &at, &ratio);
            below_one.push((n, ratio.median < 1.0));
        }
        let crossover = below_one
            .iter()
            .rposition(|&(_, wins)| !wins)
            .map_or(Some(s.limbs[0]), |i| s.limbs.get(i + 1).copied());
        let section = [("section", s.name.to_string())];
        match crossover {
            Some(n) => {
                println!("crossover: {n} limbs (committed: {})", s.committed);
                report.gauge("crossover_limbs", &section, n as f64);
            }
            None => println!("crossover: beyond the sweep (committed: {})", s.committed),
        }
        report.gauge("committed_limbs", &section, s.committed as f64);
    }
    report.write();
}
