//! Figure 11: time costs of N-bit × N-bit multiplication on Cambricon-P
//! and the baseline systems, N = 64 … 64,000,000 bits.
//!
//! Columns:
//! - `host-sw`   — measured wall time of this repo's software substrate
//!   (`apc-bignum`) on the build machine (independent shape check);
//! - `xeon-gmp`  — the calibrated Xeon 6134 + GMP model;
//! - `cambricon` — the MPApca device cycle model at 2 GHz;
//! - `v100-cgbn` — amortized batch model (within CGBN's size range);
//! - `avx-ifma`  — the AVX512IFMA model (within its range);
//! - `speedup`   — xeon-gmp / cambricon, the paper's headline ratio.
//!
//! Run with `--full` to extend measured host multiplications to the top
//! size (slow); by default the host column stops at 4M bits.

use apc_bench::{fmt_seconds, header, sample};
use apc_bignum::Nat;
use cambricon_p::mpapca::{Device, MpapcaAlgorithm};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let device = Device::new_default();

    header("Figure 11 — N-bit multiplication time across systems");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "bits", "mpapca-alg", "host-sw", "xeon-gmp", "cambricon", "v100-cgbn", "avx-ifma", "speedup"
    );

    let host_limit = if full { u64::MAX } else { 4_000_000 };
    let mut sizes: Vec<u64> = std::iter::successors(Some(64u64), |b| Some(b * 2))
        .take_while(|&b| b < 64_000_000)
        .collect();
    sizes.push(64_000_000);
    let mut region_stats: Vec<(MpapcaAlgorithm, f64)> = Vec::new();
    for bits in sizes {
        let cpu = apc_baselines::cpu::mul_seconds(bits);
        let dev_cycles = device.mul_cycles(bits, bits);
        let dev = dev_cycles as f64 * device.config().cycle_seconds();
        let alg = device.thresholds().select(bits);
        let speedup = cpu / dev;
        region_stats.push((alg, speedup));

        let host = if bits <= host_limit {
            let a = Nat::random_exact_bits(bits, &mut rand::thread_rng());
            let b = Nat::random_exact_bits(bits, &mut rand::thread_rng());
            fmt_seconds(sample(0.1, || &a * &b).median)
        } else {
            "-".into()
        };
        let gpu = apc_baselines::gpu::amortized_mul_seconds(bits, 100_000)
            .map(fmt_seconds)
            .unwrap_or_else(|| "-".into());
        let avx = apc_baselines::avx::mul_seconds(bits)
            .map(fmt_seconds)
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8.1}x",
            bits,
            format!("{alg:?}"),
            host,
            fmt_seconds(cpu),
            fmt_seconds(dev),
            gpu,
            avx,
            speedup
        );
    }

    header("Region summary vs paper");
    for (label, filter, paper) in [
        (
            "monolithic (schoolbook..Toom-6H range of GMP)",
            MpapcaAlgorithm::Monolithic,
            "up to 100.98x",
        ),
        ("Toom-2", MpapcaAlgorithm::Toom2, "18.06x ~ 67.78x"),
        ("Toom-3", MpapcaAlgorithm::Toom3, "18.06x ~ 67.78x"),
        ("Toom-4", MpapcaAlgorithm::Toom4, "18.06x ~ 67.78x"),
        ("Toom-6", MpapcaAlgorithm::Toom6, "18.06x ~ 67.78x"),
        ("SSA", MpapcaAlgorithm::Ssa, "3.87x ~ 14.89x"),
    ] {
        let s: Vec<f64> = region_stats
            .iter()
            .filter(|(a, _)| *a == filter)
            .map(|(_, sp)| *sp)
            .collect();
        if s.is_empty() {
            continue;
        }
        let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = s.iter().cloned().fold(0.0f64, f64::max);
        println!("{label:<48} measured {min:6.1}x ~ {max:6.1}x   (paper: {paper})");
    }
}
