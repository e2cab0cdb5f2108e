//! Table III: comparison of Cambricon-P and the baseline systems over a
//! 4096×4096-bit multiplication — time, area, power, bandwidth, and the
//! relative factors.

use apc_bench::{fmt_seconds, header, sample};
use apc_bignum::Nat;
use cambricon_p::mpapca::Device;
use cambricon_p::ArchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = ArchConfig::default();
    let device = Device::new_default();

    header("Table III — 4096x4096-bit multiplication across systems");

    let cam_time = device.mul_cycles(4096, 4096) as f64 * cfg.cycle_seconds();
    let cpu = apc_baselines::cpu::profile();
    let cpu_time = apc_baselines::cpu::mul_seconds(4096);
    let gpu = apc_baselines::gpu::profile();
    let gpu_time = apc_baselines::gpu::amortized_mul_seconds(4096, 100_000).unwrap();
    let avx = apc_baselines::avx::profile();
    let avx_time = apc_baselines::avx::mul_seconds(4096).unwrap();
    let dsp = apc_baselines::accel::dsp_profile();
    let bt = apc_baselines::accel::bit_tactical_profile();

    println!(
        "{:<22} {:>12} {:>11} {:>9} {:>12} {:>9} {:>10}",
        "system", "technology", "area (mm2)", "rel.", "time", "rel.", "BW (GB/s)"
    );
    let rows = [
        (
            "Cambricon-P",
            "TSMC 16 nm",
            cfg.area_mm2,
            cam_time,
            cfg.llc_bandwidth_gbs,
        ),
        ("Xeon (GMP)", cpu.technology, cpu.area_mm2, cpu_time, cpu.bandwidth_gbs),
        ("V100 (CGBN)*", gpu.technology, gpu.area_mm2, gpu_time, gpu.bandwidth_gbs),
        ("AVX512IFMA", avx.technology, avx.area_mm2, avx_time, avx.bandwidth_gbs),
        ("DS/P (iso-thru)", dsp.technology, dsp.area_mm2, cam_time, dsp.bandwidth_gbs),
        ("Bit-Tactical (iso)", bt.technology, bt.area_mm2, cam_time, bt.bandwidth_gbs),
    ];
    for (name, tech, area, time, bw) in rows {
        println!(
            "{name:<22} {tech:>12} {area:>11.2} {:>8.2}x {:>12} {:>8.2}x {bw:>10.0}",
            area / cfg.area_mm2,
            fmt_seconds(time),
            time / cam_time,
        );
    }

    println!();
    println!(
        "{:<22} {:>9} {:>8}",
        "system", "power (W)", "rel."
    );
    for (name, power) in [
        ("Cambricon-P", cfg.power_w),
        ("Xeon (GMP)", cpu.power_w),
        ("V100 (CGBN)", gpu.power_w),
        ("AVX512IFMA", avx.power_w),
        ("DS/P", dsp.power_w),
        ("Bit-Tactical", bt.power_w),
    ] {
        println!("{name:<22} {power:>9.2} {:>7.2}x", power / cfg.power_w);
    }
    println!();
    println!("* amortized over a batch of 100,000 (CGBN is batch-only).");
    println!(
        "Paper headlines: 430x area / 60.5x power vs V100 at the same throughput;"
    );
    println!("35.6x faster than AVX512IFMA; 3.06x/2.53x area/power vs DS/P.");

    header("Measured cross-check (this machine's software substrate)");
    let mut rng = StdRng::seed_from_u64(3);
    let a = Nat::random_exact_bits(4096, &mut rng);
    let b = Nat::random_exact_bits(4096, &mut rng);
    let host = sample(0.5, || &a * &b).median;
    println!(
        "host 4096-bit multiply: {} → {:.0}x over modeled Cambricon-P time",
        fmt_seconds(host),
        host / cam_time
    );
}
