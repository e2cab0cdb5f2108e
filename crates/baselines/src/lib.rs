//! # apc-baselines — calibrated cost models of the comparison systems
//!
//! Analytic models of every system Cambricon-P is compared against in the
//! paper's evaluation:
//!
//! - [`cpu`] — Intel Xeon 6134 running GNU GMP (the primary baseline);
//! - [`gpu`] — NVIDIA V100 running CGBN (batch-only multiplication);
//! - [`avx`] — the AVX512IFMA implementation from Intel Haifa labs;
//! - [`accel`] — the DS/P and Bit-Tactical accelerators (iso-throughput
//!   area/power comparison of Table III);
//! - [`alu`] — the monolithic wide-multiplier scaling model of §III (the
//!   motivation for going bit-serial in the first place).
//!
//! Every constant is anchored to a number printed in the paper (Table III,
//! §III, §VI-A, §VII) and documented at its definition. These models give
//! the reproduction the paper's absolute scale; the *measured* software
//! baseline (running `apc-bignum` on the host) provides an independent
//! sanity check of the shapes.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod accel;
pub mod alu;
pub mod avx;
pub mod cpu;
pub mod gpu;

/// Common interface: a comparison system with area, power and a
/// multiplication latency model.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemProfile {
    /// Display name.
    pub name: &'static str,
    /// Process technology label.
    pub technology: &'static str,
    /// Die area in mm² (estimated from die photos where the paper did).
    pub area_mm2: f64,
    /// Power in watts.
    pub power_w: f64,
    /// Memory bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_relative_area_and_power() {
        // Table III relative factors against Cambricon-P (1.89 mm²,
        // 3.64 W).
        let cam_area = 1.89;
        let cam_power = 3.64;
        let gpu = gpu::profile();
        assert!((gpu.area_mm2 / cam_area - 430.0).abs() / 430.0 < 0.01);
        assert!((gpu.power_w / cam_power - 60.5).abs() / 60.5 < 0.01);
        let cpu = cpu::profile();
        assert!((cpu.area_mm2 / cam_area - 9.49).abs() / 9.49 < 0.02);
        assert!((cpu.power_w / cam_power - 2.04).abs() / 2.04 < 0.02);
        let avx = avx::profile();
        assert!((avx.power_w / cam_power - 3.64).abs() / 3.64 < 0.02);
        let dsp = accel::dsp_profile();
        assert!((dsp.area_mm2 / cam_area - 3.06).abs() / 3.06 < 0.02);
        let bt = accel::bit_tactical_profile();
        assert!((bt.power_w / cam_power - 5.02).abs() / 5.02 < 0.02);
    }
}
