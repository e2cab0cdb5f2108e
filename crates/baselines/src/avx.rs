//! AVX512IFMA cost model — the state-of-the-art SIMD baseline (§VI-A,
//! \[29\]: Gueron & Krasnov's 52-bit packed multiplication with
//! VPMADD52LUQ/VPMADD52HUQ).
//!
//! Calibration anchors (Table III): 4096×4096 bits in 5.70×10⁻⁷ s
//! (35.6× slower than Cambricon-P), ~0.54 mm² of vector units, 13.26 W.

use crate::SystemProfile;

/// The AVX512IFMA system profile.
pub fn profile() -> SystemProfile {
    SystemProfile {
        name: "AVX512IFMA",
        technology: "Intel 10 nm",
        area_mm2: 0.54,
        power_w: 13.26,
        bandwidth_gbs: 128.0,
    }
}

/// Calibrated 4096-bit anchor.
const T_4096: f64 = 5.70e-7;

/// Largest operand the open-source IFMA implementation handles with its
/// register-resident kernels.
pub const MAX_BITS: u64 = 65_536;

/// Seconds per `bits × bits` multiplication. IFMA packs 52-bit limbs into
/// 512-bit vectors doing schoolbook with vectorized carry handling, so
/// cost grows quadratically; returns `None` beyond its applicable range
/// (its Figure 11 curve stops early, like CGBN's).
///
/// ```
/// use apc_baselines::avx::mul_seconds;
/// let t = mul_seconds(4096).unwrap();
/// assert!((t - 5.7e-7).abs() / 5.7e-7 < 0.05);
/// ```
pub fn mul_seconds(bits: u64) -> Option<f64> {
    if bits == 0 || bits > MAX_BITS {
        return None;
    }
    let scale = (bits as f64 / 4096.0).powi(2);
    Some(T_4096 * scale.max(0.02))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_scaling() {
        let a = mul_seconds(8192).unwrap();
        let b = mul_seconds(4096).unwrap();
        assert!((a / b - 4.0).abs() < 0.3);
    }

    #[test]
    fn range_limited() {
        assert!(mul_seconds(MAX_BITS).is_some());
        assert!(mul_seconds(MAX_BITS * 2).is_none());
        assert!(mul_seconds(0).is_none());
    }

    #[test]
    fn table3_relative_speed() {
        // 35.6× slower than the device's 1.6e-8 s.
        let rel = mul_seconds(4096).unwrap() / 1.6e-8;
        assert!((rel - 35.6).abs() / 35.6 < 0.05, "rel={rel}");
    }
}
