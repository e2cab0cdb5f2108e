//! Prior accelerators re-implemented for the iso-throughput comparison of
//! Table III: DS/P (digit-serial/parallel multipliers, Karlsson &
//! Vesterbacka) and Bit-Tactical (Lascorz et al.).
//!
//! The paper re-implemented both "with the same technology and the same
//! theoretical throughput" as Cambricon-P and compared area and power; we
//! carry exactly those reported figures.

use crate::SystemProfile;

/// DS/P at iso-throughput with Cambricon-P (Table III).
pub fn dsp_profile() -> SystemProfile {
    SystemProfile {
        name: "DS/P",
        technology: "TSMC 16 nm",
        area_mm2: 5.80,
        power_w: 9.20,
        bandwidth_gbs: 512.0,
    }
}

/// Bit-Tactical at iso-throughput with Cambricon-P (Table III).
pub fn bit_tactical_profile() -> SystemProfile {
    SystemProfile {
        name: "Bit-Tactical",
        technology: "TSMC 16 nm",
        area_mm2: 7.12,
        power_w: 18.29,
        bandwidth_gbs: 512.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_throughput_relative_costs() {
        let dsp = dsp_profile();
        let bt = bit_tactical_profile();
        // Table III: DS/P 3.06× area, 2.53× power; Bit-Tactical 3.76× /
        // 5.02× vs Cambricon-P (1.89 mm², 3.64 W).
        assert!((dsp.area_mm2 / 1.89 - 3.06).abs() < 0.05);
        assert!((dsp.power_w / 3.64 - 2.53).abs() < 0.03);
        assert!((bt.area_mm2 / 1.89 - 3.76).abs() < 0.05);
        assert!((bt.power_w / 3.64 - 5.02).abs() < 0.03);
    }
}
