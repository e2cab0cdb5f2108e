//! Cycle, energy and operation accounting for the device model (§VII-B).

use crate::bops::BopsTally;
use crate::config::ArchConfig;
use apc_trace::HistogramSnapshot;

/// Operation classes tracked by the runtime (matching the Fig. 2
/// breakdown categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Long multiplication (including squaring).
    Mul,
    /// Long addition / subtraction.
    AddSub,
    /// Bit shifts.
    Shift,
    /// Division.
    Div,
    /// Square root.
    Sqrt,
    /// Inner products / convolutions issued directly.
    InnerProduct,
    /// Everything else (host-side trivia).
    Other,
}

impl OpClass {
    /// All classes, for iteration in reports (Fig. 2 categories).
    pub const ALL: [OpClass; 7] = [
        OpClass::Mul,
        OpClass::AddSub,
        OpClass::Shift,
        OpClass::Div,
        OpClass::Sqrt,
        OpClass::InnerProduct,
        OpClass::Other,
    ];

    /// Stable display name (Fig. 2 labels).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Mul => "Multiply",
            OpClass::AddSub => "Add/Sub",
            OpClass::Shift => "Shift",
            OpClass::Div => "Division",
            OpClass::Sqrt => "Sqrt",
            OpClass::InnerProduct => "InnerProduct",
            OpClass::Other => "Other",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Mul => 0,
            OpClass::AddSub => 1,
            OpClass::Shift => 2,
            OpClass::Div => 3,
            OpClass::Sqrt => 4,
            OpClass::InnerProduct => 5,
            OpClass::Other => 6,
        }
    }
}

/// Busy cycles attributed to each pipeline stage (§VII utilization
/// analysis). These are *occupancy* counters for concurrent pipeline
/// stages — like hardware stage counters, they may individually approach
/// the total cycle count and their sum may exceed it; the interesting
/// signal is their ratio (which stage bounds the design, Fig. 13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Converter busy cycles (pattern generation, §IV-B).
    pub converter: u64,
    /// IPU busy cycles (table indexing, §IV-B).
    pub ipu: u64,
    /// Gather Unit busy cycles (§V-B).
    pub gu: u64,
    /// Adder Tree busy cycles (Fig. 9a AT).
    pub adder_tree: u64,
}

impl StageCycles {
    /// Adds another attribution into this one (§VII-B accounting).
    pub fn merge(&mut self, other: &StageCycles) {
        self.converter += other.converter;
        self.ipu += other.ipu;
        self.gu += other.gu;
        self.adder_tree += other.adder_tree;
    }

    /// Saturating per-stage difference `self − baseline` (§VII-B
    /// snapshot/delta accounting).
    pub fn delta_since(&self, baseline: &StageCycles) -> StageCycles {
        StageCycles {
            converter: self.converter.saturating_sub(baseline.converter),
            ipu: self.ipu.saturating_sub(baseline.ipu),
            gu: self.gu.saturating_sub(baseline.gu),
            adder_tree: self.adder_tree.saturating_sub(baseline.adder_tree),
        }
    }
}

/// Accumulated device statistics (§VII-B accounting).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Total device cycles.
    pub cycles: u64,
    /// Cycles per operation class.
    pub cycles_by_class: [u64; 7],
    /// Operation count per class.
    pub ops_by_class: [u64; 7],
    /// Bytes exchanged with the LLC.
    pub llc_bytes: u64,
    /// bops accounting from the functional units of structural runs
    /// (§VI-B metric; zero when only the analytic model ran).
    pub bops: BopsTally,
    /// Per-stage busy-cycle attribution from structural runs (§VII
    /// utilization analysis; zero when only the analytic model ran).
    pub stage_cycles: StageCycles,
    /// PE passes actually executed on the grid (zero blocks skipped).
    pub pe_passes: u64,
    /// PE-grid slots scheduled (pass groups × N_PE, §III).
    pub pe_slots: u64,
    /// Cycle-domain log2 histogram of per-operation attributed cycles
    /// (the core-side latency distribution — no wall clock here).
    pub op_cycles: HistogramSnapshot,
}

impl DeviceStats {
    /// Records an operation (§VII-B accounting).
    pub fn record(&mut self, class: OpClass, cycles: u64, llc_bytes: u64) {
        self.cycles += cycles;
        self.cycles_by_class[class.index()] += cycles;
        self.ops_by_class[class.index()] += 1;
        self.llc_bytes += llc_bytes;
        // Observability extra (gated inside `record` on the apc-trace
        // switch): never affects the counters above.
        self.op_cycles.record(cycles);
    }

    /// Folds a structural run's per-stage attribution and PE-grid
    /// occupancy into the totals (§VII utilization analysis).
    pub fn record_stages(&mut self, stages: &StageCycles, pe_passes: u64, pe_slots: u64) {
        self.stage_cycles.merge(stages);
        self.pe_passes += pe_passes;
        self.pe_slots += pe_slots;
    }

    /// PE-grid utilization: executed passes over scheduled slots (§VII
    /// utilization analysis; 0 when nothing structural ran). Below 1.0
    /// means zero blocks were skipped or the last pass group was ragged.
    pub fn pe_utilization(&self) -> f64 {
        if self.pe_slots == 0 {
            0.0
        } else {
            self.pe_passes as f64 / self.pe_slots as f64
        }
    }

    /// Cycles attributed to one class (Fig. 2 breakdown).
    pub fn cycles_for(&self, class: OpClass) -> u64 {
        self.cycles_by_class[class.index()]
    }

    /// Operation count for one class (Fig. 2 breakdown).
    pub fn ops_for(&self, class: OpClass) -> u64 {
        self.ops_by_class[class.index()]
    }

    /// Wall-clock seconds at the configured clock (§VII-A).
    pub fn seconds(&self, config: &ArchConfig) -> f64 {
        self.cycles as f64 * config.cycle_seconds()
    }

    /// Energy in joules: busy time at device power, plus LLC traffic at a
    /// fixed per-byte cost (the paper includes LLC energy in the device
    /// figure, §VI-A).
    pub fn energy_joules(&self, config: &ArchConfig) -> f64 {
        const LLC_PJ_PER_BYTE: f64 = 15.0; // typical 16 nm LLC access cost
        self.seconds(config) * config.power_w + self.llc_bytes as f64 * LLC_PJ_PER_BYTE * 1e-12
    }

    /// The counter increments accumulated since `baseline` was taken
    /// (§VII-B accounting): every field is the saturating difference
    /// `self − baseline`. This is the delta half of the cheap
    /// snapshot/delta attribution API — take a [`crate::mpapca::Device::stats`]
    /// snapshot before a batch of operations and another after, and the delta is
    /// the batch's exact service cost (the counters are monotone, so on a
    /// single-owner handle the difference cannot go negative).
    pub fn delta_since(&self, baseline: &DeviceStats) -> DeviceStats {
        let mut d = DeviceStats {
            cycles: self.cycles.saturating_sub(baseline.cycles),
            llc_bytes: self.llc_bytes.saturating_sub(baseline.llc_bytes),
            ..DeviceStats::default()
        };
        for i in 0..7 {
            d.cycles_by_class[i] =
                self.cycles_by_class[i].saturating_sub(baseline.cycles_by_class[i]);
            d.ops_by_class[i] = self.ops_by_class[i].saturating_sub(baseline.ops_by_class[i]);
        }
        d.bops = BopsTally {
            pattern_generation: self
                .bops
                .pattern_generation
                .saturating_sub(baseline.bops.pattern_generation),
            weighted_gather: self
                .bops
                .weighted_gather
                .saturating_sub(baseline.bops.weighted_gather),
            bit_serial_reference: self
                .bops
                .bit_serial_reference
                .saturating_sub(baseline.bops.bit_serial_reference),
            skipped_zero: self.bops.skipped_zero.saturating_sub(baseline.bops.skipped_zero),
        };
        d.stage_cycles = self.stage_cycles.delta_since(&baseline.stage_cycles);
        d.pe_passes = self.pe_passes.saturating_sub(baseline.pe_passes);
        d.pe_slots = self.pe_slots.saturating_sub(baseline.pe_slots);
        d.op_cycles = self.op_cycles.delta_since(&baseline.op_cycles);
        d
    }

    /// Merges another stats block into this one (§VII-B accounting).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.cycles += other.cycles;
        for i in 0..7 {
            self.cycles_by_class[i] += other.cycles_by_class[i];
            self.ops_by_class[i] += other.ops_by_class[i];
        }
        self.llc_bytes += other.llc_bytes;
        self.bops.merge(&other.bops);
        self.stage_cycles.merge(&other.stage_cycles);
        self.pe_passes += other.pe_passes;
        self.pe_slots += other.pe_slots;
        self.op_cycles.merge(&other.op_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = DeviceStats::default();
        s.record(OpClass::Mul, 100, 64);
        s.record(OpClass::Mul, 50, 0);
        s.record(OpClass::AddSub, 10, 8);
        assert_eq!(s.cycles, 160);
        assert_eq!(s.cycles_for(OpClass::Mul), 150);
        assert_eq!(s.ops_for(OpClass::Mul), 2);
        assert_eq!(s.ops_for(OpClass::AddSub), 1);
        assert_eq!(s.llc_bytes, 72);
    }

    #[test]
    fn time_and_energy_at_paper_clock() {
        let cfg = ArchConfig::default();
        let mut s = DeviceStats::default();
        s.record(OpClass::Mul, 2_000_000_000, 0); // 1 second at 2 GHz
        assert!((s.seconds(&cfg) - 1.0).abs() < 1e-12);
        // 1 s × 3.644 W = 3.644 J
        assert!((s.energy_joules(&cfg) - 3.644).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = DeviceStats::default();
        a.record(OpClass::Div, 5, 1);
        let mut b = DeviceStats::default();
        b.record(OpClass::Div, 7, 2);
        b.record(OpClass::Shift, 1, 0);
        a.merge(&b);
        assert_eq!(a.cycles, 13);
        assert_eq!(a.cycles_for(OpClass::Div), 12);
        assert_eq!(a.ops_for(OpClass::Shift), 1);
        assert_eq!(a.llc_bytes, 3);
    }

    #[test]
    fn delta_since_isolates_a_batch() {
        let mut stats = DeviceStats::default();
        stats.record(OpClass::Mul, 100, 64);
        let before = stats.clone();
        stats.record(OpClass::Mul, 40, 8);
        stats.record(OpClass::Div, 7, 2);
        let delta = stats.delta_since(&before);
        assert_eq!(delta.cycles, 47);
        assert_eq!(delta.cycles_for(OpClass::Mul), 40);
        assert_eq!(delta.ops_for(OpClass::Mul), 1);
        assert_eq!(delta.ops_for(OpClass::Div), 1);
        assert_eq!(delta.llc_bytes, 10);
        // The baseline itself is untouched.
        assert_eq!(before.cycles, 100);
    }

    #[test]
    fn delta_since_of_identical_snapshots_is_zero() {
        let mut s = DeviceStats::default();
        s.record(OpClass::Sqrt, 9, 1);
        let delta = s.delta_since(&s);
        assert_eq!(delta, DeviceStats::default());
    }

    #[test]
    fn class_names_are_stable() {
        for c in OpClass::ALL {
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn stage_attribution_merges_and_deltas() {
        let mut now = DeviceStats::default();
        now.record_stages(
            &StageCycles { converter: 10, ipu: 10, gu: 10, adder_tree: 4 },
            5,
            8,
        );
        let before = now.clone();
        now.record_stages(
            &StageCycles { converter: 6, ipu: 6, gu: 6, adder_tree: 2 },
            3,
            4,
        );
        assert_eq!(now.stage_cycles.converter, 16);
        assert_eq!(now.stage_cycles.adder_tree, 6);
        assert_eq!(now.pe_passes, 8);
        assert_eq!(now.pe_slots, 12);
        assert!((now.pe_utilization() - 8.0 / 12.0).abs() < 1e-12);
        let delta = now.delta_since(&before);
        assert_eq!(delta.stage_cycles.ipu, 6);
        assert_eq!(delta.pe_passes, 3);
        assert_eq!(delta.pe_slots, 4);
        // Merge folds the same fields forward.
        let mut merged = before.clone();
        merged.merge(&delta);
        assert_eq!(merged.stage_cycles, now.stage_cycles);
        assert_eq!(merged.pe_passes, now.pe_passes);
    }

    #[test]
    fn op_cycle_histogram_tracks_recorded_operations() {
        let mut now = DeviceStats::default();
        now.record(OpClass::Mul, 100, 0);
        let before = now.clone();
        now.record(OpClass::Mul, 40, 0);
        now.record(OpClass::Div, 7, 0);
        assert_eq!(now.op_cycles.count, 3);
        assert_eq!(now.op_cycles.sum, 147);
        let delta = now.delta_since(&before);
        assert_eq!(delta.op_cycles.count, 2);
        assert_eq!(delta.op_cycles.sum, 47);
    }

    #[test]
    fn utilization_of_an_idle_device_is_zero() {
        assert_eq!(DeviceStats::default().pe_utilization(), 0.0);
    }
}
