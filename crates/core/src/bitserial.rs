//! Clocked bit-serial datapath models — the register-transfer-level view
//! of the architecture, one clock edge at a time.
//!
//! The functional models in [`crate::converter`]/[`crate::ipu`]/[`crate::gu`]
//! compute per-column with big-integer arithmetic; the structures here are
//! genuine sequential machines: 1-bit full adders with carry flip-flops,
//! delay lines, a bit-serial Converter tree, a fully bit-serial IPU
//! (diagonal compressor), and the chained-FA Gather Unit of Fig. 10. They
//! are the reproduction's stand-in for the paper's Verilog RTL, and every
//! one is validated against the oracle bit-for-bit.

use apc_bignum::Nat;
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Primitive sequential elements
// ---------------------------------------------------------------------------

/// A bit-serial adder (the FA element of Fig. 10): one full adder plus a
/// carry flip-flop. Streams are LSB first; one sum bit per clock.
///
/// ```
/// use cambricon_p::bitserial::SerialAdder;
/// let mut fa = SerialAdder::new();
/// // 3 + 1 = 4: bits LSB-first.
/// let a = [true, true, false];
/// let b = [true, false, false];
/// let sum: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| fa.step(x, y)).collect();
/// assert_eq!(sum, [false, false, true]);
/// assert!(!fa.carry());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SerialAdder {
    carry: bool,
}

impl SerialAdder {
    /// A new Fig. 10 adder with cleared carry.
    pub fn new() -> Self {
        SerialAdder::default()
    }

    /// One clock edge of the Fig. 10 FA: consumes one bit of each operand,
    /// emits one sum bit.
    #[inline]
    pub fn step(&mut self, a: bool, b: bool) -> bool {
        let sum = a ^ b ^ self.carry;
        self.carry = (a && b) || (self.carry && (a ^ b));
        sum
    }

    /// The Fig. 10 carry flip-flop's current state.
    pub fn carry(&self) -> bool {
        self.carry
    }

    /// Clears the carry between operations (Fig. 10 reset).
    pub fn reset(&mut self) {
        self.carry = false;
    }
}

/// A bit-serial subtractor (`a − b`): full subtractor plus borrow
/// flip-flop. This is the §V-C subtraction datapath: in hardware the
/// subtrahend's flow is inverted and an initial carry injected; the
/// explicit borrow form here is equivalent.
#[derive(Debug, Clone, Default)]
pub struct SerialSubtractor {
    borrow: bool,
}

impl SerialSubtractor {
    /// A new §V-C subtractor with cleared borrow.
    pub fn new() -> Self {
        SerialSubtractor::default()
    }

    /// One clock edge of the §V-C subtract datapath: consumes one bit of
    /// each operand, emits one difference bit.
    #[inline]
    pub fn step(&mut self, a: bool, b: bool) -> bool {
        let diff = a ^ b ^ self.borrow;
        self.borrow = (!a && b) || (!(a ^ b) && self.borrow);
        diff
    }

    /// Whether a §V-C borrow is pending (nonzero ⇒ the running difference
    /// went negative).
    pub fn borrow(&self) -> bool {
        self.borrow
    }
}

/// A fixed-depth delay line (shift register of bits) — the 2^L weighting
/// element of the Fig. 10 GU chain.
#[derive(Debug, Clone)]
pub struct DelayLine {
    fifo: VecDeque<bool>,
}

impl DelayLine {
    /// A delay of `depth` cycles (Fig. 10), initialized to zeros.
    pub fn new(depth: usize) -> Self {
        DelayLine {
            fifo: VecDeque::from(vec![false; depth]),
        }
    }

    /// Pushes one bit in, pops the bit from `depth` cycles ago (the
    /// Fig. 10 shift step).
    #[inline]
    pub fn step(&mut self, input: bool) -> bool {
        self.fifo.push_back(input);
        // The pop only sees an empty FIFO at depth 0, where passing the
        // input through is the exact zero-delay semantics.
        self.fifo.pop_front().unwrap_or(input)
    }

    /// Random access into the Fig. 10 line: `tap(0)` is the newest bit.
    pub fn tap(&self, age: usize) -> bool {
        let len = self.fifo.len();
        if age < len {
            self.fifo[len - 1 - age]
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Clocked Converter
// ---------------------------------------------------------------------------

/// The bit-serial Converter (Fig. 9b): q input bitflows in, 2^q pattern
/// bitflows out, built from a reuse tree of [`SerialAdder`]s (z₁₅ from
/// z₃ + z₁₂, etc.). Composite patterns carry one carry flip-flop each —
/// 2^q − q − 1 adders, exactly the paper's count.
#[derive(Debug, Clone)]
pub struct ClockedConverter {
    q: usize,
    adders: Vec<SerialAdder>, // indexed by pattern id; singletons unused
}

impl ClockedConverter {
    /// A Fig. 9b converter for `q ≤ 6` input flows.
    pub fn new(q: usize) -> Self {
        assert!((1..=6).contains(&q), "converter fan-in out of range");
        ClockedConverter {
            q,
            adders: vec![SerialAdder::new(); 1 << q],
        }
    }

    /// One clock edge of the Fig. 9b tree: consumes one bit of each input
    /// flow, emits one bit of every pattern flow (index = subset mask).
    ///
    /// Composite patterns are produced by adding a singleton flow into the
    /// prefix pattern's flow, one serial adder per composite — note the
    /// adders chain combinationally within a cycle (ripple through the
    /// reuse tree), which is how the real converter's modest logic depth
    /// stays off the critical path at L-bit rates.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.q);
        let mut out = vec![false; 1 << self.q];
        for mask in 1usize..(1 << self.q) {
            let low = crate::cast::usize_from(u64::from(mask.trailing_zeros()));
            let rest = mask & (mask - 1);
            out[mask] = if rest == 0 {
                inputs[low]
            } else {
                self.adders[mask].step(out[rest], inputs[low])
            };
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Clocked IPU — diagonal compressor
// ---------------------------------------------------------------------------

/// A fully bit-serial IPU (Fig. 9c): patterns and indexes both arrive as
/// bitflows, the partial-sum flow leaves at one bit per cycle.
///
/// Let P(t) be the pattern value selected by the index column of cycle t.
/// The partial sum is V = Σ_t P(t)·2^t, so its output bit at cycle m is
///
/// ```text
/// V[m] = carry + Σ_{a=0..min(m, W−1)} P(m−a)[a]
/// ```
///
/// — a diagonal over (selection time × pattern bit position). The machine
/// keeps the recorded pattern streams (the hardware equivalent is a W-deep
/// register file fed by the pattern flows, W = pattern width), the
/// selection history, and a small carry accumulator; every output bit is a
/// ≤(W+1)-input compressor firing once per cycle.
#[derive(Debug, Clone)]
pub struct ClockedIpu {
    q: usize,
    window: usize,
    /// Recorded pattern bit streams (flows[s][t] = bit of flow s at cycle t).
    flows: Vec<Vec<bool>>,
    /// sel(t): index column observed at cycle t.
    selections: Vec<usize>,
    carry: u64,
    cycle: usize,
}

impl ClockedIpu {
    /// A Fig. 9c IPU for `q` index flows whose pattern values fit in
    /// `pattern_bits` bits.
    pub fn new(q: usize, pattern_bits: usize) -> Self {
        assert!((1..=6).contains(&q));
        ClockedIpu {
            q,
            window: pattern_bits,
            flows: vec![Vec::new(); 1 << q],
            selections: Vec::new(),
            carry: 0,
            cycle: 0,
        }
    }

    /// One clock edge of the Fig. 9c datapath: consumes one bit of every
    /// pattern flow plus one bit of every index flow, emits one bit of the
    /// partial-sum flow.
    pub fn step(&mut self, pattern_bits: &[bool], index_bits: &[bool]) -> bool {
        assert_eq!(pattern_bits.len(), 1 << self.q);
        assert_eq!(index_bits.len(), self.q);
        for (flow, &b) in self.flows.iter_mut().zip(pattern_bits) {
            flow.push(b);
        }
        let mut sel = 0usize;
        for (i, &b) in index_bits.iter().enumerate() {
            if b {
                sel |= 1 << i;
            }
        }
        self.selections.push(sel);

        // Compress the diagonal: bit a of the pattern selected a cycles
        // before position m. (sel = 0 selects pattern z₀ ≡ 0 — the
        // bit-sparsity skip falls out naturally.)
        let m = self.cycle;
        let mut sum = self.carry;
        for a in 0..=m.min(self.window - 1) {
            let sel_then = self.selections[m - a];
            if sel_then != 0 && self.flows[sel_then][a] {
                sum += 1;
            }
        }
        self.cycle += 1;
        let out = sum & 1 == 1;
        self.carry = sum >> 1;
        out
    }

    /// Drains one output bit after the inputs have ended (feed zeros into
    /// the Fig. 9c pipeline).
    pub fn drain(&mut self) -> bool {
        self.step(&vec![false; 1 << self.q], &vec![false; self.q])
    }
}

// ---------------------------------------------------------------------------
// Clocked Gather Unit — FA chain of Fig. 10
// ---------------------------------------------------------------------------

/// The Fig. 10 Gather Unit: adjacent IPU flows are combined by serial full
/// adders, with the higher IPU's flow delayed by L cycles (= weighted by
/// 2^L). A chain over N flows yields Σᵢ flowᵢ·2^(i·L).
#[derive(Debug, Clone)]
pub struct ClockedGu {
    adders: Vec<SerialAdder>,
    delays: Vec<DelayLine>,
}

impl ClockedGu {
    /// A Fig. 10 GU combining `n_flows` IPU flows at stride `l` bits.
    pub fn new(n_flows: usize, l: usize) -> Self {
        assert!(n_flows >= 1);
        ClockedGu {
            adders: vec![SerialAdder::new(); n_flows.saturating_sub(1)],
            delays: (0..n_flows.saturating_sub(1))
                .map(|_| DelayLine::new(l))
                .collect(),
        }
    }

    /// One clock edge of the Fig. 10 chain: consumes one bit of each IPU
    /// flow, emits one bit of the gathered flow. Internally the chain runs
    /// MSB-side first so each stage's delay line weights its upper input
    /// by 2^L.
    pub fn step(&mut self, flow_bits: &[bool]) -> bool {
        let n = flow_bits.len();
        assert_eq!(n, self.adders.len() + 1);
        // Fold from the top: acc = flow[n-1]; acc = flow[i] + delay(acc).
        let mut acc = flow_bits[n - 1];
        for i in (0..n - 1).rev() {
            let delayed = self.delays[i].step(acc);
            acc = self.adders[i].step(flow_bits[i], delayed);
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// End-to-end clocked PE
// ---------------------------------------------------------------------------

/// Runs a whole clocked PE pass (Fig. 9a): converter + `ys.len()` IPUs +
/// GU, cycle by cycle, returning the gathered value reassembled from the
/// output bitflow. Validated against the functional [`crate::pe::pe_pass`].
///
/// `x_block` and every index tuple hold q limbs of at most `l` bits.
pub fn clocked_pe_pass(x_block: &[Nat], ys_per_ipu: &[Vec<Nat>], l: u32) -> Nat {
    let q = x_block.len();
    let n_ipu = ys_per_ipu.len();
    let l_cycles = crate::cast::usize_from(u64::from(l));
    let pattern_bits = l_cycles + q; // subset sums grow by log2(q) ≤ q bits
    let mut converter = ClockedConverter::new(q);
    let mut ipus: Vec<ClockedIpu> = (0..n_ipu)
        .map(|_| ClockedIpu::new(q, pattern_bits))
        .collect();
    let mut gu = ClockedGu::new(n_ipu, l_cycles);

    // Total cycles: stream l index bits, then drain every pipeline stage.
    let ipu_extra = 2 * pattern_bits + 8; // partial sums ≤ 2L + q bits + slack
    let gu_extra = n_ipu * l_cycles + 64;
    let total_cycles = l_cycles + ipu_extra + gu_extra;

    let mut out_bits: Vec<bool> = Vec::with_capacity(total_cycles);
    for cycle in 0..total_cycles {
        let x_bits: Vec<bool> = x_block.iter().map(|x| x.bit(cycle as u64)).collect();
        let patterns = converter.step(&x_bits);
        let mut flow_bits = Vec::with_capacity(n_ipu);
        for (ipu, ys) in ipus.iter_mut().zip(ys_per_ipu) {
            let idx_bits: Vec<bool> = ys.iter().map(|y| y.bit(cycle as u64)).collect();
            flow_bits.push(ipu.step(&patterns, &idx_bits));
        }
        out_bits.push(gu.step(&flow_bits));
    }
    bits_to_nat(&out_bits)
}

/// Reassembles an LSB-first (§V-B3 order) bit vector into a natural
/// number.
pub fn bits_to_nat(bits: &[bool]) -> Nat {
    let mut n = Nat::zero();
    for (i, &b) in bits.iter().enumerate() {
        if b {
            n = n.with_bit(i as u64, true);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::pe_pass;

    fn stream_value(v: u64, len: usize) -> Vec<bool> {
        (0..len).map(|i| (v >> i) & 1 == 1).collect()
    }

    #[test]
    fn serial_adder_adds() {
        let mut fa = SerialAdder::new();
        // 0xDEAD + 0xBEEF = 0x19D9C
        let a = stream_value(0xDEAD, 20);
        let b = stream_value(0xBEEF, 20);
        let mut out = 0u64;
        for i in 0..20 {
            if fa.step(a[i], b[i]) {
                out |= 1 << i;
            }
        }
        assert_eq!(out, 0x19D9C);
        assert!(!fa.carry());
    }

    #[test]
    fn serial_subtractor_subtracts() {
        let mut fs = SerialSubtractor::new();
        let a = stream_value(1000, 12);
        let b = stream_value(377, 12);
        let mut out = 0u64;
        for i in 0..12 {
            if fs.step(a[i], b[i]) {
                out |= 1 << i;
            }
        }
        assert_eq!(out, 623);
        assert!(!fs.borrow());
        // Underflow leaves a pending borrow.
        let mut fs = SerialSubtractor::new();
        for i in 0..4 {
            fs.step(stream_value(2, 4)[i], stream_value(5, 4)[i]);
        }
        assert!(fs.borrow());
    }

    #[test]
    fn delay_line_delays() {
        let mut d = DelayLine::new(3);
        let input = [true, false, true, true, false, false];
        let out: Vec<bool> = input.iter().map(|&b| d.step(b)).collect();
        assert_eq!(out, [false, false, false, true, false, true]);
    }

    #[test]
    fn clocked_converter_produces_subset_sums() {
        // Stream 4 limbs for enough cycles; reassemble every pattern flow.
        let xs = [0xABu64, 0x3C, 0x77, 0x01];
        let mut conv = ClockedConverter::new(4);
        let cycles = 12;
        let mut flows = [0u64; 16];
        for t in 0..cycles {
            let in_bits: Vec<bool> = xs.iter().map(|&x| (x >> t) & 1 == 1).collect();
            let out = conv.step(&in_bits);
            for (mask, &bit) in out.iter().enumerate() {
                if bit {
                    flows[mask] |= 1 << t;
                }
            }
        }
        for (mask, &flow) in flows.iter().enumerate() {
            let expect: u64 = (0..4).filter(|&i| mask & (1 << i) != 0).map(|i| xs[i]).sum();
            assert_eq!(flow, expect, "mask {mask:#b}");
        }
    }

    #[test]
    fn clocked_ipu_matches_oracle_single() {
        // One IPU: x⃗ = (3, 5), y⃗ = (2, 4) → 26, streamed bit by bit.
        let xs = [3u64, 5];
        let ys = [2u64, 4];
        let mut conv = ClockedConverter::new(2);
        let mut ipu = ClockedIpu::new(2, 8);
        let mut out = 0u64;
        for t in 0..24 {
            let x_bits: Vec<bool> = xs.iter().map(|&x| (x >> t) & 1 == 1).collect();
            let patterns = conv.step(&x_bits);
            let y_bits: Vec<bool> = ys.iter().map(|&y| (y >> t) & 1 == 1).collect();
            if ipu.step(&patterns, &y_bits) {
                out |= 1 << t;
            }
        }
        assert_eq!(out, 26);
    }

    #[test]
    fn clocked_ipu_matches_oracle_random() {
        let cases = [
            ([0xFFu64, 0x01, 0x80, 0x55], [0xAAu64, 0xFF, 0x01, 0x10]),
            ([0x13u64, 0x9C, 0x44, 0xE7], [0x71u64, 0x2B, 0xD8, 0x06]),
        ];
        for (xs, ys) in cases {
            let expect: u64 = xs.iter().zip(&ys).map(|(&x, &y)| x * y).sum();
            let mut conv = ClockedConverter::new(4);
            let mut ipu = ClockedIpu::new(4, 12);
            let mut out = 0u64;
            for t in 0..40 {
                let x_bits: Vec<bool> = xs.iter().map(|&x| (x >> t) & 1 == 1).collect();
                let patterns = conv.step(&x_bits);
                let y_bits: Vec<bool> = ys.iter().map(|&y| (y >> t) & 1 == 1).collect();
                if ipu.step(&patterns, &y_bits) {
                    out |= 1 << t;
                }
            }
            assert_eq!(out, expect, "xs={xs:?} ys={ys:?}");
        }
    }

    #[test]
    fn clocked_gu_weights_flows_by_stride() {
        // Flows carrying 5 and 9 at stride 4: gathered = 5 + 9·16 = 149.
        let mut gu = ClockedGu::new(2, 4);
        let mut out = 0u64;
        for t in 0..16 {
            let bits = [
                (5u64 >> t) & 1 == 1,
                (9u64 >> t) & 1 == 1,
            ];
            if gu.step(&bits) {
                out |= 1 << t;
            }
        }
        assert_eq!(out, 5 + 9 * 16);
    }

    #[test]
    fn clocked_pe_matches_functional_model() {
        let x_block: Vec<Nat> = [0xDEADu64, 0xBEEF, 0x1234, 0x00FF]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let ys: Vec<Vec<Nat>> = (0..4)
            .map(|k| {
                (0..4)
                    .map(|i| Nat::from((0x9E37u64 >> (k + i)) & 0xFFFF))
                    .collect()
            })
            .collect();
        let functional = pe_pass(&x_block, &ys, 16).expect("valid inputs");
        let clocked = clocked_pe_pass(&x_block, &ys, 16);
        assert_eq!(
            clocked, functional.gathered,
            "clocked RTL model must equal the functional model"
        );
    }

    #[test]
    fn clocked_pe_full_width_limbs() {
        // The paper's shape: q = 4 limbs of L = 32 bits, 8 IPUs.
        let x_block: Vec<Nat> = [0xFFFF_FFFFu64, 0x8000_0001, 0x1234_5678, 0xCAFE_F00D]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let ys: Vec<Vec<Nat>> = (0..8)
            .map(|k| {
                (0..4)
                    .map(|i| {
                        Nat::from(
                            0xDEAD_BEEF_u64
                                .rotate_left((k * 4 + i) as u32)
                                & 0xFFFF_FFFF,
                        )
                    })
                    .collect()
            })
            .collect();
        let functional = pe_pass(&x_block, &ys, 32).expect("valid inputs");
        let clocked = clocked_pe_pass(&x_block, &ys, 32);
        assert_eq!(clocked, functional.gathered);
    }
}
