//! A Cambricon-P Processing Element: Converter + N_IPU bit-indexed IPUs +
//! Gather Unit (Fig. 9a, right).
//!
//! One PE pass computes the contribution of a single q-limb *pattern
//! block* of operand x to up to N_IPU consecutive convolution outputs: the
//! Converter turns the block into 2^q pattern flows (once — this is the
//! inter-IPU data reuse of §IV-A), every IPU indexes those patterns with
//! its own q-limb slice of operand y, and the GU folds the strided IPU
//! outputs with carry parallel computing.

use crate::bops::BopsTally;
use crate::converter::{generate_patterns, Patterns};
use crate::error::ModelError;
use crate::gu::{cycles_carry_parallel, gather_carry_parallel};
use crate::ipu::bit_indexed_inner_product;
use apc_bignum::Nat;

/// Result of one PE pass (Fig. 9a).
#[derive(Debug, Clone)]
pub struct PeResult {
    /// The gathered flow: Σₖ ipu_k · 2^(k·L).
    pub gathered: Nat,
    /// Raw per-IPU inner products (before gathering).
    pub per_ipu: Vec<Nat>,
    /// bops spent (Converter + all IPUs).
    pub tally: BopsTally,
    /// Cycles: one index-stream pass plus GU pipeline fill.
    pub cycles: u64,
}

/// Runs one PE pass (Fig. 9a).
///
/// * `x_block` — the q pattern limbs (each ≤ `limb_bits` wide).
/// * `ys_per_ipu` — one q-limb index tuple per active IPU; IPU `k`'s
///   output is accumulated at significance `k·limb_bits` by the GU.
///
/// ```
/// use apc_bignum::Nat;
/// use cambricon_p::pe::pe_pass;
///
/// // One IPU: (3,5)·(2,4) = 26; second IPU: (3,5)·(1,1) = 8.
/// let x = [Nat::from(3u64), Nat::from(5u64)];
/// let ys = vec![
///     vec![Nat::from(2u64), Nat::from(4u64)],
///     vec![Nat::from(1u64), Nat::from(1u64)],
/// ];
/// let r = pe_pass(&x, &ys, 8).expect("well-formed PE inputs");
/// assert_eq!(r.per_ipu[0].to_u64(), Some(26));
/// assert_eq!(r.per_ipu[1].to_u64(), Some(8));
/// assert_eq!(r.gathered.to_u64(), Some(26 + (8 << 8)));
/// ```
///
/// # Errors
///
/// Returns [`ModelError::ArityMismatch`] if an index tuple length differs
/// from the pattern block length, and forwards the
/// [`crate::converter::generate_patterns`] errors for blocks the
/// Converter cannot realize (q > 16 or oversized limbs).
pub fn pe_pass(
    x_block: &[Nat],
    ys_per_ipu: &[Vec<Nat>],
    limb_bits: u32,
) -> Result<PeResult, ModelError> {
    let patterns: Patterns = generate_patterns(x_block, u64::from(limb_bits))?;
    pe_pass_with_patterns(&patterns, x_block.len(), ys_per_ipu, limb_bits)
}

/// [`pe_pass`] over a precomputed pattern table (Fig. 9b).
///
/// The Converter's 2^q table depends on the x-block alone, so a caller
/// multiplying the same operand repeatedly (or the same block across many
/// output windows) can generate once and replay — the §IV-A inter-IPU
/// data reuse extended across passes. The modeled cost is unchanged: the
/// hardware Converter streams its reuse-tree additions on *every* pass,
/// so the pass tally still starts from the table's generation bops
/// exactly as [`pe_pass`] does, and results are bit-identical.
///
/// `q` is the pattern-block arity the table was generated for (the index
/// tuples must match it).
///
/// # Errors
///
/// Returns [`ModelError::ArityMismatch`] if an index tuple length differs
/// from `q`.
pub fn pe_pass_with_patterns(
    patterns: &Patterns,
    q: usize,
    ys_per_ipu: &[Vec<Nat>],
    limb_bits: u32,
) -> Result<PeResult, ModelError> {
    let mut tally = *patterns.tally();
    let mut per_ipu = Vec::with_capacity(ys_per_ipu.len());
    for ys in ys_per_ipu {
        if ys.len() != q {
            return Err(ModelError::ArityMismatch {
                expected: q,
                got: ys.len(),
            });
        }
        let out = bit_indexed_inner_product(patterns, ys, u64::from(limb_bits));
        tally.merge(&out.tally);
        per_ipu.push(out.value);
    }
    let gathered = gather_carry_parallel(&per_ipu, limb_bits);
    let output_bits = gathered.value.bit_len();
    Ok(PeResult {
        gathered: gathered.value,
        per_ipu,
        tally,
        cycles: u64::from(limb_bits) + cycles_carry_parallel(output_bits, limb_bits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limb(v: u64) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn single_ipu_is_plain_inner_product() {
        let x = [limb(7), limb(9), limb(2), limb(1)];
        let y = vec![vec![limb(3), limb(4), limb(5), limb(6)]];
        let r = pe_pass(&x, &y, 8).expect("valid inputs");
        assert_eq!(r.per_ipu[0].to_u64(), Some(7 * 3 + 9 * 4 + 2 * 5 + 6));
        assert_eq!(r.gathered, r.per_ipu[0]);
    }

    #[test]
    fn gather_places_ipus_at_stride_l() {
        let x = [limb(1), limb(0)];
        let ys: Vec<Vec<Nat>> = (0..4).map(|k| vec![limb(k + 1), limb(0)]).collect();
        let r = pe_pass(&x, &ys, 16).expect("valid inputs");
        // IPU k yields k+1; gathered = Σ (k+1)·2^(16k).
        let expect = 1u64 + (2 << 16) + (3 << 32) + (4 << 48);
        assert_eq!(r.gathered.to_u64(), Some(expect));
    }

    #[test]
    fn pattern_reuse_counts_converter_once() {
        let x = [limb(0xAB), limb(0xCD), limb(0x12), limb(0x34)];
        let one = vec![limb(1), limb(1), limb(1), limb(1)];
        let many: Vec<Vec<Nat>> = (0..8).map(|_| one.clone()).collect();
        let r8 = pe_pass(&x, &many, 8).expect("valid inputs");
        let r1 = pe_pass(&x, &many[..1], 8).expect("valid inputs");
        // Pattern generation cost identical regardless of IPU count.
        assert_eq!(r8.tally.pattern_generation, r1.tally.pattern_generation);
        assert!(r8.tally.weighted_gather > r1.tally.weighted_gather);
    }

    #[test]
    fn overlapping_strided_outputs_accumulate() {
        // Adjacent IPU outputs are 2L-bit values at stride L: overlaps add.
        let x = [limb(0xFF), limb(0xFF)];
        let y = vec![limb(0xFF), limb(0xFF)];
        let ys = vec![y.clone(), y];
        let r = pe_pass(&x, &ys, 8).expect("valid inputs");
        let ip = 0xFFu64 * 0xFF * 2; // each IPU: 130050
        assert_eq!(r.gathered.to_u64(), Some(ip + (ip << 8)));
    }

    #[test]
    fn replayed_pattern_tables_are_bit_identical_to_fresh_generation() {
        // A table generated once and replayed across passes must
        // reproduce the fresh pass exactly — value AND tally (the modeled
        // Converter streams on every pass). The structural multiply's
        // replayed sliced tables are checked in `tests/cache_gate.rs`.
        let x = [limb(0xAB), limb(0xCD), limb(0x12), limb(0x34)];
        let index_words: Vec<u64> = (0..32u64).map(|i| (i * 37 + 11) & 0xFF).collect();
        let ys: Vec<Vec<Nat>> = index_words
            .chunks(4)
            .map(|c| c.iter().map(|&v| limb(v)).collect())
            .collect();
        let patterns = generate_patterns(&x, 8).expect("valid block");
        let fresh = pe_pass(&x, &ys, 8).expect("valid inputs");
        for _ in 0..3 {
            let replay = pe_pass_with_patterns(&patterns, 4, &ys, 8).expect("valid inputs");
            assert_eq!(replay.gathered, fresh.gathered);
            assert_eq!(replay.tally, fresh.tally);
        }
    }

    #[test]
    fn arity_mismatch_is_reported_not_panicked() {
        let x = [limb(1), limb(2)];
        let ys = vec![vec![limb(3)]]; // tuple of 1 against a block of 2
        assert_eq!(
            pe_pass(&x, &ys, 8).err(),
            Some(crate::error::ModelError::ArityMismatch { expected: 2, got: 1 })
        );
    }
}
