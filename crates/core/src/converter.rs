//! The Converter — the *patterns generation* stage of BIPS (Fig. 8, Fig. 9b).
//!
//! One input vector x⃗ of q limbs streams in as q bitflows; the Converter
//! produces 2^q bitflows, one per subset sum of x⃗'s elements (all possible
//! values of x⃗·K for the fixed pattern matrix K). Repeated additions are
//! saved by reusing previous results — e.g. z₁₅ is computed from
//! z₃ = x₀+x₁ and z₁₂ = x₂+x₃ — so only 2^q − q − 1 adders are live.

use crate::bops::BopsTally;
use crate::error::ModelError;
use apc_bignum::limb::{bit_len, Limb};
use apc_bignum::Nat;

/// Result of one Converter pass (Fig. 9b): the 2^q patterns and the bops
/// spent.
#[derive(Debug, Clone)]
pub struct Patterns {
    /// patterns[s] = Σ_{i ∈ s} x_i, for every subset bitmask s.
    values: Vec<Nat>,
    /// Width of each input element in bits.
    element_bits: u64,
    tally: BopsTally,
}

impl Patterns {
    /// The pattern value for subset mask `s` — the z_s flow of Fig. 8.
    pub fn get(&self, s: usize) -> &Nat {
        &self.values[s]
    }

    /// All 2^q patterns of Fig. 8, indexed by subset mask.
    pub fn as_slice(&self) -> &[Nat] {
        &self.values
    }

    /// Number of patterns (2^q, Fig. 8).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no patterns (never true after a Fig. 8
    /// generation pass).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Width of the input elements (p_x in the Fig. 8 dataflow).
    pub fn element_bits(&self) -> u64 {
        self.element_bits
    }

    /// bops (§VI-B metric) spent generating these patterns.
    pub fn tally(&self) -> &BopsTally {
        &self.tally
    }
}

/// Generates all 2^q subset-sum patterns of `xs` — the Converter pass of
/// Fig. 9b.
///
/// Reuses sub-sums exactly like the hardware: pattern for mask `s` is
/// computed as `pattern[s without lowest bit] + x[lowest bit]`, a single
/// addition.
///
/// ```
/// use apc_bignum::Nat;
/// use cambricon_p::converter::generate_patterns;
///
/// let xs = [Nat::from(5u64), Nat::from(11u64)];
/// let p = generate_patterns(&xs, 4).expect("2 elements of <= 4 bits");
/// assert_eq!(p.get(0b00).to_u64(), Some(0));
/// assert_eq!(p.get(0b01).to_u64(), Some(5));
/// assert_eq!(p.get(0b10).to_u64(), Some(11));
/// assert_eq!(p.get(0b11).to_u64(), Some(16));
/// ```
///
/// # Errors
///
/// Returns [`ModelError::PatternTableTooLarge`] if `xs` has more than 16
/// elements (2^q patterns must stay addressable) and
/// [`ModelError::OversizedElement`] if any element exceeds `element_bits`
/// bits.
pub fn generate_patterns(xs: &[Nat], element_bits: u64) -> Result<Patterns, ModelError> {
    let q = xs.len();
    if q > 16 {
        return Err(ModelError::PatternTableTooLarge { q });
    }
    for (i, x) in xs.iter().enumerate() {
        if x.bit_len() > element_bits {
            return Err(ModelError::OversizedElement {
                index: i,
                bits: x.bit_len(),
                element_bits,
            });
        }
    }
    let mut values = Vec::with_capacity(1 << q);
    values.push(Nat::zero());
    let mut tally = BopsTally::default();
    for s in 1usize..(1 << q) {
        let low = crate::cast::usize_from(u64::from(s.trailing_zeros()));
        let rest = s & (s - 1);
        if rest == 0 {
            // Singleton: the input itself, no addition.
            values.push(xs[low].clone());
        } else {
            let v = &values[rest] + &xs[low];
            // One addition of element-width operands (the accumulating side
            // may have grown by log2(q) bits; count the wider width).
            tally.pattern_generation += values[rest].bit_len().max(element_bits);
            values.push(v);
        }
    }
    let patterns = Patterns {
        values,
        element_bits,
        tally,
    };
    crate::invariants::check_patterns(&patterns, xs);
    Ok(patterns)
}

/// Number of adders a q-input Converter instantiates (2^q − q − 1), per
/// the §V-B2 benefit analysis.
pub fn converter_adder_count(q: u32) -> u64 {
    (1u64 << q) - u64::from(q) - 1
}

/// The 2^q subset-sum patterns of Fig. 8 as raw machine words, written
/// into `values` (2^q words), returning the `pattern_generation` bops —
/// the bitsliced Converter.
///
/// Where the scalar [`generate_patterns`] streams each addition bit by
/// bit, this pass performs each addition as **one** word op. Sums and bops
/// are bit-identical to the scalar pass, whose Fig. 9b reuse tree adds
/// `x[lowest bit of s]` to `pattern[r]`, r = s without that bit, at the
/// cost `max(bit_len(pattern[r]), element_bits)`. Pattern r is that side
/// for the tz(r) composites `r + 2^j`, j < tz(r), so the bops are `Σ_r
/// tz(r)·max(bit_len(pattern[r]), element_bits)`, and the words are summed
/// in doubling order, `pattern[2^i + m] = pattern[m] + x_i`.
///
/// The caller guarantees the sliced-support envelope (`q ≤ 16` and
/// `element_bits + ⌈log₂ q⌉ ≤ 64`, see
/// [`crate::accelerator::Accelerator::effective_backend`]), under which no
/// subset sum can carry out of one limb.
pub fn generate_patterns_sliced(xs: &[Limb], element_bits: u64, values: &mut [Limb]) -> u64 {
    let q = xs.len();
    debug_assert!(q <= 16, "sliced pattern table addressability");
    debug_assert_eq!(values.len(), 1 << q, "one word per subset");
    sum_subsets(xs, values);
    let cost = |(r, &v): (usize, &Limb)| generation_cost(r, bit_len(v), element_bits);
    values.iter().enumerate().skip(1).map(cost).sum()
}

/// `values[s] = Σ_{i ∈ s} xs[i]` for every subset s, summed in doubling
/// order, `values[2^i + m] = values[m] + xs[i]`: one word add per
/// composite subset, as in [`generate_patterns_sliced`].
#[inline]
pub(crate) fn sum_subsets(xs: &[Limb], values: &mut [Limb]) {
    values[0] = 0;
    for (i, &x) in xs.iter().enumerate() {
        let (lower, upper) = values.split_at_mut(1 << i);
        for (v, &rest) in upper.iter_mut().zip(lower.iter()) {
            *v = rest + x;
        }
    }
}

/// The bops pattern r ≥ 1 of `bits` bits costs the reuse tree as the
/// accumulating side of its tz(r) composites: `tz(r)·max(bits,
/// element_bits)` (see [`generate_patterns_sliced`]).
#[inline]
pub(crate) fn generation_cost(r: usize, bits: u32, element_bits: u64) -> u64 {
    u64::from(r.trailing_zeros()) * u64::from(bits).max(element_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nats(vals: &[u64]) -> Vec<Nat> {
        vals.iter().map(|&v| Nat::from(v)).collect()
    }

    #[test]
    fn four_element_patterns_cover_all_subsets() {
        let xs = nats(&[1, 2, 4, 8]);
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        // With powers of two, pattern[s] == s.
        for s in 0..16usize {
            assert_eq!(p.get(s).to_u64(), Some(s as u64), "mask {s:#b}");
        }
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn pattern_reuse_matches_paper_example() {
        // Figure 9(b): z15 built from z3 = x0+x1 and z12 = x2+x3 — i.e.
        // every composite pattern costs exactly one addition.
        let xs = nats(&[3, 5, 7, 9]);
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        assert_eq!(p.get(0b1111).to_u64(), Some(24));
        assert_eq!(p.get(0b0011).to_u64(), Some(8));
        assert_eq!(p.get(0b1100).to_u64(), Some(16));
        // 2^4 − 4 − 1 = 11 additions, each counted at ≥ element width.
        assert!(p.tally().pattern_generation >= 11 * 4); // elements are 4 bits
    }

    #[test]
    fn adder_count_formula() {
        assert_eq!(converter_adder_count(2), 1);
        assert_eq!(converter_adder_count(4), 11);
        assert_eq!(converter_adder_count(6), 57);
    }

    #[test]
    fn wide_elements_supported() {
        // Arbitrary p_x: the Converter is bit-serial, so element width is
        // unbounded (this is what lets Cambricon-P reuse patterns across a
        // whole monolithic operand).
        let xs = vec![
            Nat::power_of_two(1000),
            Nat::power_of_two(999),
            Nat::from(1u64),
            Nat::zero(),
        ];
        let p = generate_patterns(&xs, 1001).expect("valid inputs");
        assert_eq!(
            p.get(0b0111),
            &(&(&Nat::power_of_two(1000) + &Nat::power_of_two(999)) + &Nat::one())
        );
    }

    #[test]
    fn sliced_patterns_match_scalar_values_and_tally() {
        let words = [0xDEAD_BEEFu64, 0x0000_0001, 0xFFFF_FFFF, 0x8000_0000];
        let xs = nats(&words);
        let scalar = generate_patterns(&xs, 32).expect("valid inputs");
        let mut sliced = [0; 16];
        let generation_bops = generate_patterns_sliced(&words, 32, &mut sliced);
        assert_eq!(sliced.len(), scalar.len());
        for (s, v) in sliced.iter().enumerate() {
            assert_eq!(scalar.get(s).to_u64(), Some(*v), "mask {s:#b}");
        }
        assert_eq!(generation_bops, scalar.tally().pattern_generation);
    }

    #[test]
    fn sliced_patterns_handle_zero_and_single_element_blocks() {
        let mut p = [u64::MAX; 4];
        let bops = generate_patterns_sliced(&[0, 0], 16, &mut p);
        assert_eq!(p, [0, 0, 0, 0]);
        // The reuse-tree addition still runs (and is costed) on zeros,
        // exactly like the scalar pass: bit_len(0).max(16) = 16.
        assert_eq!(bops, 16);
        let mut p = [u64::MAX; 2];
        let bops = generate_patterns_sliced(&[7], 16, &mut p);
        assert_eq!(p, [0, 7]);
        assert_eq!(bops, 0, "singletons are free (Fig. 9b)");
    }

    #[test]
    fn oversized_element_rejected() {
        let xs = nats(&[256]);
        assert_eq!(
            generate_patterns(&xs, 8).err(),
            Some(ModelError::OversizedElement {
                index: 0,
                bits: 9,
                element_bits: 8
            })
        );
    }

    #[test]
    fn too_many_elements_rejected() {
        let xs = vec![Nat::one(); 17];
        assert_eq!(
            generate_patterns(&xs, 8).err(),
            Some(ModelError::PatternTableTooLarge { q: 17 })
        );
    }
}
