//! The Gather Unit (GU) — carry parallel computing (Fig. 7c, Fig. 10).
//!
//! IPU partial sums overlap by L bits when laid out at stride L. Gathering
//! them naively forms the long carry chain of Fig. 5. The GU instead cuts
//! the accumulation into L-bit sections, evaluates every section for **all
//! possible carry-in values simultaneously**, and then resolves the chain
//! with a single wave of selections (carry-select): Eq. 2 shows that with
//! 2L-bit aligned partial sums each section has two L-bit summands, so the
//! carry-in domain is just {0, 1}.
//!
//! The model below implements that mechanism literally (tables per section,
//! then a select pass) and is checked against plain big-integer addition.

use apc_bignum::limb::{adc, shl_step, Limb};
use apc_bignum::Nat;

/// Outcome of a carry-parallel gather pass (Fig. 7c).
#[derive(Debug, Clone)]
pub struct GatherResult {
    /// The gathered value Σᵢ partialᵢ·2^(i·L).
    pub value: Nat,
    /// Number of L-bit sections processed.
    pub sections: usize,
    /// Size of the carry-in domain that was needed (2 = the paper's 1-bit
    /// carry case).
    pub carry_domain: u64,
}

/// Gathers partial sums at stride `l` bits using the carry parallel
/// computing mechanism (Fig. 7c, Eq. 2).
///
/// ```
/// use apc_bignum::Nat;
/// use cambricon_p::gu::gather_carry_parallel;
///
/// // Two 2L-bit partial sums at stride L = 4: 0xAB + (0xCD << 4).
/// let parts = [Nat::from(0xABu64), Nat::from(0xCDu64)];
/// let g = gather_carry_parallel(&parts, 4);
/// assert_eq!(g.value.to_u64(), Some(0xAB + (0xCD << 4)));
/// assert_eq!(g.carry_domain, 2);
/// ```
///
/// # Panics
///
/// Panics if `l == 0`.
pub fn gather_carry_parallel(partials: &[Nat], l: u32) -> GatherResult {
    assert!(l > 0, "section width must be positive");
    let lb = u64::from(l);
    // Distribute every partial's L-bit chunks onto sections: partial i's
    // k-th chunk lands on section i + k.
    let mut summands: Vec<Vec<Nat>> = Vec::new();
    for (i, p) in partials.iter().enumerate() {
        let mut rest = p.clone();
        let mut k = 0usize;
        while !rest.is_zero() || k == 0 {
            let (lo, hi) = rest.split_at_bit(lb);
            let s = i + k;
            if summands.len() <= s {
                summands.resize_with(s + 1, Vec::new);
            }
            summands[s].push(lo);
            rest = hi;
            k += 1;
            if rest.is_zero() {
                break;
            }
        }
    }
    if summands.is_empty() {
        return GatherResult {
            value: Nat::zero(),
            sections: 0,
            carry_domain: 0,
        };
    }

    // Carry-in domain: a section with m summands of L bits plus a carry-in
    // c ≤ m−1 sums to at most m·(2^L−1) + m−1 = m·2^L − 1, so its carry-out
    // is again ≤ m−1. The chain therefore stabilizes with carries in
    // {0, …, max_m−1} — exactly {0, 1} in the canonical 2L-aligned case of
    // Eq. 2.
    let max_summands = summands.iter().map(Vec::len).max().unwrap_or(1) as u64;
    let carry_domain = max_summands.max(1);

    // Phase 1 (parallel in hardware): per-section sum tables for every
    // possible carry-in.
    let mask_bits = lb;
    let tables: Vec<Vec<(u64, u64)>> = summands
        .iter()
        .map(|list| {
            (0..carry_domain)
                .map(|cin| {
                    let mut acc = Nat::from(cin);
                    for s in list {
                        acc = &acc + s;
                    }
                    let low = acc.low_bits(mask_bits);
                    let carry = acc.shr_bits(mask_bits);
                    // L ≤ 64 in every configuration we instantiate; wider
                    // sections would need Nat entries here.
                    #[expect(
                        clippy::expect_used,
                        reason = "model limit: instantiated configs keep L <= 64"
                    )]
                    let low = low.to_u64().expect("section wider than 64 bits");
                    #[expect(
                        clippy::expect_used,
                        reason = "carry-out bounded by summand count (Eq. 2)"
                    )]
                    let carry = carry.to_u64().expect("carry-out is small");
                    (low, carry)
                })
                .collect()
        })
        .collect();

    // Phase 2: selection wave — walk the chain choosing each section's
    // precomputed row. (In hardware this is a mux ripple of 1-bit selects,
    // one gate delay per section instead of one L-bit adder delay.)
    let mut out_limbs: Vec<Nat> = Vec::with_capacity(tables.len());
    let mut carry = 0u64;
    for table in &tables {
        crate::invariants::check_carry_bound(carry, carry_domain);
        let (low, cout) = table[crate::cast::usize_from(carry)];
        out_limbs.push(Nat::from(low));
        carry = cout;
    }
    let mut value = Nat::from_chunks(&out_limbs, lb);
    if carry != 0 {
        value = &value + &Nat::from(carry).shl_bits(lb * tables.len() as u64);
    }

    GatherResult {
        value,
        sections: tables.len(),
        carry_domain,
    }
}

/// Adds `value · 2^offset` into `acc` in place: the GU's strided write
/// into the Adder Tree (Fig. 9a). The structural multiply lands each IPU
/// partial at bit `k·L` of its window and each window at `w·N_IPU·L` of
/// the product this way, so no intermediate value is materialized.
///
/// # Panics
///
/// Panics if the sum does not fit `acc`.
#[inline]
pub(crate) fn add_shifted(acc: &mut [Limb], value: &[Limb], offset: u64) {
    let len = value.iter().rposition(|&v| v != 0).map_or(0, |top| top + 1);
    let (word, bit) = apc_bignum::limb::bit_split(offset);
    let (mut spill, mut carry) = (0, 0);
    for (i, &v) in value[..len].iter().enumerate() {
        let shifted;
        (shifted, spill) = if bit == 0 { (v, 0) } else { shl_step(v, bit, spill) };
        (acc[word + i], carry) = adc(acc[word + i], shifted, carry);
    }
    let mut k = word + len;
    while spill != 0 || carry != 0 {
        (acc[k], carry) = adc(acc[k], spill, carry);
        spill = 0;
        k += 1;
    }
}

/// Reference gather: plain big-integer accumulation (the sequential
/// carry-chain baseline of Fig. 5, and the oracle for the carry-parallel
/// model).
pub fn gather_reference(partials: &[Nat], l: u32) -> Nat {
    Nat::from_chunks(partials, u64::from(l))
}

/// Cycles for a carry-parallel gather (Fig. 7c) streaming `output_bits` of
/// result: the sections compute concurrently, so the GU sustains 1
/// bit/cycle after a one-section fill.
pub fn cycles_carry_parallel(output_bits: u64, l: u32) -> u64 {
    output_bits + u64::from(l)
}

/// Cycles for a naive sequential gather: each L-bit section must wait for
/// its predecessor's full addition (the dependency chain of Fig. 5).
pub fn cycles_sequential(sections: usize, l: u32) -> u64 {
    sections as u64 * (u64::from(l) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nats(vals: &[u64]) -> Vec<Nat> {
        vals.iter().map(|&v| Nat::from(v)).collect()
    }

    #[test]
    fn matches_reference_canonical_2l() {
        // 2L-bit partials at stride L = 8.
        let parts = nats(&[0xFFFF, 0xABCD, 0x1234, 0xFF00]);
        let g = gather_carry_parallel(&parts, 8);
        assert_eq!(g.value, gather_reference(&parts, 8));
        assert_eq!(g.carry_domain, 2, "Eq. 2: carries stay within one bit");
    }

    #[test]
    fn eq2_worst_case_saturated_summands() {
        // Both summands saturated + carry-in: (2^L−1)+(2^L−1)+1 = 2^(L+1)−1,
        // carry-out still 1 (the inequality of Eq. 2).
        let parts = nats(&[0xFFFF, 0xFFFF, 0xFFFF]);
        let g = gather_carry_parallel(&parts, 8);
        assert_eq!(g.value, gather_reference(&parts, 8));
        assert_eq!(g.carry_domain, 2);
    }

    #[test]
    fn handles_wider_partials() {
        // IPU inner products can exceed 2L by log2(q) bits; the chunking
        // spreads them over three sections.
        let parts = vec![
            Nat::from(0x3_FFFF_FFFFu64), // 34 bits at L = 16
            Nat::from(0x2_AAAA_BBBBu64),
        ];
        let g = gather_carry_parallel(&parts, 16);
        assert_eq!(g.value, gather_reference(&parts, 16));
    }

    #[test]
    fn zero_and_empty_inputs() {
        assert!(gather_carry_parallel(&[], 8).value.is_zero());
        let zeros = vec![Nat::zero(), Nat::zero()];
        assert!(gather_carry_parallel(&zeros, 8).value.is_zero());
    }

    /// Partials that fill most of the 128-bit MAC width.
    fn wide_partials() -> Vec<u128> {
        (0..32u128)
            .map(|i| (i << 100) | (i * 0x9E37_79B9_7F4A_7C15) | 1)
            .collect()
    }

    #[test]
    fn carry_parallel_matches_reference_on_wide_partials() {
        // 128-bit partials at strides that do and do not divide 64.
        let nats: Vec<Nat> = wide_partials().into_iter().map(Nat::from).collect();
        for l in [8u32, 16, 24, 32, 54, 64] {
            let g = gather_carry_parallel(&nats, l);
            assert_eq!(g.value, gather_reference(&nats, l), "L={l}");
        }
    }

    #[test]
    fn in_place_fold_matches_reference_gather() {
        // The same partials folded one at a time into a shared buffer,
        // then that buffer folded again at a window offset.
        let wide: Vec<u128> = wide_partials()
            .into_iter()
            .chain([u128::MAX, 0, u128::MAX])
            .collect();
        let nats: Vec<Nat> = wide.iter().map(|&p| Nat::from(p)).collect();
        for l in [1u32, 8, 20, 32, 54, 64] {
            let mut acc: Vec<Limb> = vec![0; 40];
            for (k, &p) in wide.iter().enumerate() {
                let (lo, hi) = apc_bignum::limb::wide_parts(p);
                add_shifted(&mut acc, &[lo, hi], k as u64 * u64::from(l));
            }
            let gathered = gather_reference(&nats, l);
            assert_eq!(Nat::from_limbs(acc.clone()), gathered, "L={l}");
            for offset in [0u64, 1, 63, 64, 65, 1000] {
                let mut product: Vec<Limb> = vec![0; 60];
                add_shifted(&mut product, &acc, offset);
                add_shifted(&mut product, &acc, offset);
                let twice = &gathered + &gathered;
                assert_eq!(Nat::from_limbs(product), twice.shl_bits(offset), "L={l} +{offset}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn in_place_fold_rejects_an_undersized_accumulator() {
        let mut acc: Vec<Limb> = vec![u64::MAX; 2];
        add_shifted(&mut acc, &[1], 0);
    }

    #[test]
    fn long_chain_large_values() {
        // 32 partials of 2L bits at L = 32 — the paper's PE shape.
        let parts: Vec<Nat> = (0..32u64)
            .map(|i| Nat::from(i.wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        let g = gather_carry_parallel(&parts, 32);
        assert_eq!(g.value, gather_reference(&parts, 32));
    }

    #[test]
    fn timing_models_favor_carry_parallel() {
        let seq = cycles_sequential(32, 32);
        let par = cycles_carry_parallel(32 * 32 + 64, 32);
        // Sequential: 32 sections × 33 cycles; parallel: stream-out bound.
        assert!(seq > 1000);
        assert!(par < seq + 200);
    }
}
