//! The bit-indexed IPU — *pattern indexing* and accumulation (BIPS stages
//! 2 and 3, Fig. 8 and Fig. 9c).
//!
//! Each IPU receives the broadcast pattern flows from the Converter plus
//! its own q index bitflows (the y⃗ limbs). At cycle t the q index bits
//! form a column of the one-hot matrix B_col: they select pattern
//! `z[s]` where s is the column value, which is accumulated at weight 2^t.
//! Zero columns are skipped (bit-sparsity); repeated sub-additions were
//! already eliminated by the Converter (repetition redundancy).

use crate::bops::BopsTally;
use crate::converter::Patterns;
use apc_bignum::limb::{bit_len, low_mask, Limb, LIMB_BITS};
use apc_bignum::Nat;

/// Output of one IPU pass (BIPS stage 3, Fig. 9c): an inner-product
/// partial sum plus accounting.
#[derive(Debug, Clone)]
pub struct IpuOutput {
    /// The inner product Σᵢ xᵢ·yᵢ.
    pub value: Nat,
    /// bops accounting for this pass.
    pub tally: BopsTally,
    /// Cycles consumed: the index stream length (1 bit of every index flow
    /// per cycle).
    pub cycles: u64,
}

/// Computes the inner product x⃗·y⃗ by BIPS (Fig. 8), given pre-generated
/// patterns of x⃗ and the index limbs y⃗ (one per pattern input, each at
/// most `index_bits` wide).
///
/// ```
/// use apc_bignum::Nat;
/// use cambricon_p::converter::generate_patterns;
/// use cambricon_p::ipu::bit_indexed_inner_product;
///
/// // x⃗ = (3, 5), y⃗ = (2, 4): inner product = 3·2 + 5·4 = 26.
/// let xs = [Nat::from(3u64), Nat::from(5u64)];
/// let ys = [Nat::from(2u64), Nat::from(4u64)];
/// let p = generate_patterns(&xs, 8).expect("2 elements of <= 8 bits");
/// let out = bit_indexed_inner_product(&p, &ys, 8);
/// assert_eq!(out.value.to_u64(), Some(26));
/// ```
///
/// # Panics
///
/// Panics if `ys.len()` does not match the pattern input count or an index
/// exceeds `index_bits`.
pub fn bit_indexed_inner_product(patterns: &Patterns, ys: &[Nat], index_bits: u64) -> IpuOutput {
    let q = crate::cast::usize_from(u64::from(patterns.len().trailing_zeros()));
    assert_eq!(ys.len(), q, "one index flow per pattern input");
    for (i, y) in ys.iter().enumerate() {
        assert!(
            y.bit_len() <= index_bits,
            "index {i} has {} bits > {index_bits}",
            y.bit_len()
        );
    }
    // The Converter's cost is attributed once per pattern set; the caller
    // merges it. Here we count indexing-side work only.
    let mut tally = BopsTally {
        bit_serial_reference: q as u64 * patterns.element_bits() * index_bits,
        ..BopsTally::default()
    };

    let mut acc = Nat::zero();
    for t in 0..index_bits {
        let mut mask = 0usize;
        for (i, y) in ys.iter().enumerate() {
            if y.bit(t) {
                mask |= 1 << i;
            }
        }
        if mask == 0 {
            tally.skipped_zero += 1;
            continue;
        }
        let selected = patterns.get(mask);
        // One shifted accumulation of a (p_x + q)-bit pattern.
        tally.weighted_gather += selected.bit_len().max(1);
        acc = &acc + &selected.shl_bits(t);
    }
    crate::invariants::check_ipu_bound(&acc, q, patterns.element_bits(), index_bits);
    IpuOutput {
        value: acc,
        tally,
        cycles: index_bits,
    }
}

/// The gather width a pattern word charges when selected (Fig. 8 stage
/// 3): `max(1, bit_len(pattern))`, one shifted accumulation of that many
/// bits per selecting cycle. A PE computes it once per table entry and
/// reuses it for every index tuple the table meets.
#[inline]
pub fn pattern_bits(pattern: Limb) -> u32 {
    bit_len(pattern).max(1)
}

/// The one-hot selection of index tuples (BIPS stage 2, Fig. 8),
/// bitsliced: the **indicator word** `I[mask] = Σ_{t: sel(t)=mask} 2^t`
/// packs every cycle whose q index bits equal `mask` into one machine
/// word, and `popcount(I[mask])` counts those cycles.
///
/// The scalar pass accumulates `V = Σ_t pattern(sel(t))·2^t`, one shifted
/// addition per cycle `t`. Regrouping by *which* pattern each column
/// selects gives `V = Σ_mask pattern[mask]·I[mask]`. The selection depends
/// on the index words alone — not on the pattern table — so a tuple that
/// several PEs read (the Memory Agent hands each IPU "the 4 bitflows
/// starting from different positions", §V-B2) is split once and then
/// multiplied into every table that reads it.
///
/// The selection is bitwise, so one word can carry several tuples side by
/// side: with k tuples of L cycles packed at bit offsets `L·(k − 1 − s)`
/// (k·L ≤ 64), each L-bit segment of `I[mask]` is its own tuple's
/// indicator, and one MAC gives `Σ_s V_s·2^(L·(k − 1 − s))`. The
/// structural walk packs k adjacent tuples so (`k` from the
/// configuration; see [`crate::accelerator::Accelerator::multiply`]). The
/// scratch is 2^q words plus 2^q counts, reused across splits.
///
/// The walk calls [`Indicators::split`] once per nonzero tuple group,
/// [`Indicators::mac`] once per table that reads it, and charges each
/// reader the [`Indicators::ones`] counts: `ones()[0]` skipped cycles and
/// `Σ_{mask ≥ 1} ones[mask]·pattern_bits(P[mask])` gathered bits ([`pattern_bits`]),
/// the scalar [`bit_indexed_inner_product`]'s counts regrouped by mask.
#[derive(Debug, Clone)]
pub struct Indicators {
    words: Vec<Limb>,
    ones: Vec<u8>,
    index_bits: u64,
}

impl Indicators {
    /// Scratch for q index words of `index_bits ≤ 64` live bits each
    /// (Fig. 8 stage 2): one tuple of `index_bits` cycles, or k packed
    /// tuples of `index_bits / k` cycles each.
    pub fn new(q: usize, index_bits: u64) -> Self {
        debug_assert!(index_bits <= u64::from(LIMB_BITS), "index stream exceeds one word");
        Indicators {
            words: vec![0; 1 << q],
            ones: vec![0; 1 << q],
            index_bits,
        }
    }

    /// The indicator network (BIPS stage 2, Fig. 8) over q index words,
    /// each holding one tuple's word or k packed tuples' words: split the
    /// active bit set (`index_bits` wide) by each index word in turn.
    /// After word i, `I[m]` (m < 2^(i+1)) holds the bits whose low i+1
    /// index bits equal m, so every entry is written before it is read —
    /// 2^(q+1) − 2 word ops for up to 64 bitflow steps, the "64 bitflow
    /// steps per u64 op" collapse — and then the 2^q popcounts, taken once
    /// per split over the whole word. Up to q = 4 the network and counts
    /// are built in a fixed 16-word local, which stays in registers, and
    /// copied into the scratch once; above that they are built in place.
    /// Always inlined, so the walk's constant q reaches the local's loops.
    #[inline(always)]
    pub fn split(&mut self, ys: &[Limb]) {
        // Lengths follow `ys`, so a caller with a constant q gets loops
        // with constant trip counts.
        let n = 1 << ys.len();
        debug_assert_eq!(self.words.len(), n, "one index word per pattern input");
        let mut local = ([0; 16], [0; 16]);
        let (ind, ones) = if n <= 16 {
            (&mut local.0[..n], &mut local.1[..n])
        } else {
            (&mut self.words[..n], &mut self.ones[..n])
        };
        let active = low_mask(u32::try_from(self.index_bits).unwrap_or(LIMB_BITS));
        ind[0] = active;
        let mut half = 1usize;
        for (i, &y) in ys.iter().enumerate() {
            debug_assert_eq!(y & !active, 0, "index {i} has bits beyond {}", self.index_bits);
            for m in 0..half {
                ind[m | half] = ind[m] & y;
                ind[m] &= !y;
            }
            half <<= 1;
        }
        for (count, &w) in ones.iter_mut().zip(ind.iter()) {
            *count = u8::try_from(w.count_ones()).unwrap_or(u8::MAX);
        }
        if n <= 16 {
            self.words[..n].copy_from_slice(&local.0[..n]);
            self.ones[..n].copy_from_slice(&local.1[..n]);
        }
    }

    /// `popcount(I[mask])` for every mask of the last split: how many of
    /// its cycles select each pattern (Fig. 8 stage 3). For k packed
    /// tuples each count is the sum of the tuples' own, so any charge
    /// linear in the counts is their tuples' charges summed. `ones()[0]`
    /// counts the all-zero columns, which select z₀ ≡ 0 and are skipped
    /// (bit-sparsity); an all-zero tuple adds its whole L there.
    #[inline]
    pub fn ones(&self) -> &[u8] {
        &self.ones
    }

    /// The selected patterns' sum `Σ_mask patterns[mask]·I[mask]` of the
    /// last split against one 2^q-word table: the BIPS stage 3 value
    /// (Fig. 8), without its counts; for k packed tuples, their values
    /// each shifted to its tuple's segment and summed. `Q` is q fixed at
    /// compile time, or 0 to read it from `patterns.len()`.
    #[inline]
    pub fn mac<const Q: usize>(&self, patterns: &[Limb]) -> u128 {
        let n = if Q == 0 { patterns.len() } else { 1 << Q };
        mac_words::<Q>(&patterns[..n], &self.words[..n])
    }
}

/// The IPU multiply-accumulate `Σ_mask patterns[mask]·words[mask]` over a
/// 2^q-word table, q ≥ 1. Mask 0 selects z₀ ≡ 0 (Fig. 8), so the sum runs
/// over masks 1..2^q. It is kept out of line so its accumulators stay in
/// registers for the whole chain rather than being spilled between the
/// caller's steps, and it keeps two of them, over odd and even masks, so
/// two carry chains run side by side. `Q` as in [`Indicators::mac`], so
/// q = 4 gets a copy with a fixed trip count.
#[inline(never)]
fn mac_words<const Q: usize>(patterns: &[Limb], words: &[Limb]) -> u128 {
    let n = if Q == 0 { patterns.len() } else { 1 << Q };
    debug_assert_eq!(patterns[0], 0, "z₀ is the empty subset sum");
    let mut odd = u128::from(patterns[1]) * u128::from(words[1]);
    let mut even = 0u128;
    for (p, w) in patterns[2..n]
        .chunks_exact(2)
        .zip(words[2..n].chunks_exact(2))
    {
        even += u128::from(p[0]) * u128::from(w[0]);
        odd += u128::from(p[1]) * u128::from(w[1]);
    }
    even + odd
}

/// The straightforward bit-serial MAC scheme of Fig. 6(b) — used as the
/// ablation baseline. Supports zero-bit skipping (`skip_zeros`) but cannot
/// eliminate repeated sub-additions across the q multiplications.
pub fn plain_bit_serial_inner_product(
    xs: &[Nat],
    ys: &[Nat],
    index_bits: u64,
    skip_zeros: bool,
) -> IpuOutput {
    assert_eq!(xs.len(), ys.len());
    let px = xs.iter().map(Nat::bit_len).max().unwrap_or(0);
    let mut tally = BopsTally {
        bit_serial_reference: xs.len() as u64 * px * index_bits,
        ..BopsTally::default()
    };
    let mut acc = Nat::zero();
    for (x, y) in xs.iter().zip(ys) {
        for t in 0..index_bits {
            if y.bit(t) {
                tally.weighted_gather += x.bit_len().max(1);
                acc = &acc + &x.shl_bits(t);
            } else if skip_zeros {
                tally.skipped_zero += 1;
            } else {
                // An addition of zero still burns the adder.
                tally.weighted_gather += x.bit_len().max(1);
            }
        }
    }
    IpuOutput {
        value: acc,
        tally,
        cycles: index_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::converter::generate_patterns;

    fn inner_product_oracle(xs: &[Nat], ys: &[Nat]) -> Nat {
        xs.iter()
            .zip(ys)
            .fold(Nat::zero(), |acc, (x, y)| &acc + &(x * y.clone()))
    }

    #[test]
    fn matches_oracle_q4() {
        let xs: Vec<Nat> = [0xDEADu64, 0xBEEF, 0x1234, 0xFFFF]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let ys: Vec<Nat> = [0xAAu64, 0x55, 0x0F, 0xF0]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let p = generate_patterns(&xs, 16).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 8);
        assert_eq!(out.value, inner_product_oracle(&xs, &ys));
        assert_eq!(out.cycles, 8);
    }

    #[test]
    fn paper_figure6_example() {
        // Figure 6/8 use x⃗ = (0b0101, 0b1011), y⃗ = (0b0110, 0b0111):
        // 5·6 + 11·7 = 107.
        let xs = [Nat::from(0b0101u64), Nat::from(0b1011u64)];
        let ys = [Nat::from(0b0110u64), Nat::from(0b0111u64)];
        let p = generate_patterns(&xs, 4).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 4);
        assert_eq!(out.value.to_u64(), Some(107));
        // Cycle 3 has both index bits zero → exactly one skip... bit 0:
        // (0,1)→pattern 2; bit 1: (1,1)→3; bit 2: (1,1)→3; bit 3: (0,0)→skip.
        assert_eq!(out.tally.skipped_zero, 1);
    }

    #[test]
    fn zero_index_is_free() {
        let xs = [Nat::from(123u64), Nat::from(456u64)];
        let ys = [Nat::zero(), Nat::zero()];
        let p = generate_patterns(&xs, 16).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 32);
        assert!(out.value.is_zero());
        assert_eq!(out.tally.skipped_zero, 32);
        assert_eq!(out.tally.weighted_gather, 0);
    }

    #[test]
    fn split_mac_and_counts_match_scalar_pass() {
        // One scratch per (q, L) serves every tuple in turn, as in a
        // window walk: dense, sparse and all-zero index words, then dense
        // again after the all-zero tuple. The counts are charged as the
        // structural walk charges one reader of a tuple. q runs on both
        // sides of the split's register-local bound (q ≤ 4).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for q in 1..=6usize {
            for l in [1u32, 8, 31, 32, 54] {
                let mask = low_mask(l);
                let words: Vec<Limb> = (0..q).map(|_| next() & mask).collect();
                let xs: Vec<Nat> = words.iter().map(|&v| Nat::from(v)).collect();
                let scalar_patterns = generate_patterns(&xs, u64::from(l)).expect("valid inputs");
                let mut patterns = vec![0; 1 << q];
                crate::converter::generate_patterns_sliced(&words, u64::from(l), &mut patterns);
                let bits: Vec<u32> = patterns.iter().map(|&p| pattern_bits(p)).collect();
                let mut indicators = Indicators::new(q, u64::from(l));
                for kind in ["dense", "sparse", "zero", "dense"] {
                    let index_words: Vec<Limb> = (0..q)
                        .map(|_| match kind {
                            "dense" => next() & mask,
                            "sparse" => next() & next() & next() & mask,
                            _ => 0,
                        })
                        .collect();
                    let ys: Vec<Nat> = index_words.iter().map(|&v| Nat::from(v)).collect();
                    let scalar = bit_indexed_inner_product(&scalar_patterns, &ys, u64::from(l));
                    indicators.split(&index_words);
                    let ones = indicators.ones();
                    let gather = |(&n, &b): (&u8, &u32)| u64::from(n) * u64::from(b);
                    let tally = BopsTally {
                        bit_serial_reference: q as u64 * u64::from(l) * u64::from(l),
                        skipped_zero: u64::from(ones[0]),
                        weighted_gather: ones.iter().zip(&bits).skip(1).map(gather).sum(),
                        ..BopsTally::default()
                    };
                    let what = format!("q={q} L={l} {kind}");
                    let value = indicators.mac::<0>(&patterns);
                    assert_eq!(scalar.value.to_u128(), Some(value), "value: {what}");
                    assert_eq!(scalar.tally, tally, "tally: {what}");
                }
            }
        }
    }

    #[test]
    fn packed_tuples_split_into_their_shifted_values_and_summed_counts() {
        // k tuples side by side in one word, tuple s at bit L·(k − 1 − s),
        // one of them all zero: one split and MAC give every tuple's value
        // at its segment, and every count is the sum of the tuples' own.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (q, l, k) in [(4usize, 32u32, 2usize), (4, 16, 4), (8, 8, 8), (2, 8, 2)] {
            let mask = low_mask(l);
            let words: Vec<Limb> = (0..q).map(|_| next() & mask).collect();
            let mut patterns = vec![0; 1 << q];
            crate::converter::generate_patterns_sliced(&words, u64::from(l), &mut patterns);
            let tuples: Vec<Vec<Limb>> = (0..k)
                .map(|s| (0..q).map(|_| if s == 1 { 0 } else { next() & mask }).collect())
                .collect();
            let packed: Vec<Limb> = (0..q)
                .map(|i| tuples.iter().fold(0, |word, tuple| word << l | tuple[i]))
                .collect();
            let mut wide = Indicators::new(q, k as u64 * u64::from(l));
            wide.split(&packed);
            let (mut value, mut ones) = (0u128, vec![0u32; 1 << q]);
            let mut single = Indicators::new(q, u64::from(l));
            for tuple in &tuples {
                single.split(tuple);
                value = (value << l) + single.mac::<0>(&patterns);
                for (sum, &n) in ones.iter_mut().zip(single.ones()) {
                    *sum += u32::from(n);
                }
            }
            let what = format!("q={q} L={l} k={k}");
            assert_eq!(wide.mac::<0>(&patterns), value, "value: {what}");
            let wide_ones: Vec<u32> = wide.ones().iter().map(|&n| u32::from(n)).collect();
            assert_eq!(wide_ones, ones, "counts: {what}");
        }
    }

    #[test]
    fn bips_beats_plain_bit_serial_on_dense_input() {
        let xs: Vec<Nat> = (0..4).map(|i| Nat::from(0xFFFF_FFFFu64 - i)).collect();
        let ys: Vec<Nat> = (0..4).map(|i| Nat::from(0xFFFF_FFF0u64 + i)).collect();
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        let bips = bit_indexed_inner_product(&p, &ys, 32);
        let mut bips_total = bips.tally;
        bips_total.merge(p.tally());
        let plain = plain_bit_serial_inner_product(&xs, &ys, 32, true);
        assert_eq!(bips.value, plain.value);
        assert!(
            bips_total.total() < plain.tally.total(),
            "BIPS {} vs plain {}",
            bips_total.total(),
            plain.tally.total()
        );
    }

    #[test]
    fn measured_lambda_near_analytic_for_random_dense() {
        // For uniformly random 32-bit indexes, the measured ratio should
        // sit near λ(4, 32) ≈ 0.37 (columns are nonzero 15/16 of the time).
        let xs: Vec<Nat> = [0x9E3779B9u64, 0x7F4A7C15, 0xF39CC060, 0x5CEDC834]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let ys: Vec<Nat> = [0xDEADBEEFu64, 0xCAFEF00D, 0x8BADF00D, 0xFEEDFACE]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 32);
        let mut t = out.tally;
        t.merge(p.tally());
        let l = t.measured_lambda();
        assert!(l > 0.2 && l < 0.6, "measured λ = {l}");
    }

    #[test]
    fn plain_scheme_without_skipping_costs_more() {
        let xs = [Nat::from(1u64), Nat::from(2u64)];
        let ys = [Nat::from(0b1u64), Nat::from(0b0u64)];
        let with_skip = plain_bit_serial_inner_product(&xs, &ys, 8, true);
        let without = plain_bit_serial_inner_product(&xs, &ys, 8, false);
        assert_eq!(with_skip.value, without.value);
        assert!(without.tally.total() > with_skip.tally.total());
    }
}
