//! Schönhage–Strassen multiplication (SSA), O(n·log n·log log n).
//!
//! The classic FFT-based algorithm over the Fermat ring Z/(2^n + 1), where
//! 2 is a 2n-th root of unity so every twiddle multiplication is a bit
//! shift. The paper's MPApca library "always pads the bitwidth of inputs to
//! the next 2^k" (§VII-B) — this implementation does the same, which is
//! what produces the zigzag in the Figure 11 curve.

use crate::int::Int;
use crate::nat::Nat;

/// Multiplies `a * b` via Schönhage–Strassen.
///
/// Internally computes the negacyclic convolution of K = 2^k pieces of M
/// bits in Z/(2^n + 1) with shift-only twiddles, then decodes the (possibly
/// negative) wrapped coefficients and reduces modulo 2^{KM} + 1, which is
/// exact because the true product is below 2^{KM}.
pub fn mul(a: &Nat, b: &Nat) -> Nat {
    if a.is_zero() || b.is_zero() {
        return Nat::zero();
    }
    let total_bits = a.bit_len() + b.bit_len();
    let plan = Plan::for_bits(total_bits);
    let ring = Ring::new(plan.ring_bits);

    let mut fa = load(a, &plan, &ring);
    let mut fb = load(b, &plan, &ring);
    // The two forward transforms touch disjoint data; run them side by
    // side when the `parallel` feature is enabled.
    let par = crate::par::parallel_enabled();
    crate::par::join(
        par,
        || fft(&mut fa, &ring, plan.omega_exp),
        || fft(&mut fb, &ring, plan.omega_exp),
    );

    // K independent pointwise ring products, kept in coefficient order so
    // the inverse transform below sees exactly the sequential layout.
    let mut fc: Vec<Nat> =
        crate::par::map_indexed(fa.len(), par, &|i| ring.mul(&fa[i], &fb[i]));

    let omega_inv = 2 * ring.n - plan.omega_exp;
    fft(&mut fc, &ring, omega_inv);
    // The plain (un-normalized) inverse FFT leaves a factor K and the
    // bit-reversed/forward asymmetry; using the same radix-2 transform with
    // ω⁻¹ yields K·c reversed-index-free, so divide by K = 2^k via a shift
    // by 2n − k.
    let k_inv_exp = 2 * ring.n - u64::from(plan.log_k);

    let m = plan.piece_bits;
    let kk = plan.pieces;
    let wrap_bits = m * kk as u64;
    let mut acc = Int::zero();
    for (i, c) in fc.iter().enumerate() {
        let mut v = ring.shl(c, k_inv_exp);
        // Unweight: multiply by θ^{-i} = 2^{2n - i·t}.
        let unweight = (2 * ring.n - (i as u64 * plan.theta_exp) % (2 * ring.n)) % (2 * ring.n);
        v = ring.shl(&v, unweight);
        let signed = ring.decode_signed(&v);
        acc += &signed.shl_bits(m * i as u64);
    }
    // acc ≡ a·b (mod 2^{KM}+1) and a·b < 2^{KM}, so the residue is exact.
    mod_fermat(&acc, wrap_bits)
}

/// FFT size/ring parameters chosen for a given total product bit length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// log2 of the number of pieces.
    pub log_k: u32,
    /// Number of pieces K = 2^log_k.
    pub pieces: usize,
    /// Bits per piece (M).
    pub piece_bits: u64,
    /// Ring width n: arithmetic is mod 2^n + 1.
    pub ring_bits: u64,
    /// θ = 2^theta_exp is the 2K-th root of −1 used for negacyclic
    /// weighting.
    pub theta_exp: u64,
    /// ω = θ² = 2^omega_exp, the primitive K-th root of unity.
    pub omega_exp: u64,
}

impl Plan {
    /// Chooses K ≈ √total_bits (balancing piece size against FFT depth) and
    /// the smallest admissible ring.
    pub fn for_bits(total_bits: u64) -> Plan {
        let log_total = 63 - (total_bits.max(4)).leading_zeros();
        let mut log_k = (log_total / 2).clamp(2, 20);
        // Keep pieces at least a few bits wide.
        while log_k > 2 && (1u64 << log_k) * 4 > total_bits {
            log_k -= 1;
        }
        let pieces = 1usize << log_k;
        let piece_bits = total_bits.div_ceil(pieces as u64);
        // Ring must hold K·2^{2M} with a sign bit to spare, and n must be a
        // multiple of both K (so 2^{n/K} exists) and 64 (limb alignment).
        let unit = (pieces as u64).max(64);
        let min_n = 2 * piece_bits + u64::from(log_k) + 2;
        let ring_bits = min_n.div_ceil(unit) * unit;
        let theta_exp = ring_bits / pieces as u64;
        Plan {
            log_k,
            pieces,
            piece_bits,
            ring_bits,
            theta_exp,
            omega_exp: 2 * theta_exp,
        }
    }
}

/// Arithmetic in the Fermat ring Z/(2^n + 1). Elements are [`Nat`] values
/// normalized into [0, 2^n].
#[derive(Debug, Clone)]
pub struct Ring {
    /// Ring width in bits.
    pub n: u64,
    modulus: Nat,
    half: Nat,
}

impl Ring {
    /// Creates the ring Z/(2^n + 1).
    pub fn new(n: u64) -> Ring {
        let modulus = Nat::power_of_two(n) + Nat::one();
        Ring {
            n,
            half: Nat::power_of_two(n - 1),
            modulus,
        }
    }

    /// The modulus 2^n + 1.
    pub fn modulus(&self) -> &Nat {
        &self.modulus
    }

    /// Reduces an arbitrary natural into [0, 2^n] by Fermat folding
    /// (2^n ≡ −1).
    pub fn fold(&self, x: &Nat) -> Nat {
        let mut acc = Int::zero();
        let mut rest = x.clone();
        let mut negate = false;
        while !rest.is_zero() {
            let (lo, hi) = rest.split_at_bit(self.n);
            let term = Int::from_nat(lo);
            acc += &if negate { -term } else { term };
            rest = hi;
            negate = !negate;
        }
        self.reduce_signed(acc)
    }

    fn reduce_signed(&self, mut acc: Int) -> Nat {
        let m = Int::from_nat(self.modulus.clone());
        while acc.is_negative() {
            acc += &m;
        }
        while acc.magnitude() > &self.modulus || acc.magnitude() == &self.modulus {
            acc -= &m;
        }
        acc.into_nat()
    }

    /// Modular addition of normalized elements.
    pub fn add(&self, a: &Nat, b: &Nat) -> Nat {
        let s = a + b;
        if s >= self.modulus {
            s - self.modulus.clone()
        } else {
            s
        }
    }

    /// Modular negation.
    pub fn neg(&self, a: &Nat) -> Nat {
        if a.is_zero() {
            Nat::zero()
        } else {
            &self.modulus - a
        }
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &Nat, b: &Nat) -> Nat {
        self.add(a, &self.neg(b))
    }

    /// Multiplication by 2^e for any e (reduced mod 2n, since 2^{2n} ≡ 1).
    /// This is the shift-only twiddle that makes SSA cheap.
    pub fn shl(&self, a: &Nat, e: u64) -> Nat {
        let e = e % (2 * self.n);
        if a.is_zero() || e == 0 {
            return a.clone();
        }
        if e >= self.n {
            return self.neg(&self.shl(a, e - self.n));
        }
        // a = h·2^{n−e} + l  ⇒  a·2^e ≡ l·2^e − h.
        let (l, h) = a.split_at_bit(self.n - e);
        self.sub(&l.shl_bits(e), &h)
    }

    /// Full modular multiplication (recursive [`Nat`] multiply + fold).
    pub fn mul(&self, a: &Nat, b: &Nat) -> Nat {
        self.fold(&(a * b))
    }

    /// Decodes a residue as a signed value in (−2^{n−1}, 2^{n−1}]: values
    /// above 2^{n−1} represent negatives (residue − (2^n + 1)).
    pub fn decode_signed(&self, a: &Nat) -> Int {
        if a > &self.half {
            Int::from_nat(a.clone()) - Int::from_nat(self.modulus.clone())
        } else {
            Int::from_nat(a.clone())
        }
    }
}

/// Splits into K weighted pieces: piece i is a_i · θ^i.
fn load(x: &Nat, plan: &Plan, ring: &Ring) -> Vec<Nat> {
    let mut pieces = Vec::with_capacity(plan.pieces);
    let mut rest = x.clone();
    for i in 0..plan.pieces {
        let (lo, hi) = rest.split_at_bit(plan.piece_bits);
        rest = hi;
        let weighted = ring.shl(&lo, (i as u64 * plan.theta_exp) % (2 * ring.n));
        pieces.push(weighted);
    }
    debug_assert!(rest.is_zero(), "operand exceeds K·M bits");
    pieces
}

/// In-place iterative radix-2 FFT over the ring, with root 2^root_exp.
fn fft(v: &mut [Nat], ring: &Ring, root_exp: u64) {
    let k = v.len();
    debug_assert!(k.is_power_of_two());
    bit_reverse_permute(v);
    let mut len = 2;
    while len <= k {
        let step = (root_exp * (k / len) as u64) % (2 * ring.n);
        let mut start = 0;
        while start < k {
            let mut e = 0u64;
            for j in start..start + len / 2 {
                let t = ring.shl(&v[j + len / 2], e);
                let u = v[j].clone();
                v[j] = ring.add(&u, &t);
                v[j + len / 2] = ring.sub(&u, &t);
                e = (e + step) % (2 * ring.n);
            }
            start += len;
        }
        len <<= 1;
    }
}

fn bit_reverse_permute(v: &mut [Nat]) {
    let k = v.len();
    let bits = k.trailing_zeros();
    for i in 0..k {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = crate::limb::usize_from(j);
        if i < j {
            v.swap(i, j);
        }
    }
}

/// Reduces a signed value modulo 2^bits + 1 into [0, 2^bits].
fn mod_fermat(v: &Int, bits: u64) -> Nat {
    let modulus = Nat::power_of_two(bits) + Nat::one();
    let mut acc = Int::zero();
    let mut rest = v.magnitude().clone();
    let mut negate = v.is_negative();
    while !rest.is_zero() {
        let (lo, hi) = rest.split_at_bit(bits);
        let term = Int::from_nat(lo);
        acc += &if negate { -term } else { term };
        rest = hi;
        negate = !negate;
    }
    let m = Int::from_nat(modulus.clone());
    while acc.is_negative() {
        acc += &m;
    }
    while acc.magnitude() >= &modulus {
        acc -= &m;
    }
    acc.into_nat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::mul::schoolbook;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed.wrapping_mul(0xD1342543DE82EF95) | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x = x.wrapping_mul(0xAF251AF3B0F025B5).wrapping_add(0xB564EF22EC7AECE5);
                x.rotate_left(17)
            })
            .collect();
        Nat::from_limbs(v)
    }

    #[test]
    fn ring_shift_matches_naive() {
        let ring = Ring::new(64);
        let a = Nat::from(0x1234_5678_9abc_def0u64);
        for e in [0u64, 1, 13, 63, 64, 65, 100, 127, 128, 200] {
            let got = ring.shl(&a, e);
            let naive = {
                let big = a.shl_bits(e % 128);
                ring.fold(&big)
            };
            assert_eq!(got, naive, "e={e}");
        }
    }

    #[test]
    fn ring_shl_by_2n_is_identity() {
        let ring = Ring::new(128);
        let a = pattern(2, 7);
        let a = ring.fold(&a);
        assert_eq!(ring.shl(&a, 2 * ring.n), a);
        // 2^n ≡ −1
        assert_eq!(ring.shl(&a, ring.n), ring.neg(&a));
    }

    #[test]
    fn ring_decode_signed_window() {
        let ring = Ring::new(64);
        assert_eq!(ring.decode_signed(&Nat::from(5u64)), Int::from(5i64));
        let neg_one = ring.neg(&Nat::one());
        assert_eq!(ring.decode_signed(&neg_one), Int::from(-1i64));
    }

    #[test]
    fn fold_of_modulus_is_zero() {
        let ring = Ring::new(64);
        assert!(ring.fold(ring.modulus()).is_zero());
        let twice = ring.modulus().mul_limb(2);
        assert!(ring.fold(&twice).is_zero());
    }

    #[test]
    fn plan_invariants() {
        for bits in [256u64, 1000, 4096, 100_000, 2_000_000] {
            let p = Plan::for_bits(bits);
            assert!(p.pieces as u64 * p.piece_bits >= bits, "bits={bits}");
            assert!(p.ring_bits >= 2 * p.piece_bits + u64::from(p.log_k) + 2);
            assert_eq!(p.ring_bits % p.pieces as u64, 0);
            assert_eq!(p.ring_bits % 64, 0);
        }
    }

    #[test]
    fn matches_schoolbook_small() {
        for n in [2usize, 3, 5, 9, 16, 40] {
            let a = pattern(n, 1);
            let b = pattern(n, 2);
            assert_eq!(mul(&a, &b), schoolbook::mul(&a, &b), "n={n}");
        }
    }

    #[test]
    fn matches_auto_large() {
        let a = pattern(700, 11);
        let b = pattern(650, 13);
        assert_eq!(mul(&a, &b), &a * &b);
    }

    #[test]
    fn extreme_operands() {
        let a = Nat::power_of_two(10_000) - Nat::one(); // all ones
        let b = Nat::power_of_two(9_999) + Nat::one(); // sparse
        let expect = &a * &b;
        assert_eq!(mul(&a, &b), expect);
    }

    #[test]
    fn mod_fermat_signed_values() {
        // −1 mod (2^8+1) = 256
        assert_eq!(mod_fermat(&Int::from(-1i64), 8).to_u64(), Some(256));
        assert_eq!(mod_fermat(&Int::from(257i64), 8).to_u64(), Some(0));
        assert_eq!(mod_fermat(&Int::from(258i64), 8).to_u64(), Some(1));
    }
}
