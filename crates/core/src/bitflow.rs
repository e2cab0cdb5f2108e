//! Bitflows — the bit-serial data streams of the architecture.
//!
//! Every operand enters a Cambricon-P PE as a *bitflow*: one bit per cycle,
//! LSB first (§V-B3). A [`Bitflow`] couples a value with an explicit length
//! so that zero-padding (which costs real cycles in hardware) is visible to
//! the timing model.

use apc_bignum::Nat;

/// A finite bit-serial stream, LSB first (§V-B3).
///
/// ```
/// use apc_bignum::Nat;
/// use cambricon_p::bitflow::Bitflow;
///
/// let f = Bitflow::from_nat(Nat::from(0b1010u64), 6);
/// let bits: Vec<bool> = f.iter().collect();
/// assert_eq!(bits, [false, true, false, true, false, false]);
/// assert_eq!(f.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitflow {
    value: Nat,
    len: u64,
}

impl Bitflow {
    /// Wraps a value into a stream of exactly `len` bits (the value must
    /// fit) — the serialization step of §V-B3.
    ///
    /// # Panics
    ///
    /// Panics if `value` needs more than `len` bits.
    pub fn from_nat(value: Nat, len: u64) -> Bitflow {
        assert!(
            value.bit_len() <= len,
            "value of {} bits does not fit a {len}-bit flow",
            value.bit_len()
        );
        Bitflow { value, len }
    }

    /// A stream of `len` zero bits — the §V-B3 padding flow.
    pub fn zeros(len: u64) -> Bitflow {
        Bitflow {
            value: Nat::zero(),
            len,
        }
    }

    /// The stream length in bits (= cycles to transmit at the 1 bit/cycle
    /// rate of §V-B3).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the §V-B3 stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value carried by the §V-B3 stream.
    pub fn value(&self) -> &Nat {
        &self.value
    }

    /// Bit at stream position `t` — the bit on the wire at cycle `t`
    /// (§V-B3).
    pub fn bit(&self, t: u64) -> bool {
        t < self.len && self.value.bit(t)
    }

    /// Iterates the stream bits in §V-B3 transmission order (LSB first).
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |t| self.bit(t))
    }

    /// Concatenates another flow after this one (value-wise this is
    /// `self + (other << len)`), as when §V-B3 blocks stream back-to-back.
    pub fn chain(&self, other: &Bitflow) -> Bitflow {
        Bitflow {
            value: &self.value + &other.value.shl_bits(self.len),
            len: self.len + other.len,
        }
    }

    /// Splits the flow into consecutive `width`-bit sub-flows (the last one
    /// padded with zeros), which is how the Memory Agents dispatch blocks
    /// of "4 flows, each of 32-bit length" (§V-B3).
    pub fn split(&self, width: u64) -> Vec<Bitflow> {
        assert!(width > 0, "split width must be positive");
        let count = self.len.div_ceil(width).max(1);
        let mut out = Vec::with_capacity(crate::cast::usize_from(count));
        let mut rest = self.value.clone();
        for _ in 0..count {
            let (lo, hi) = rest.split_at_bit(width);
            out.push(Bitflow::from_nat(lo, width));
            rest = hi;
        }
        debug_assert!(rest.is_zero());
        out
    }
}

impl From<&Nat> for Bitflow {
    fn from(v: &Nat) -> Self {
        Bitflow {
            len: v.bit_len(),
            value: v.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_value() {
        let n = Nat::from(0xDEAD_BEEFu64);
        let f = Bitflow::from(&n);
        assert_eq!(f.value(), &n);
        assert_eq!(f.len(), 32);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_value() {
        let _ = Bitflow::from_nat(Nat::from(16u64), 4);
    }

    #[test]
    fn padding_bits_are_zero() {
        let f = Bitflow::from_nat(Nat::from(1u64), 8);
        assert!(f.bit(0));
        for t in 1..8 {
            assert!(!f.bit(t));
        }
        assert!(!f.bit(100)); // beyond the stream
    }

    #[test]
    fn chain_concatenates() {
        let a = Bitflow::from_nat(Nat::from(0b11u64), 2);
        let b = Bitflow::from_nat(Nat::from(0b01u64), 2);
        let c = a.chain(&b);
        assert_eq!(c.len(), 4);
        assert_eq!(c.value().to_u64(), Some(0b0111));
    }

    #[test]
    fn split_into_limb_flows() {
        let n = Nat::from(0xAABB_CCDDu64);
        let f = Bitflow::from(&n);
        let parts = f.split(8);
        assert_eq!(parts.len(), 4);
        let vals: Vec<u64> = parts.iter().map(|p| p.value().to_u64().unwrap()).collect();
        assert_eq!(vals, [0xDD, 0xCC, 0xBB, 0xAA]);
        for p in &parts {
            assert_eq!(p.len(), 8);
        }
    }

    #[test]
    fn zero_flow() {
        let z = Bitflow::zeros(5);
        assert_eq!(z.len(), 5);
        assert!(z.value().is_zero());
        assert!(!z.is_empty());
    }
}
