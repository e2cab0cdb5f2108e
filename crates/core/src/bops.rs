//! The *bops* (binary-operations) metric and the BIPS benefit analysis of
//! §IV-B.
//!
//! For operands of `p_x`, `p_y` bits the paper defines bops(x + y) =
//! max(p_x, p_y) and bops(x·y) = p_x·p_y, then shows that a q-element
//! inner product costs at most `(2^q − q − 1)·p_x` bops for pattern
//! generation plus `p_y·(p_x + q)` for weighted gathering, against
//! `q·p_x·p_y` for the straightforward bit-serial scheme, i.e. a ratio
//! λ = (1 + (2^q − 1)/p_y)/q with minimum 0.367 at q = 4 for p_y = 32.

/// bops cost of one addition, per the §IV-B definition.
pub fn bops_add(p_x: u64, p_y: u64) -> u64 {
    p_x.max(p_y)
}

/// bops cost of one multiplication, per the §IV-B definition.
pub fn bops_mul(p_x: u64, p_y: u64) -> u64 {
    p_x * p_y
}

/// Analytic bops of a q-element inner product under BIPS (the §IV-B upper
/// bound of the benefit analysis).
pub fn bips_bops(q: u32, p_x: u64, p_y: u64) -> u64 {
    let patterns = ((1u64 << q) - u64::from(q) - 1) * p_x;
    let gather = p_y * (p_x + u64::from(q));
    patterns + gather
}

/// Analytic bops of the straightforward bit-serial scheme (§IV-B, Fig. 6b)
/// for the same inner product.
pub fn bit_serial_bops(q: u32, p_x: u64, p_y: u64) -> u64 {
    u64::from(q) * p_x * p_y
}

/// The §IV-B bops ratio λ(q) for `p_x, p_y ≫ q`:
/// λ = (1 + (2^q − 1)/p_y) / q.
///
/// ```
/// use cambricon_p::bops::lambda;
/// // Paper: λ_min = 0.367 at q = 4 for p_y = 32.
/// assert!((lambda(4, 32.0) - 0.367).abs() < 5e-4);
/// ```
pub fn lambda(q: u32, p_y: f64) -> f64 {
    (1.0 + (((1u64 << q) - 1) as f64) / p_y) / f64::from(q)
}

/// The q that minimizes the §IV-B λ for a given index bitwidth, over
/// 1..=max_q (a `max_q` below 1 is treated as 1).
///
/// ```
/// use cambricon_p::bops::optimal_q;
/// assert_eq!(optimal_q(32.0, 8), 4); // the paper's design choice
/// ```
pub fn optimal_q(p_y: f64, max_q: u32) -> u32 {
    let mut best = 1;
    for q in 2..=max_q {
        if lambda(q, p_y) < lambda(best, p_y) {
            best = q;
        }
    }
    best
}

/// Running bops tally, accumulated by the functional units while they
/// execute so that measured redundancy elimination can be compared with
/// the analytic §IV-B bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BopsTally {
    /// bops spent generating patterns (Converter).
    pub pattern_generation: u64,
    /// bops spent in indexed accumulation (IPU adders).
    pub weighted_gather: u64,
    /// bops a straightforward bit-serial scheme would have spent on the
    /// same work.
    pub bit_serial_reference: u64,
    /// MAC bit-additions skipped because the index bit column was zero
    /// (bit-sparsity exploited).
    pub skipped_zero: u64,
}

impl BopsTally {
    /// Total bops (§IV-B metric) actually spent.
    pub fn total(&self) -> u64 {
        self.pattern_generation + self.weighted_gather
    }

    /// Measured ratio against the bit-serial reference — the empirical λ
    /// of §IV-B.
    pub fn measured_lambda(&self) -> f64 {
        if self.bit_serial_reference == 0 {
            return 0.0;
        }
        self.total() as f64 / self.bit_serial_reference as f64
    }

    /// Merges another §IV-B tally into this one.
    pub fn merge(&mut self, other: &BopsTally) {
        self.pattern_generation += other.pattern_generation;
        self.weighted_gather += other.weighted_gather;
        self.bit_serial_reference += other.bit_serial_reference;
        self.skipped_zero += other.skipped_zero;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_min_is_at_q4_for_32bit_index() {
        let l4 = lambda(4, 32.0);
        assert!((l4 - 0.3672).abs() < 1e-3, "λ(4)={l4}");
        for q in [1u32, 2, 3, 5, 6, 7, 8] {
            assert!(lambda(q, 32.0) > l4, "q={q}");
        }
    }

    #[test]
    fn optimal_q_shifts_with_index_width() {
        // Wider index words amortize more patterns.
        assert_eq!(optimal_q(32.0, 8), 4);
        assert!(optimal_q(256.0, 10) > 4);
        assert!(optimal_q(4.0, 8) <= 3);
    }

    #[test]
    fn analytic_bops_relation() {
        // The exact expression counts 2^q − q − 1 pattern adders (the
        // singletons are free), so it sits slightly *below* the paper's
        // (2^q − 1)-based λ approximation — never above it.
        let (q, px, py) = (4u32, 1024u64, 32u64);
        let ratio = bips_bops(q, px, py) as f64 / bit_serial_bops(q, px, py) as f64;
        let approx = lambda(q, py as f64);
        assert!(ratio <= approx + 1e-9, "ratio={ratio} approx={approx}");
        assert!((ratio - approx).abs() < 0.05, "ratio={ratio} approx={approx}");
    }

    #[test]
    fn tally_merge_and_lambda() {
        let mut t = BopsTally {
            pattern_generation: 10,
            weighted_gather: 20,
            bit_serial_reference: 100,
            skipped_zero: 5,
        };
        let u = t;
        t.merge(&u);
        assert_eq!(t.total(), 60);
        assert_eq!(t.bit_serial_reference, 200);
        assert!((t.measured_lambda() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bops_primitives() {
        assert_eq!(bops_add(32, 8), 32);
        assert_eq!(bops_mul(32, 8), 256);
    }
}
