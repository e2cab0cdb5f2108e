//! Fixture model crate — every public item cites the paper, as the real
//! `cambricon-p` crate must (Eq. 1, §V).

/// Saturating count conversion for the Eq. 1 limb vectors.
pub fn checked_count(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// The section width of the carry-parallel gather (Fig. 7c).
pub const SECTION_BITS: u32 = 32;
