//! Fixture facade crate.

/// Adds one, panic-free.
pub fn add_one(x: u64) -> u64 {
    x.wrapping_add(1)
}
