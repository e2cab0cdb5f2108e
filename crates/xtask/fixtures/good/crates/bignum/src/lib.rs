//! Fixture bignum crate.

pub mod nat;
