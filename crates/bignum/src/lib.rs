//! # apc-bignum — arbitrary-precision arithmetic substrate
//!
//! A from-scratch reimplementation of the software stack the Cambricon-P
//! paper builds on (GNU GMP's MPN/MPZ/MPF layers): natural numbers with the
//! full fast-multiplication ladder (schoolbook, Karatsuba, Toom-3, Toom-4,
//! Toom-6, Schönhage–Strassen), schoolbook and divide-and-conquer division,
//! Karatsuba square root, GCD/modular inverse, Montgomery arithmetic and
//! radix conversion; sign-magnitude integers; and arbitrary-precision
//! binary floating point.
//!
//! This crate is pure software — it is both the CPU baseline of the
//! reproduction and the oracle that the Cambricon-P hardware model in the
//! `cambricon-p` crate is validated against.
//!
//! ## Quick example
//!
//! ```
//! use apc_bignum::Nat;
//!
//! let a = Nat::from_decimal_str("123456789012345678901234567890").unwrap();
//! let b = Nat::from_decimal_str("987654321098765432109876543210").unwrap();
//! let p = &a * &b;
//! assert_eq!(
//!     p.to_decimal_string(),
//!     "121932631137021795226185032733622923332237463801111263526900",
//! );
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod elementary;
pub mod error;
pub mod float;
pub mod int;
pub mod invariants;
pub mod limb;
pub mod nat;
pub mod par;

pub use error::ParseNumberError;
pub use float::Float;
pub use int::{Int, Sign};
pub use nat::mul::MulAlgorithm;
pub use nat::Nat;
