//! # cambricon-p — the bitflow architecture for arbitrary precision computing
//!
//! A bit-exact functional model plus a calibrated cycle/energy model of the
//! Cambricon-P accelerator (MICRO 2022), together with **MPApca**, the
//! runtime library the paper layers on top of it (§V-C).
//!
//! ## Architecture recap
//!
//! Cambricon-P performs *monolithic* large-bitwidth multiplications instead
//! of decomposing operands into machine words:
//!
//! - the **inner-product transformation** ([`transform`]) rewrites an N-bit
//!   multiplication as a polynomial convolution of L-bit limb vectors
//!   (Eq. 1 of the paper);
//! - each **PE** ([`pe`]) computes one bit-indexed inner product: a
//!   [`converter`] turns one operand's 4 bitflows into 2⁴ = 16 pattern
//!   flows, 32 **IPUs** ([`ipu`]) index those patterns with the other
//!   operand's bits (the BIPS scheme of Fig. 8), and a **Gather Unit**
//!   ([`gu`]) folds the IPU partial sums with the carry parallel computing
//!   mechanism (Fig. 7) so no sequential carry chain forms;
//! - 256 PEs plus an adder tree ([`accelerator`]) scale this to the whole
//!   convolution; [`accelerator::Accelerator::schedule`] is the §V-B3
//!   mapping of one multiplication onto that PE array, in closed form.
//!
//! Everything in the functional path is validated against the software
//! oracle in [`apc_bignum`].
//!
//! ## Quick example
//!
//! ```
//! use apc_bignum::Nat;
//! use cambricon_p::mpapca::Device;
//!
//! let device = Device::new_default();
//! let a = Nat::from(123_456_789u64);
//! let b = Nat::from(987_654_321u64);
//! let p = device.mul(&a, &b);
//! assert_eq!(p, &a * &b);
//! assert!(device.stats().cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod area;
mod cast;
pub mod bitserial;
pub mod bops;
pub mod config;
pub mod converter;
pub mod error;
pub mod gu;
pub mod invariants;
pub mod ipu;
pub mod mpapca;
pub mod pattern_cache;
pub mod pe;
pub mod stats;
pub mod transform;

pub use accelerator::KernelBackend;
pub use config::ArchConfig;
pub use error::ModelError;
pub use mpapca::Device;
pub use stats::DeviceStats;
