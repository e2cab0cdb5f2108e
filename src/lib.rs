//! Umbrella crate for the Cambricon-P reproduction workspace.
//!
//! Re-exports the member crates so examples and integration tests can use a
//! single dependency. See the individual crates for documentation:
//!
//! - [`apc_bignum`] — arbitrary-precision natural/integer/float arithmetic
//!   (the GMP-equivalent software substrate).
//! - [`cambricon_p`] — the bitflow architecture model and the MPApca runtime.
//! - [`apc_sim`] — cache-hierarchy and roofline simulation.
//! - [`apc_baselines`] — CPU/GPU/accelerator cost models.
//! - [`apc_apps`] — the four APC applications (Pi, Frac, zkcm, RSA).
//! - [`apc_serve`] — the batching job scheduler serving the device model
//!   to concurrent tenants.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use apc_apps;
pub use apc_baselines;
pub use apc_bignum;
pub use apc_serve;
pub use apc_sim;
pub use cambricon_p;
