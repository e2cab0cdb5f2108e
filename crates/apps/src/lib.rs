//! # apc-apps — the paper's four APC application benchmarks
//!
//! - [`pi`] — *Pi*: N digits of π via the Chudnovsky algorithm with binary
//!   splitting (Algorithm 1);
//! - [`frac`] — *Frac*: Mandelbrot deep-zoom rendering with perturbation
//!   theory (high-precision reference orbit + f64 pixel deltas);
//! - [`zkcm`] — *zkcm*: quantum-circuit simulation with multiprecision
//!   complex matrices;
//! - [`rsa`] — *RSA*: key generation, encryption and decryption built on
//!   Montgomery exponentiation.
//!
//! Every workload is generic over a [`backend::Session`], which routes the
//! kernel operators (*Multiply, Add, Shift* — 87.2% of runtime in
//! Figure 2) either to the host software substrate (`apc-bignum`, timed
//! for real and costed with the Xeon model) or to the Cambricon-P device
//! model (`cambricon-p`, cycle-accounted). Running the same application on
//! both sessions regenerates the Figure 13 comparisons.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod backend;
pub mod complex;
pub mod frac;
pub mod pi;
pub mod rsa;
pub mod zkcm;

pub use backend::{Session, SessionReport};
