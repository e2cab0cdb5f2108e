//! # apc-sim — memory-hierarchy and roofline simulation
//!
//! The substrate behind the paper's bottleneck analysis (§II-C):
//!
//! - [`lru`] — an idealized fully-associative LRU cache, the exact model
//!   the paper says it uses ("we use an idealized LRU model to investigate
//!   the performance bottleneck");
//! - [`cache`] — a multi-level hierarchy (register file → L1 → L2 → L3 →
//!   DRAM) with per-level traffic and bandwidth-utilization accounting,
//!   configured to the AMD Zen3-like design of Figure 3(a);
//! - [`trace`] — the three workloads of Figure 3(b): random access, dense
//!   matrix multiplication, and APC multiplication (whose fine-grained
//!   decomposition floods the near-end hierarchy with intermediates);
//! - [`roofline`] — operational-intensity/attainable-performance curves
//!   for Figure 3(c) and Figure 12.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cache;
pub mod lru;
pub mod roofline;
pub mod trace;

pub use cache::{Hierarchy, LevelReport, LevelSpec, SimReport};
pub use roofline::{attained_gflops, RooflineSeries};
