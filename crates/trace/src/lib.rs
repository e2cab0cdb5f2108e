//! # apc-trace — the workspace observability layer
//!
//! Lightweight spans and log2-bucketed histograms for the Cambricon-P
//! reproduction, in the spirit of the per-stage hardware counters that
//! make bit-serial overlays tunable (BISMO's instrumentation argument):
//! you cannot balance a Converter → IPU → GU → Adder-Tree pipeline, or a
//! submit → queue → batch → dispatch job path, without seeing where the
//! cycles and the wall time actually go.
//!
//! Design constraints, in order:
//!
//! 1. **Zero perturbation.** Recording is relaxed-atomic and lock-free;
//!    nothing here may ever change a computed result or a modeled cycle
//!    count. The tier-1 gate `tests/trace_gate.rs` proves results are
//!    bit-identical with tracing on and off.
//! 2. **Two time domains, never mixed.** The device model (`crates/core`)
//!    records **cycles** — it has no wall clock, by design. The serving
//!    layer (`crates/serve`) records **`Instant`-derived nanoseconds**.
//!    A [`Log2Histogram`] is domain-agnostic (it buckets plain `u64`s);
//!    the *field name* at the recording site carries the unit
//!    (`..._cycles` vs `..._ns`).
//! 3. **Plain-struct snapshots.** Live recorders ([`Log2Histogram`]) are
//!    atomic; everything handed to callers ([`HistogramSnapshot`],
//!    [`export::Metric`]) is a plain value that can be compared, stored,
//!    and serialized.
//!
//! Two exporters render the same [`export::Metric`] list:
//! [`export::to_prometheus`] (text exposition format) and
//! [`export::to_json`]. Because both consume one list, they can never
//! disagree with each other — and `tests/trace_gate.rs` checks both
//! against the raw counters.
//!
//! Tracing is globally on by default; [`set_enabled`] turns all span and
//! histogram *recording* off (counters owned by other crates are not
//! affected — only the observability extras gate on it).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod export;
pub mod histogram;
pub mod span;

pub use histogram::{HistogramSnapshot, Log2Histogram, BUCKET_COUNT};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};

/// Global recording switch (on by default).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns span/histogram recording on or off, process-wide.
///
/// Disabling does not clear anything already recorded; it only stops new
/// samples. The switch exists so the zero-perturbation contract is
/// *testable*: run the same workload with tracing on and off and compare
/// results bit for bit.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span/histogram recording is currently enabled.
pub fn enabled() -> bool {
    // Acquire pairs with the SeqCst (≥ Release) store in `set_enabled`:
    // a recorder that sees the gate open also sees any state the enabling
    // thread set up beforehand. Relaxed here would let it act on the flag
    // while missing those writes (apc-lint L12).
    ENABLED.load(Ordering::Acquire)
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that toggle or depend on the global recording
    /// flag, so a test running with tracing disabled cannot race a test
    /// that expects its samples to land.
    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    /// Takes the flag lock (poison-recovering: a failed sibling test must
    /// not cascade).
    pub fn flag_guard() -> MutexGuard<'static, ()> {
        FLAG_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_defaults_to_on() {
        let _guard = testutil::flag_guard();
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }
}
