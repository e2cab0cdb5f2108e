//! Error types for the serving layer.
//!
//! Admission control is explicit: a submission is either accepted (and
//! will receive exactly one terminal [`crate::job::JobReport`]) or
//! rejected with a [`SubmitError`] saying why. The service never panics
//! on a malformed or oversized request and never silently drops a job.

use crate::queue::MIN_BUCKET_BITS;
use std::fmt;

/// Why a job was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Every device is out and the bounded FIFO of waiting callers is at
    /// capacity — backpressure; retry later or shed load.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The service is shutting down (or already shut down) and accepts no
    /// new work.
    Shutdown,
    /// An operand exceeds the configured admission ceiling.
    OversizedOperand {
        /// Widest operand of the rejected job, in bits.
        bits: u64,
        /// The configured ceiling, in bits.
        max_bits: u64,
    },
    /// The job can never execute (division by zero, or a Montgomery
    /// modulus that is even or < 3). Rejected at admission so no device
    /// ever runs a panicking operator.
    InvalidJob(&'static str),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::Shutdown => write!(f, "service is shut down"),
            SubmitError::OversizedOperand { bits, max_bits } => {
                write!(f, "operand of {bits} bits exceeds the {max_bits}-bit admission ceiling")
            }
            SubmitError::InvalidJob(reason) => write!(f, "invalid job: {reason}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a [`crate::ServeConfig`] cannot produce a working service.
///
/// Returned by [`crate::ServeHandle::try_start`]: a degenerate
/// configuration is a typed construction error, not a silently clamped
/// value or a queue that admits nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `queue_capacity` was 0 — every caller that finds no free device
    /// would be rejected with [`SubmitError::QueueFull`].
    ZeroCapacity,
    /// `workers` was 0 — the service would have no device, and every
    /// admitted caller would wait forever.
    ZeroWorkers,
    /// `max_operand_bits` is below the 64-bit smallest bucket, so no
    /// bucket spans the range.
    MaxOperandBitsBelowFloor {
        /// The configured admission ceiling.
        max_operand_bits: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCapacity => {
                write!(f, "queue_capacity must be at least 1")
            }
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::MaxOperandBitsBelowFloor { max_operand_bits } => {
                write!(
                    f,
                    "max_operand_bits ({max_operand_bits}) is below the {MIN_BUCKET_BITS}-bit smallest bucket"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Failure of a blocking wait on a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The job was rejected at admission (see the inner [`SubmitError`]).
    Rejected(SubmitError),
    /// The job panicked while it ran, so it has no report (its device
    /// was handed on all the same).
    WorkerLost,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(e) => write!(f, "rejected: {e}"),
            ServeError::WorkerLost => write!(f, "the job panicked before reporting"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SubmitError> for ServeError {
    fn from(e: SubmitError) -> ServeError {
        ServeError::Rejected(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let full = SubmitError::QueueFull { capacity: 8 }.to_string();
        assert!(full.contains('8'), "{full}");
        let big = SubmitError::OversizedOperand { bits: 100, max_bits: 64 }.to_string();
        assert!(big.contains("100") && big.contains("64"), "{big}");
        assert!(SubmitError::Shutdown.to_string().contains("shut down"));
        let wrapped = ServeError::from(SubmitError::Shutdown).to_string();
        assert!(wrapped.contains("rejected"), "{wrapped}");
    }

    #[test]
    fn config_errors_render_their_context() {
        assert!(ConfigError::ZeroCapacity.to_string().contains("queue_capacity"));
        assert!(ConfigError::ZeroWorkers.to_string().contains("workers"));
        let low = ConfigError::MaxOperandBitsBelowFloor { max_operand_bits: 32 }.to_string();
        assert!(low.contains("max_operand_bits (32)") && low.contains("64-bit"), "{low}");
    }
}
