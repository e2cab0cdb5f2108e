//! The typed job API: what tenants submit and what they get back.
//!
//! A [`Job`] is one arbitrary-precision operation over [`Nat`] operands —
//! exactly the high-traffic MPApca operators (multiply, divide, square
//! root, Montgomery exponentiation). A [`JobSpec`] attaches an optional
//! deadline; the terminal [`JobReport`]
//! carries the bit-exact result plus the observability record: queue
//! wait, attributed device service cycles, and the deadline outcome.

use crate::error::SubmitError;
use apc_bignum::Nat;
use cambricon_p::stats::OpClass;
use cambricon_p::Device;
use std::time::Duration;

/// One arbitrary-precision operation to run on the shared device pool.
#[derive(Debug, Clone)]
pub enum Job {
    /// Long multiplication `a × b`.
    Mul {
        /// Left operand.
        a: Nat,
        /// Right operand.
        b: Nat,
    },
    /// Division with remainder `a ÷ b`.
    Div {
        /// Dividend.
        a: Nat,
        /// Divisor (must be nonzero; checked at admission).
        b: Nat,
    },
    /// Integer square root with remainder.
    Sqrt {
        /// The radicand.
        a: Nat,
    },
    /// Modular exponentiation `base^exp mod modulus` by Montgomery
    /// reduction.
    ModExp {
        /// The base.
        base: Nat,
        /// The exponent.
        exp: Nat,
        /// The modulus (must be odd and ≥ 3; checked at admission).
        modulus: Nat,
    },
}

impl Job {
    /// The device statistics class this job's service cycles land in
    /// (mirrors how [`Device`] itself classifies the operators: `ModExp`
    /// cost rides on the multiply class, like `Device::pow_mod`).
    pub fn op_class(&self) -> OpClass {
        match self {
            Job::Mul { .. } => OpClass::Mul,
            Job::Div { .. } => OpClass::Div,
            Job::Sqrt { .. } => OpClass::Sqrt,
            Job::ModExp { .. } => OpClass::Mul,
        }
    }

    /// Short display name for reports and benches.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Job::Mul { .. } => "mul",
            Job::Div { .. } => "div",
            Job::Sqrt { .. } => "sqrt",
            Job::ModExp { .. } => "modexp",
        }
    }

    /// Widest operand in bits — the value the queue buckets by and
    /// checked against the admission ceiling.
    pub fn operand_bits(&self) -> u64 {
        match self {
            Job::Mul { a, b } | Job::Div { a, b } => a.bit_len().max(b.bit_len()),
            Job::Sqrt { a } => a.bit_len(),
            Job::ModExp { base, exp, modulus } => {
                base.bit_len().max(exp.bit_len()).max(modulus.bit_len())
            }
        }
    }

    /// Admission-time validation: operator preconditions that would
    /// otherwise panic inside the worker pool are rejected up front.
    pub(crate) fn validate(&self) -> Result<(), SubmitError> {
        match self {
            Job::Mul { .. } | Job::Sqrt { .. } => Ok(()),
            Job::Div { b, .. } => {
                if b.is_zero() {
                    Err(SubmitError::InvalidJob("division by zero"))
                } else {
                    Ok(())
                }
            }
            Job::ModExp { modulus, .. } => {
                if modulus.is_even() || modulus.to_u64().is_some_and(|m| m < 3) {
                    Err(SubmitError::InvalidJob("Montgomery modulus must be odd and >= 3"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Executes the job on one device handle. Results are bit-exact and
    /// independent of which device or thread ran it: the operators resolve through
    /// the `apc_bignum` oracle, and with the `parallel` feature compiled
    /// in, its deterministic fixed-order reduce keeps even the
    /// thread-dispatched sub-products identical to solo execution.
    pub(crate) fn run(&self, device: &Device) -> JobOutput {
        match self {
            Job::Mul { a, b } => JobOutput::Product(device.mul(a, b)),
            Job::Div { a, b } => {
                let (quotient, remainder) = device.divrem(a, b);
                JobOutput::DivRem { quotient, remainder }
            }
            Job::Sqrt { a } => {
                let (root, remainder) = device.sqrt_rem(a);
                JobOutput::SqrtRem { root, remainder }
            }
            Job::ModExp { base, exp, modulus } => {
                JobOutput::PowMod(device.pow_mod(base, exp, modulus))
            }
        }
    }
}

/// Service-level metadata attached to one submission.
#[derive(Debug, Clone, Default)]
pub struct JobSpec {
    /// Service-level objective measured from submission: the job should
    /// complete within this budget. Purely observational: scheduling is
    /// FIFO, and the report says whether the deadline was met.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A spec with a deadline set.
    pub fn with_deadline(deadline: Duration) -> JobSpec {
        JobSpec { deadline: Some(deadline) }
    }
}

/// Opaque identity of an accepted job, unique per service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw sequence number (submission order).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The bit-exact result of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutput {
    /// Result of [`Job::Mul`].
    Product(Nat),
    /// Result of [`Job::Div`].
    DivRem {
        /// The quotient.
        quotient: Nat,
        /// The remainder.
        remainder: Nat,
    },
    /// Result of [`Job::Sqrt`].
    SqrtRem {
        /// The integer square root.
        root: Nat,
        /// The remainder `a − root²`.
        remainder: Nat,
    },
    /// Result of [`Job::ModExp`].
    PowMod(Nat),
}

/// Whether a job's deadline was honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineOutcome {
    /// The job carried no deadline.
    None,
    /// Completed within the deadline.
    Met,
    /// Completed after the deadline had passed (jobs are still executed
    /// and reported — the SLO is observational, not a kill switch).
    Missed,
}

/// The single terminal report every accepted job receives.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Which job this report closes.
    pub id: JobId,
    /// The bit-exact result.
    pub output: JobOutput,
    /// Statistics class the service cycles were attributed to.
    pub op_class: OpClass,
    /// Bitwidth-bucket ceiling the job was scheduled under.
    pub bucket_bits: u64,
    /// Index of the device that executed it, among the service's
    /// devices. Workers and callers of `ServeHandle::submit_wait` take
    /// devices from one free list, so this names no thread.
    pub worker: usize,
    /// Time spent queued before a worker picked the job's batch up; zero
    /// when the job ran on its submitter's thread.
    pub queue_wait: Duration,
    /// Device cycles attributed to this job (snapshot/delta on the device
    /// it held alone while it ran, so concurrent tenants never blur each
    /// other).
    pub service_cycles: u64,
    /// The service cycles at the device clock, in seconds.
    pub service_seconds: f64,
    /// Deadline outcome (always [`DeadlineOutcome::None`] without one).
    pub deadline: DeadlineOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_bits_takes_the_widest() {
        let j = Job::Mul { a: Nat::power_of_two(100), b: Nat::power_of_two(700) };
        assert_eq!(j.operand_bits(), 701);
        let m = Job::ModExp {
            base: Nat::from(2u64),
            exp: Nat::from(10u64),
            modulus: Nat::power_of_two(2000) + Nat::one(),
        };
        assert_eq!(m.operand_bits(), 2001);
    }

    #[test]
    fn validation_rejects_impossible_jobs() {
        let div0 = Job::Div { a: Nat::one(), b: Nat::zero() };
        assert!(matches!(div0.validate(), Err(SubmitError::InvalidJob(_))));
        let even = Job::ModExp {
            base: Nat::from(2u64),
            exp: Nat::from(3u64),
            modulus: Nat::from(10u64),
        };
        assert!(matches!(even.validate(), Err(SubmitError::InvalidJob(_))));
        let tiny = Job::ModExp {
            base: Nat::from(2u64),
            exp: Nat::from(3u64),
            modulus: Nat::one(),
        };
        assert!(matches!(tiny.validate(), Err(SubmitError::InvalidJob(_))));
        let ok = Job::Mul { a: Nat::one(), b: Nat::zero() };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn run_matches_direct_device_execution() {
        let d = Device::new_default();
        let a = Nat::power_of_two(300) - Nat::from(17u64);
        let b = Nat::power_of_two(150) + Nat::from(3u64);
        assert_eq!(
            Job::Mul { a: a.clone(), b: b.clone() }.run(&d),
            JobOutput::Product(&a * &b)
        );
        let (q, r) = a.divrem(&b);
        assert_eq!(
            Job::Div { a: a.clone(), b: b.clone() }.run(&d),
            JobOutput::DivRem { quotient: q, remainder: r }
        );
    }
}
