//! Execution sessions: the same application code runs on the software
//! substrate or on the Cambricon-P device model.
//!
//! A [`Session`] wraps the kernel operators and accounts for them three
//! ways at once:
//!
//! 1. **host wall time** — real measured time of the `apc-bignum` kernels
//!    (the honest software baseline);
//! 2. **modeled Xeon time** — the same operator stream costed with the
//!    calibrated Xeon 6134 + GMP model from `apc-baselines` (the paper's
//!    absolute scale);
//! 3. **device cycles** — when the session wraps a [`Device`], MPApca's
//!    cycle model accumulates instead.

use apc_baselines::cpu as cpu_model;
use apc_bignum::{Int, Nat};
use apc_serve::{Job, JobOutput, JobSpec, ServeHandle};
use apc_trace::{HistogramSnapshot, Log2Histogram};
use cambricon_p::stats::OpClass;
use cambricon_p::Device;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Per-class tally slots, sized from the canonical class list.
const N_CLASSES: usize = OpClass::ALL.len();

/// Which engine executes the kernel operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Host software (`apc-bignum`), the CPU baseline.
    Software,
    /// The Cambricon-P device model (`cambricon-p`).
    CambriconP,
}

/// Per-class accounting for one session.
#[derive(Debug, Clone, Copy, Default)]
struct ClassTally {
    ops: u64,
    wall_seconds: f64,
    modeled_seconds: f64,
}

/// An execution session for the application benchmarks.
///
/// Accounting goes through a mutex (not a `RefCell`), so a session —
/// like the [`Device`] it may wrap — stays `Sync` and can serve
/// concurrent application threads.
#[derive(Debug)]
pub struct Session {
    kind: BackendKind,
    device: Option<Device>,
    serve: Option<ServeHandle>,
    tallies: Mutex<[ClassTally; N_CLASSES]>,
    // Instant-domain span over every kernel operator the session ran
    // (lock-free; recorded alongside the wall tally).
    kernel_ns: Log2Histogram,
}

/// Summary of a session's accumulated work.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Which backend ran.
    pub kind: BackendKind,
    /// Measured host seconds in kernel operators.
    pub wall_seconds: f64,
    /// Modeled Xeon 6134 seconds (software sessions).
    pub modeled_cpu_seconds: f64,
    /// Modeled device seconds (device sessions).
    pub device_seconds: f64,
    /// Modeled energy in joules (Xeon power for software, device power +
    /// LLC for Cambricon-P).
    pub energy_joules: f64,
    /// (class name, ops, modeled seconds) per operator class.
    pub by_class: Vec<(&'static str, u64, f64)>,
}

impl SessionReport {
    /// The headline seconds for this backend (modeled CPU vs device).
    pub fn seconds(&self) -> f64 {
        match self.kind {
            BackendKind::Software => self.modeled_cpu_seconds,
            BackendKind::CambriconP => self.device_seconds,
        }
    }

    /// Fraction of modeled time spent in a class (by display name).
    pub fn fraction(&self, name: &str) -> f64 {
        let total: f64 = self.by_class.iter().map(|(_, _, s)| s).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.by_class
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, s)| s)
            .sum::<f64>()
            / total
    }
}

impl Session {
    /// A software (CPU-baseline) session.
    pub fn software() -> Session {
        Session {
            kind: BackendKind::Software,
            device: None,
            serve: None,
            tallies: Mutex::new(Default::default()),
            kernel_ns: Log2Histogram::new(),
        }
    }

    /// A Cambricon-P session with the paper's default configuration.
    pub fn cambricon_p() -> Session {
        Session::with_device(Device::new_default())
    }

    /// A Cambricon-P session with a custom device.
    pub fn with_device(device: Device) -> Session {
        Session {
            kind: BackendKind::CambriconP,
            device: Some(device),
            serve: None,
            tallies: Mutex::new(Default::default()),
            kernel_ns: Log2Histogram::new(),
        }
    }

    /// A Cambricon-P session whose heavy kernels (multiply, divide, sqrt,
    /// modular exponentiation) are submitted to a shared `apc-serve`
    /// service instead of a private device. Light host-side operators
    /// (add/sub/shift, §V-C) and any job the service rejects — e.g.
    /// backpressure or shutdown — run on a local fallback device with the
    /// same architecture, so the session never fails and results stay
    /// bit-identical to direct execution.
    pub fn with_serve(serve: ServeHandle) -> Session {
        Session {
            kind: BackendKind::CambriconP,
            device: Some(Device::new(serve.arch().clone())),
            serve: Some(serve),
            tallies: Mutex::new(Default::default()),
            kernel_ns: Log2Histogram::new(),
        }
    }

    /// Which backend this session uses.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The wrapped device, if any.
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// The shared service handle, if this session submits through one.
    pub fn serve(&self) -> Option<&ServeHandle> {
        self.serve.as_ref()
    }

    /// Snapshot of the per-operator kernel wall-time span histogram
    /// (Instant domain, nanoseconds). Counts one entry per tallied
    /// operator, whichever engine executed it.
    pub fn kernel_latency(&self) -> HistogramSnapshot {
        self.kernel_ns.snapshot()
    }

    /// The one place lock poisoning on the tally mutex is handled: a
    /// poisoned lock only means another thread panicked mid-tally, and
    /// every tally transition is single-step, so the counters stay
    /// usable and the session keeps reporting.
    fn lock_tallies(&self) -> MutexGuard<'_, [ClassTally; N_CLASSES]> {
        self.tallies.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tally(&self, class: OpClass, wall: f64, modeled: f64) {
        let ns = wall * 1e9;
        self.kernel_ns
            .record(if ns.is_finite() && ns >= 0.0 { ns as u64 } else { 0 });
        let mut t = self.lock_tallies();
        #[expect(
            clippy::expect_used,
            reason = "OpClass::ALL enumerates every variant by construction"
        )]
        let idx = OpClass::ALL.iter().position(|&c| c == class).expect("known class");
        t[idx].ops += 1;
        t[idx].wall_seconds += wall;
        t[idx].modeled_seconds += modeled;
    }

    /// Submits a heavy kernel to the shared service, if one is attached.
    /// Returns `None` when there is no service or the job was rejected
    /// (backpressure, oversize, shutdown) — the caller then runs the
    /// operator on the local fallback device. Accepted jobs tally their
    /// measured wall time (submit to report, queueing included) and the
    /// service-attributed device seconds as the modeled time.
    fn offload(&self, job: Job) -> Option<JobOutput> {
        let serve = self.serve.as_ref()?;
        let t0 = Instant::now();
        let report = serve.submit_wait(job, JobSpec::default()).ok()?;
        let wall = t0.elapsed().as_secs_f64();
        self.tally(report.op_class, wall, report.service_seconds);
        Some(report.output)
    }

    /// Multiplication of naturals.
    pub fn mul(&self, a: &Nat, b: &Nat) -> Nat {
        if let Some(JobOutput::Product(r)) =
            self.offload(Job::Mul { a: a.clone(), b: b.clone() })
        {
            return r;
        }
        match &self.device {
            Some(d) => d.mul(a, b),
            None => {
                let t0 = Instant::now();
                let r = a * b;
                let wall = t0.elapsed().as_secs_f64();
                let modeled = cpu_model::mul_seconds(a.bit_len().max(b.bit_len()).max(64));
                self.tally(OpClass::Mul, wall, modeled);
                r
            }
        }
    }

    /// Addition of naturals.
    pub fn add(&self, a: &Nat, b: &Nat) -> Nat {
        match &self.device {
            Some(d) => d.add(a, b),
            None => {
                let t0 = Instant::now();
                let r = a + b;
                let wall = t0.elapsed().as_secs_f64();
                let modeled = cpu_model::linear_seconds(r.bit_len().max(64));
                self.tally(OpClass::AddSub, wall, modeled);
                r
            }
        }
    }

    /// Subtraction of naturals (panics on underflow, like `Nat`).
    pub fn sub(&self, a: &Nat, b: &Nat) -> Nat {
        match &self.device {
            Some(d) => d.sub(a, b),
            None => {
                let t0 = Instant::now();
                let r = a - b;
                let wall = t0.elapsed().as_secs_f64();
                let modeled = cpu_model::linear_seconds(a.bit_len().max(64));
                self.tally(OpClass::AddSub, wall, modeled);
                r
            }
        }
    }

    /// Left shift.
    pub fn shl(&self, a: &Nat, bits: u64) -> Nat {
        match &self.device {
            Some(d) => d.shl(a, bits),
            None => {
                let t0 = Instant::now();
                let r = a.shl_bits(bits);
                let wall = t0.elapsed().as_secs_f64();
                let modeled = cpu_model::linear_seconds(r.bit_len().max(64));
                self.tally(OpClass::Shift, wall, modeled);
                r
            }
        }
    }

    /// Right shift.
    pub fn shr(&self, a: &Nat, bits: u64) -> Nat {
        match &self.device {
            Some(d) => d.shr(a, bits),
            None => {
                let t0 = Instant::now();
                let r = a.shr_bits(bits);
                let wall = t0.elapsed().as_secs_f64();
                let modeled = cpu_model::linear_seconds(a.bit_len().max(64));
                self.tally(OpClass::Shift, wall, modeled);
                r
            }
        }
    }

    /// Division with remainder.
    pub fn divrem(&self, a: &Nat, b: &Nat) -> (Nat, Nat) {
        if let Some(JobOutput::DivRem { quotient, remainder }) =
            self.offload(Job::Div { a: a.clone(), b: b.clone() })
        {
            return (quotient, remainder);
        }
        match &self.device {
            Some(d) => d.divrem(a, b),
            None => {
                let t0 = Instant::now();
                let r = a.divrem(b);
                let wall = t0.elapsed().as_secs_f64();
                let modeled = cpu_model::div_seconds(a.bit_len().max(64), b.bit_len().max(64));
                self.tally(OpClass::Div, wall, modeled);
                r
            }
        }
    }

    /// Integer square root with remainder.
    pub fn sqrt_rem(&self, a: &Nat) -> (Nat, Nat) {
        if let Some(JobOutput::SqrtRem { root, remainder }) =
            self.offload(Job::Sqrt { a: a.clone() })
        {
            return (root, remainder);
        }
        match &self.device {
            Some(d) => d.sqrt_rem(a),
            None => {
                let t0 = Instant::now();
                let r = a.sqrt_rem();
                let wall = t0.elapsed().as_secs_f64();
                let modeled = cpu_model::sqrt_seconds(a.bit_len().max(64));
                self.tally(OpClass::Sqrt, wall, modeled);
                r
            }
        }
    }

    /// Modular exponentiation.
    pub fn pow_mod(&self, base: &Nat, exp: &Nat, modulus: &Nat) -> Nat {
        if let Some(JobOutput::PowMod(r)) = self.offload(Job::ModExp {
            base: base.clone(),
            exp: exp.clone(),
            modulus: modulus.clone(),
        }) {
            return r;
        }
        match &self.device {
            Some(d) => d.pow_mod(base, exp, modulus),
            None => {
                let t0 = Instant::now();
                let r = apc_bignum::nat::mont::pow_mod(base, exp, modulus);
                let wall = t0.elapsed().as_secs_f64();
                let n = modulus.bit_len().max(64);
                let e = exp.bit_len().max(1);
                let modeled =
                    (e as f64 + e as f64 / 4.0) * 2.0 * cpu_model::mul_seconds(n);
                self.tally(OpClass::Mul, wall, modeled);
                r
            }
        }
    }

    // -- signed helpers ("signs are managed from the host CPU with
    //    negligible overhead", §V-C) -------------------------------------

    /// Signed multiplication: sign on host, magnitude on the backend.
    pub fn mul_int(&self, a: &Int, b: &Int) -> Int {
        Int::from_sign_magnitude(
            a.is_negative() != b.is_negative(),
            self.mul(a.magnitude(), b.magnitude()),
        )
    }

    /// Signed addition via magnitude add/sub on the backend.
    pub fn add_int(&self, a: &Int, b: &Int) -> Int {
        if a.is_negative() == b.is_negative() {
            Int::from_sign_magnitude(a.is_negative(), self.add(a.magnitude(), b.magnitude()))
        } else if a.magnitude() >= b.magnitude() {
            Int::from_sign_magnitude(a.is_negative(), self.sub(a.magnitude(), b.magnitude()))
        } else {
            Int::from_sign_magnitude(b.is_negative(), self.sub(b.magnitude(), a.magnitude()))
        }
    }

    /// Signed subtraction.
    pub fn sub_int(&self, a: &Int, b: &Int) -> Int {
        self.add_int(a, &-b)
    }

    /// Produces the session report.
    pub fn report(&self) -> SessionReport {
        let tallies = self.lock_tallies();
        let mut by_class = Vec::new();
        let mut wall = 0.0;
        let mut modeled = 0.0;
        for (i, class) in OpClass::ALL.iter().enumerate() {
            by_class.push((class.name(), tallies[i].ops, tallies[i].modeled_seconds));
            wall += tallies[i].wall_seconds;
            modeled += tallies[i].modeled_seconds;
        }
        let (device_seconds, energy) = match &self.device {
            Some(d) => {
                let stats = d.stats();
                // Device sessions report the device's breakdown. Jobs a
                // serve-backed session offloaded live in the tallies (the
                // service attributes their cycles per job), so both views
                // merge here; for plain device sessions the tallies are
                // all zero and this is the device view alone.
                by_class = OpClass::ALL
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        (
                            c.name(),
                            stats.ops_for(c) + tallies[i].ops,
                            stats.cycles_for(c) as f64 * d.config().cycle_seconds()
                                + tallies[i].modeled_seconds,
                        )
                    })
                    .collect();
                // Offloaded work ran at the same device power (its LLC
                // share is attributed service-side, not per session).
                (
                    d.seconds() + modeled,
                    d.energy_joules() + modeled * d.config().power_w,
                )
            }
            None => (0.0, cpu_model::energy_joules(modeled)),
        };
        SessionReport {
            kind: self.kind,
            wall_seconds: wall,
            // For device sessions the tallies hold device-service seconds
            // (serve offloads), not Xeon-model seconds.
            modeled_cpu_seconds: if self.device.is_some() { 0.0 } else { modeled },
            device_seconds,
            energy_joules: energy,
            by_class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_and_device_agree_functionally() {
        let sw = Session::software();
        let hw = Session::cambricon_p();
        let a = Nat::power_of_two(2000) - Nat::from(99u64);
        let b = Nat::power_of_two(1999) + Nat::from(3u64);
        assert_eq!(sw.mul(&a, &b), hw.mul(&a, &b));
        assert_eq!(sw.add(&a, &b), hw.add(&a, &b));
        assert_eq!(sw.divrem(&a, &b), hw.divrem(&a, &b));
        assert_eq!(sw.sqrt_rem(&a), hw.sqrt_rem(&a));
    }

    #[test]
    fn signed_helpers_match_int_ops() {
        let s = Session::software();
        let a = Int::from(-12345i64);
        let b = Int::from(678i64);
        assert_eq!(s.mul_int(&a, &b), &a * &b);
        assert_eq!(s.add_int(&a, &b), &a + &b);
        assert_eq!(s.sub_int(&a, &b), &a - &b);
        assert_eq!(s.add_int(&b, &a), &b + &a);
    }

    #[test]
    fn reports_accumulate() {
        let s = Session::software();
        let a = Nat::power_of_two(10_000);
        let _ = s.mul(&a, &a);
        let _ = s.add(&a, &a);
        let r = s.report();
        assert!(r.modeled_cpu_seconds > 0.0);
        assert!(r.energy_joules > 0.0);
        let mul_entry = r.by_class.iter().find(|(n, _, _)| *n == "Multiply").unwrap();
        assert_eq!(mul_entry.1, 1);
        assert!(r.fraction("Multiply") > 0.5);
    }

    #[test]
    fn device_report_uses_device_time() {
        let s = Session::cambricon_p();
        let a = Nat::power_of_two(10_000);
        let _ = s.mul(&a, &a);
        let r = s.report();
        assert!(r.device_seconds > 0.0);
        assert_eq!(r.seconds(), r.device_seconds);
        assert!(r.energy_joules > 0.0);
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn poisoned_tally_lock_still_reports() {
        // Satellite: lock_tallies() recovers from poisoning, so a panic
        // in one application thread cannot silence the session's report.
        let s = Session::software();
        let a = Nat::power_of_two(1000);
        let _ = s.mul(&a, &a);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = s.tallies.lock().expect("not yet poisoned");
                    panic!("poison the tally lock on purpose");
                })
                .join()
        });
        assert!(poisoner.is_err(), "the poisoning thread must have panicked");
        assert!(s.tallies.is_poisoned(), "lock must actually be poisoned");
        let _ = s.add(&a, &a); // tallying keeps working...
        let r = s.report(); // ...and so does reporting
        let mul_entry = r.by_class.iter().find(|(n, _, _)| *n == "Multiply").unwrap();
        assert_eq!(mul_entry.1, 1);
        let add_entry = r.by_class.iter().find(|(n, _, _)| *n == "Add/Sub").unwrap();
        assert_eq!(add_entry.1, 1);
    }

    #[test]
    fn sub_microsecond_kernels_do_not_vanish_from_wall_totals() {
        // Satellite: wall accumulation is f64 seconds, not an integer
        // Duration unit, so hundreds of sub-microsecond kernels must leave
        // a nonzero (and plausibly-sized) wall total.
        let s = Session::software();
        let a = Nat::from(0xDEADu64);
        let b = Nat::from(0xBEEFu64);
        let n = 512;
        for _ in 0..n {
            let _ = s.add(&a, &b);
        }
        let r = s.report();
        assert!(
            r.wall_seconds > 0.0,
            "512 tiny kernels truncated to zero wall seconds"
        );
        assert!(r.wall_seconds < 1.0, "tiny adds cannot take a second");
        let add_entry = r.by_class.iter().find(|(n, _, _)| *n == "Add/Sub").unwrap();
        assert_eq!(add_entry.1, n);
    }

    #[test]
    fn serve_backed_session_matches_software_and_attributes_service_time() {
        let serve = apc_serve::ServeHandle::start(apc_serve::ServeConfig::default());
        let sw = Session::software();
        let s = Session::with_serve(serve.clone());
        assert_eq!(s.kind(), BackendKind::CambriconP);
        let a = Nat::power_of_two(3000) - Nat::from(17u64);
        let b = Nat::power_of_two(2999) + Nat::from(5u64);
        assert_eq!(s.mul(&a, &b), sw.mul(&a, &b));
        assert_eq!(s.divrem(&a, &b), sw.divrem(&a, &b));
        assert_eq!(s.sqrt_rem(&a), sw.sqrt_rem(&a));
        assert_eq!(s.add(&a, &b), sw.add(&a, &b)); // local host-side op
        let r = s.report();
        assert!(r.device_seconds > 0.0, "offloaded kernels must cost device time");
        assert!(r.wall_seconds > 0.0);
        let mul_entry = r.by_class.iter().find(|(n, _, _)| *n == "Multiply").unwrap();
        assert_eq!(mul_entry.1, 1);
        assert_eq!(serve.metrics().completed, 3, "three kernels offloaded");
        serve.shutdown();
    }

    #[test]
    fn serve_rejection_falls_back_to_the_local_device() {
        let serve = apc_serve::ServeHandle::start(apc_serve::ServeConfig::default());
        let s = Session::with_serve(serve.clone());
        serve.shutdown(); // every future submit is rejected with Shutdown
        let a = Nat::power_of_two(2000) - Nat::from(7u64);
        let direct = Session::cambricon_p();
        assert_eq!(s.mul(&a, &a), direct.mul(&a, &a));
        assert_eq!(serve.metrics().completed, 0);
        let r = s.report();
        assert!(
            r.device_seconds > 0.0,
            "fallback work must be accounted on the local device"
        );
    }

    #[test]
    fn kernel_latency_counts_one_span_per_tallied_operator() {
        let s = Session::software();
        let a = Nat::power_of_two(512) - Nat::one();
        let b = Nat::from(12345u64);
        let _ = s.mul(&a, &b);
        let _ = s.divrem(&a, &b);
        let _ = s.add(&a, &b);
        let h = s.kernel_latency();
        let ops: u64 = s.report().by_class.iter().map(|(_, n, _)| n).sum();
        assert_eq!(h.count, ops, "one span per tallied operator");
        assert!(h.count >= 3);
    }

    #[test]
    fn device_session_is_faster_than_modeled_cpu() {
        let sw = Session::software();
        let hw = Session::cambricon_p();
        let a = Nat::power_of_two(30_000) - Nat::one();
        let _ = sw.mul(&a, &a);
        let _ = hw.mul(&a, &a);
        let speedup = sw.report().seconds() / hw.report().seconds();
        assert!(speedup > 10.0, "expected large speedup, got {speedup}");
    }
}
