//! Sleep-polling traps: L7 must flag `thread::sleep` and timed waits
//! on serving paths.

use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// The classic poll loop: wakes on a timer instead of the event.
pub fn poll_for_work(rx: &Receiver<u64>) -> u64 {
    loop {
        if let Ok(job) = rx.try_recv() {
            return job;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Imported form is the same trap.
pub fn backoff() {
    use std::thread;
    thread::sleep(Duration::from_micros(50));
}

/// A condvar park with a timed fallback turns a lost wakeup into
/// latency instead of a failure: the same trap, one level down.
pub fn park_with_fallback(lock: &Mutex<bool>, wake: &Condvar) {
    let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = wake.wait_timeout(guard, Duration::from_millis(10));
}

/// Justified waits are allowed.
pub fn settle() {
    // apc-lint: allow(L7) -- hardware settle time mandated by the bring-up spec
    std::thread::sleep(Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    /// Tests may pace themselves with real sleeps.
    #[test]
    fn tests_are_exempt() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
