//! Fixture network file: the clean side of L12 in the net layer — a
//! connection worker that uses Acquire/Release on its gate flag and
//! Relaxed only on statistics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;

/// Listener state shared with connection workers.
pub struct Listener {
    /// Shutdown gate — not a statistic, so Acquire/Release.
    draining: AtomicBool,
    /// Frames seen: a statistic counter, Relaxed is right.
    frames: AtomicU64,
}

impl Listener {
    /// Begins the drain; workers observe it at their next connection.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// One statistic tick.
    pub fn count_frame(&self) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Blocks on the channel — the event itself, never a timer. A
    /// disconnect or an observed drain gate ends the worker.
    pub fn worker_loop(&self, rx: &Receiver<u64>) -> u64 {
        let mut served = 0;
        while let Ok(conn) = rx.recv() {
            if self.draining.load(Ordering::Acquire) {
                return served;
            }
            served += conn;
        }
        served
    }
}
