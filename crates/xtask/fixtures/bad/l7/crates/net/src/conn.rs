//! Sleep-polling traps on the network layer: L7 covers `crates/net`
//! library paths the same way it covers `crates/serve` — a connection
//! worker blocks in `accept` or in a plain socket read and is woken by
//! the drain shutting its read half, never by a timer or a read
//! timeout.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// Shutdown-polling by timer: the trap.
pub fn wait_for_drain(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Retry backoff between connect attempts is the same trap.
pub fn reconnect_backoff() {
    use std::thread;
    thread::sleep(Duration::from_millis(100));
}

/// Waiting on the accept channel against a deadline is a timed wait.
pub fn next_conn(rx: &Receiver<TcpStream>) -> Option<TcpStream> {
    rx.recv_timeout(Duration::from_millis(50)).ok()
}

/// A socket read timeout turns the drain into a poll: the same trap.
pub fn arm_drain_poll(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(50)))
}

/// Justified waits are allowed.
pub fn linger_before_close() {
    // apc-lint: allow(L7) -- deliberate FIN linger required by the peer's stack
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
