//! Consistent-hash router over N `Device`-backed [`ServeHandle`] shards.
//!
//! BISMO (Umuroglu et al., PAPERS.md) scales bit-serial compute by
//! instantiating many independent overlay instances behind a
//! dispatcher; the software analogue is N serving instances behind one
//! admission point. The router hashes each job's **operand bucket**
//! onto a ring of virtual nodes: the ceiling from
//! [`apc_serve::operand_bucket`], the same bucket each shard's queue
//! batches by (a power of two, 64 bits and under sharing one). So:
//!
//! - capacity scales horizontally — every shard owns its own queue and
//!   worker devices;
//! - every job of one bucket lands on the same shard, whose queue
//!   batches them together;
//! - adding or removing a shard remaps only the ring arcs it owned,
//!   not the whole keyspace (the classic consistent-hashing property);
//! - a shard whose service has shut down is evicted from the ring at
//!   lookup time: its arcs fall through to the next live shard
//!   clockwise instead of black-holing jobs.
//!
//! The hash is FNV-1a over the bucket value with `replicas` virtual
//! points per shard — deterministic, zero-dependency, and stable across
//! runs, so a given bucket always routes identically.

use crate::NetBackend;
use apc_serve::{
    operand_bucket, Job, JobReport, JobSpec, ServeConfig, ServeError, ServeHandle, SubmitError,
};
use apc_trace::export::Metric;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit (paper-independent utility hash; stable across runs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Shard {
    handle: ServeHandle,
    routed: AtomicU64,
}

/// A consistent-hash front over N independent [`ServeHandle`] shards.
///
/// Cloneable is deliberately absent: the router owns its shards and is
/// shared by `Arc` where needed (the server wraps it so).
pub struct Router {
    shards: Vec<Shard>,
    /// Sorted (point, shard_index) ring of virtual nodes.
    ring: Vec<(u64, usize)>,
    max_operand_bits: u64,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
            .field("ring_points", &self.ring.len())
            .finish()
    }
}

impl Router {
    /// Default virtual nodes per shard. Enough to spread buckets evenly
    /// at small shard counts without making ring lookups measurable.
    pub const DEFAULT_REPLICAS: usize = 64;

    /// Starts `shards` independent service instances, each from a clone
    /// of `config`, with [`Self::DEFAULT_REPLICAS`] virtual nodes each.
    /// `shards` is clamped to at least 1.
    pub fn start(shards: usize, config: ServeConfig) -> Router {
        let handles = (0..shards.max(1)).map(|_| ServeHandle::start(config.clone())).collect();
        Router::from_handles(handles, Router::DEFAULT_REPLICAS)
    }

    /// Builds the ring over already-running shards. Callers that need
    /// per-shard configs (different arch, worker counts) start the
    /// handles themselves and hand them over here. Empty `handles` is
    /// rejected at the type level by the caller — here it would route
    /// nothing, so we hold the invariant with a runtime clamp in
    /// [`Router::start`] and document that `handles` must be non-empty.
    pub fn from_handles(handles: Vec<ServeHandle>, replicas: usize) -> Router {
        let max_operand_bits = handles
            .iter()
            .map(ServeHandle::max_operand_bits)
            .min()
            // No shards ⇒ nothing is admissible; 0 keeps that fail-closed.
            .unwrap_or(0);
        let mut ring = Vec::with_capacity(handles.len() * replicas.max(1));
        for (i, _) in handles.iter().enumerate() {
            for r in 0..replicas.max(1) {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&(i as u64).to_le_bytes());
                key[8..].copy_from_slice(&(r as u64).to_le_bytes());
                ring.push((fnv1a(&key), i));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|(point, _)| *point);
        let shards = handles
            .into_iter()
            .map(|handle| Shard { handle, routed: AtomicU64::new(0) })
            .collect();
        Router { shards, ring, max_operand_bits }
    }

    /// Number of shards behind the ring.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a job with these operand bits routes to: first
    /// ring point clockwise from the hashed [`operand_bucket`] ceiling
    /// whose shard is still serving.
    ///
    /// A shard whose `ServeHandle` has shut down is treated as evicted
    /// from the ring — its arcs fall through to the next live shard
    /// clockwise, so only the dead shard's own keyspace remaps (the
    /// consistent-hashing property extends to failure) and no job is
    /// black-holed into a queue nothing will ever drain.
    pub fn shard_for_bits(&self, operand_bits: u64) -> usize {
        let point = fnv1a(&operand_bucket(operand_bits).0.to_le_bytes());
        let start = match self.ring.binary_search_by_key(&point, |(p, _)| *p) {
            Ok(i) => i,
            // Wrap past the last point back to the first (the ring is
            // non-empty for any router built via start()).
            Err(i) if i >= self.ring.len() => 0,
            Err(i) => i,
        };
        for step in 0..self.ring.len() {
            let (_, idx) = self.ring[(start + step) % self.ring.len()];
            if self.shards.get(idx).is_some_and(|s| !s.handle.is_shutdown()) {
                return idx;
            }
        }
        // Every shard is down (or the ring is empty): fall back to the
        // raw mapping; submission surfaces the shutdown as a rejection.
        self.ring.get(start).map(|(_, s)| *s).unwrap_or(0)
    }

    /// Routes and submits, blocking for the terminal report.
    pub fn submit_wait(&self, job: Job, spec: JobSpec) -> Result<JobReport, ServeError> {
        let idx = self.shard_for_bits(job.operand_bits());
        match self.shards.get(idx) {
            Some(shard) => {
                shard.routed.fetch_add(1, Ordering::Relaxed);
                shard.handle.submit_wait(job, spec)
            }
            None => Err(ServeError::Rejected(SubmitError::Shutdown)),
        }
    }

    /// Per-shard `apc_net_shard_*` metric families (jobs routed and
    /// live queue occupancy, labelled by shard index).
    pub fn export_metrics(&self) -> Vec<Metric> {
        let mut out = Vec::with_capacity(self.shards.len() * 2);
        for (i, shard) in self.shards.iter().enumerate() {
            let label = i.to_string();
            out.push(
                Metric::counter(
                    "apc_net_shard_routed_total",
                    "Jobs routed to this shard",
                    shard.routed.load(Ordering::Relaxed),
                )
                .with_label("shard", &label),
            );
            out.push(
                Metric::gauge(
                    "apc_net_shard_queue_depth",
                    "Jobs queued on this shard awaiting dispatch",
                    shard.handle.queue_depth() as f64,
                )
                .with_label("shard", &label),
            );
        }
        out
    }

    /// Drains and joins every shard. Idempotent.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.handle.shutdown();
        }
    }
}

impl NetBackend for Router {
    fn submit_wait(&self, job: Job, spec: JobSpec) -> Result<JobReport, ServeError> {
        Router::submit_wait(self, job, spec)
    }

    fn max_operand_bits(&self) -> u64 {
        self.max_operand_bits
    }

    fn export_backend_metrics(&self) -> Vec<Metric> {
        self.export_metrics()
    }

    fn shutdown(&self) {
        Router::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_bucket_stable() {
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let router = Router::start(4, cfg);
        // Same bucket (65..=128 bits) always lands on the same shard.
        let s = router.shard_for_bits(65);
        for bits in [66, 100, 127, 128] {
            assert_eq!(router.shard_for_bits(bits), s, "bucket split at {bits} bits");
        }
        // Across many buckets, more than one shard is used.
        let used: std::collections::BTreeSet<usize> =
            (0..20).map(|i| router.shard_for_bits(64u64 << i)).collect();
        assert!(used.len() > 1, "ring degenerated to one shard: {used:?}");
        router.shutdown();
    }

    #[test]
    fn dead_shard_arcs_are_evicted_to_live_shards() {
        // A shard that shut down behind the router's back must stop
        // receiving routes (its arcs fall through clockwise), while
        // every bucket owned by a surviving shard stays put.
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let handles: Vec<ServeHandle> =
            (0..3).map(|_| ServeHandle::start(cfg.clone())).collect();
        let victim = handles[1].clone();
        let router = Router::from_handles(handles, Router::DEFAULT_REPLICAS);
        let before: Vec<usize> = (0..24).map(|i| router.shard_for_bits(64u64 << i)).collect();
        assert!(before.contains(&1), "sweep never hit the victim shard");
        victim.shutdown();
        for (i, &owner) in before.iter().enumerate() {
            let after = router.shard_for_bits(64u64 << i);
            if owner == 1 {
                assert_ne!(after, 1, "bucket 64<<{i} still routed to the dead shard");
            } else {
                assert_eq!(after, owner, "bucket 64<<{i} moved between live shards");
            }
        }
        router.shutdown();
    }

    #[test]
    fn removing_a_shard_only_remaps_its_own_arcs() {
        // Consistent-hashing property, checked structurally on the ring
        // (no running services needed): dropping shard 3 of 4 must not
        // move any bucket that shard 3 did not own.
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let four = Router::start(4, cfg.clone());
        let three = Router::start(3, cfg);
        let mut moved_from_live_shard = 0u32;
        for i in 0..40u64 {
            let bits = 64u64 << (i % 24);
            let before = four.shard_for_bits(bits);
            let after = three.shard_for_bits(bits);
            if before != 3 && before != after {
                moved_from_live_shard += 1;
            }
        }
        assert_eq!(moved_from_live_shard, 0, "keys moved between surviving shards");
        four.shutdown();
        three.shutdown();
    }
}
