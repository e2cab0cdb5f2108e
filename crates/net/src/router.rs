//! Least-loaded router over N `Device`-backed [`ServeHandle`] shards.
//!
//! BISMO (Umuroglu et al., PAPERS.md) scales bit-serial compute by
//! instantiating many independent overlay instances behind a
//! dispatcher that keeps every instance busy; the software analogue is
//! N serving instances behind one admission point. Each shard owns its
//! own queue, devices and workers, so capacity scales horizontally.
//!
//! [`Router::submit_wait`] sends each job to the live shard with the
//! fewest jobs in flight: routed by this router and not yet returned.
//! The slot is taken with a compare-and-swap on that count, so two
//! callers that both see an idle shard cannot both take it, and a drop
//! guard gives it back, also while a panic unwinds. With no more
//! concurrent callers than shards, every job finds a shard with nothing
//! in flight, and so a free device: it runs on the caller's thread
//! (see [`ServeHandle::submit_wait`]) and nothing is ever staged.
//!
//! Ties go to the job's **ring owner**: the router hashes the job's
//! operand bucket (the ceiling from [`apc_serve::operand_bucket`], the
//! same bucket each shard's queue batches by) onto an FNV-1a ring of
//! virtual nodes, and scans the shards in index order from the owner.
//! An idle router therefore sends every job of one bucket to the same
//! shard, [`Router::shard_for_bits`]. The ring keeps the classic
//! consistent-hashing properties for that idle preference: adding or
//! removing a shard remaps only the arcs it owned, and a shard whose
//! service has shut down is evicted at lookup time.
//!
//! The hash is FNV-1a over the bucket value with `replicas` virtual
//! points per shard — deterministic, zero-dependency, and stable across
//! runs.

use crate::NetBackend;
use apc_serve::{
    operand_bucket, ConfigError, Job, JobReport, JobSpec, ServeConfig, ServeError, ServeHandle,
    SubmitError,
};
use apc_trace::export::Metric;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    /// Jobs this router routed here that have not returned yet.
    in_flight: AtomicUsize,
}

/// One job's slot in a shard's in-flight count. Dropping it gives the
/// slot back, also while a panic unwinds, so a caller that unwinds
/// never leaves its shard looking busy.
struct InFlight<'r> {
    shards: &'r [Shard],
    index: usize,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Release: whoever takes the slot next also sees everything the
        // job did on the shard, its device going back to the free list
        // included.
        self.shards[self.index].in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// Why [`Router::start`] cannot build a working router: a degenerate
/// request is a typed error, not a silently clamped value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// `shards` was 0: the router would have no shard and reject every
    /// job.
    ZeroShards,
    /// The shards' [`ServeConfig`] is degenerate (see
    /// [`ServeHandle::try_start`]).
    Config(ConfigError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::ZeroShards => write!(f, "shards must be at least 1"),
            RouterError::Config(e) => write!(f, "shard config: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// A least-loaded front over N independent [`ServeHandle`] shards.
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
    /// Zero shards and a config that [`ServeHandle::try_start`] refuses
    /// are [`RouterError`]s; the config is checked before any shard
    /// starts.
    pub fn start(shards: usize, config: ServeConfig) -> Result<Router, RouterError> {
        if shards == 0 {
            return Err(RouterError::ZeroShards);
        }
        // Every shard gets the same config, so only the first can fail.
        let handles = (0..shards)
            .map(|_| ServeHandle::try_start(config.clone()))
            .collect::<Result<_, _>>()
            .map_err(RouterError::Config)?;
        Ok(Router::from_handles(handles, Router::DEFAULT_REPLICAS))
    }

    /// Builds the ring over already-running shards. Callers that need
    /// per-shard configs (different arch, worker counts) start the
    /// handles themselves and hand them over here. With empty `handles`
    /// nothing is admissible: every job is rejected with
    /// [`SubmitError::Shutdown`].
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
            .map(|handle| Shard {
                handle,
                routed: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
            })
            .collect();
        Router { shards, ring, max_operand_bits }
    }

    /// Number of shards behind the ring.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The first ring point clockwise from the hashed [`operand_bucket`]
    /// ceiling of `operand_bits`, or `None` when the ring is empty.
    fn ring_start(&self, operand_bits: u64) -> Option<usize> {
        let point = fnv1a(&operand_bucket(operand_bits).0.to_le_bytes());
        let (Ok(i) | Err(i)) = self.ring.binary_search_by_key(&point, |(p, _)| *p);
        // Past the last point wraps to the first; an empty ring has none.
        i.checked_rem(self.ring.len())
    }

    /// The ring owner of a job with these operand bits: the shard an
    /// idle router sends it to. That is the first ring point clockwise
    /// from the hashed [`operand_bucket`] ceiling whose shard is still
    /// serving; a busy owner's jobs go to the least-loaded live shard
    /// instead (see [`Router::submit_wait`]).
    ///
    /// A shard whose `ServeHandle` has shut down is treated as evicted
    /// from the ring — its arcs fall through to the next live shard
    /// clockwise, so only the dead shard's own keyspace remaps (the
    /// consistent-hashing property extends to failure) and no job is
    /// black-holed into a queue nothing will ever drain.
    pub fn shard_for_bits(&self, operand_bits: u64) -> usize {
        let Some(start) = self.ring_start(operand_bits) else { return 0 };
        for step in 0..self.ring.len() {
            let (_, idx) = self.ring[(start + step) % self.ring.len()];
            if self.shards.get(idx).is_some_and(|s| !s.handle.is_shutdown()) {
                return idx;
            }
        }
        // Every shard is down: fall back to the raw mapping.
        self.ring[start].1
    }

    /// Takes an in-flight slot on the live shard with the fewest jobs
    /// in flight, scanning in index order from the raw ring owner so
    /// that ties go to it. `None` when no shard is live.
    ///
    /// Only the shard about to be returned has its shutdown flag read
    /// (which takes its queue lock); a dead one is excluded and the
    /// choice made again.
    fn claim(&self, operand_bits: u64) -> Option<InFlight<'_>> {
        let owner = self.ring[self.ring_start(operand_bits)?].1;
        let n = self.shards.len();
        // Allocates only once a dead shard turns up.
        let mut dead: Vec<usize> = Vec::new();
        loop {
            let (index, load) = (0..n)
                .map(|k| (owner + k) % n)
                .filter(|i| !dead.contains(i))
                // A stale count costs at most a failed swap below.
                .map(|i| (i, self.shards[i].in_flight.load(Ordering::Relaxed)))
                // The first of equal minima: the owner, then index order.
                .min_by_key(|&(_, load)| load)?;
            let shard = &self.shards[index];
            // Acquire pairs with the Release in `InFlight::drop`.
            if shard
                .in_flight
                .compare_exchange(load, load + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let slot = InFlight { shards: &self.shards, index };
            if !shard.handle.is_shutdown() {
                return Some(slot);
            }
            drop(slot);
            dead.push(index);
        }
    }

    /// Routes to the least-loaded live shard and submits, blocking for
    /// the terminal report. With no live shard the job is rejected with
    /// [`SubmitError::Shutdown`].
    pub fn submit_wait(&self, job: Job, spec: JobSpec) -> Result<JobReport, ServeError> {
        let slot =
            self.claim(job.operand_bits()).ok_or(ServeError::Rejected(SubmitError::Shutdown))?;
        let shard = &self.shards[slot.index];
        shard.routed.fetch_add(1, Ordering::Relaxed);
        shard.handle.submit_wait(job, spec)
    }

    /// Per-shard metric families, labelled by shard index: jobs routed,
    /// jobs in flight (the routing signal) and live queue occupancy
    /// (`apc_net_shard_*`), and the shard service's completed jobs and
    /// the share of them that ran on the submitting connection worker's
    /// thread (the service's own `apc_serve_*` families of those names).
    pub fn export_metrics(&self) -> Vec<Metric> {
        const SERVE_FAMILIES: [&str; 2] =
            ["apc_serve_jobs_completed_total", "apc_serve_inline_jobs_total"];
        let mut out = Vec::with_capacity(self.shards.len() * (3 + SERVE_FAMILIES.len()));
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
                    "apc_net_shard_in_flight",
                    "Jobs routed to this shard and not yet returned",
                    shard.in_flight.load(Ordering::Relaxed) as f64,
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
            out.extend(
                shard
                    .handle
                    .metrics()
                    .export_metrics()
                    .into_iter()
                    .filter(|m| SERVE_FAMILIES.contains(&m.name.as_str()))
                    .map(|m| m.with_label("shard", &label)),
            );
        }
        // The text format wants each family's samples together, under
        // one HELP/TYPE header; the stable sort keeps shard order.
        out.sort_by(|a, b| a.name.cmp(&b.name));
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

    /// The ring owner, which an idle router routes to, is one shard per
    /// bucket, and different buckets use different shards.
    #[test]
    fn routing_is_deterministic_and_bucket_stable() {
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let router = Router::start(4, cfg).expect("valid router");
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
    fn export_shows_which_path_served_each_shard_s_jobs() {
        let router = Router::start(2, ServeConfig { workers: 1, ..ServeConfig::default() })
            .expect("valid router");
        let a = apc_bignum::Nat::from(0xFFFF_0001u64);
        let shard = router.shard_for_bits(a.bit_len());
        // A serial caller always finds its shard idle, so its job runs
        // on the caller's thread.
        router
            .submit_wait(Job::Mul { a: a.clone(), b: a }, JobSpec::default())
            .expect("accepted and completed");
        let text = apc_trace::export::to_prometheus(&router.export_metrics());
        for family in [
            "apc_net_shard_routed_total",
            "apc_net_shard_in_flight",
            "apc_net_shard_queue_depth",
            "apc_serve_jobs_completed_total",
            "apc_serve_inline_jobs_total",
        ] {
            let header = format!("# TYPE {family} ");
            assert_eq!(text.matches(&header).count(), 1, "one header per family: {text}");
        }
        for family in ["apc_serve_jobs_completed_total", "apc_serve_inline_jobs_total"] {
            assert!(text.contains(&format!("{family}{{shard=\"{shard}\"}} 1")), "{text}");
            let other = 1 - shard;
            assert!(text.contains(&format!("{family}{{shard=\"{other}\"}} 0")), "{text}");
        }
        // The job has returned, so no shard counts it in flight any more.
        for s in [shard, 1 - shard] {
            let idle = format!("apc_net_shard_in_flight{{shard=\"{s}\"}} 0");
            assert!(text.contains(&idle), "{text}");
        }
        router.shutdown();
    }

    /// A dead shard stops being any bucket's ring owner, the shard an
    /// idle router prefers, and live owners keep their buckets.
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
    fn start_refuses_zero_shards_and_a_degenerate_config() {
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        assert_eq!(Router::start(0, cfg.clone()).err(), Some(RouterError::ZeroShards));
        let err = Router::start(2, ServeConfig { workers: 0, ..cfg }).err();
        assert_eq!(err, Some(RouterError::Config(ConfigError::ZeroWorkers)));
        assert_eq!(RouterError::ZeroShards.to_string(), "shards must be at least 1");
    }

    /// Removing a shard moves the idle preference only for the buckets
    /// whose ring owner it was.
    #[test]
    fn removing_a_shard_only_remaps_its_own_arcs() {
        // Consistent-hashing property, checked structurally on the ring
        // (no running services needed): dropping shard 3 of 4 must not
        // move any bucket that shard 3 did not own.
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let four = Router::start(4, cfg.clone()).expect("valid router");
        let three = Router::start(3, cfg).expect("valid router");
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

    /// Sets each shard's in-flight count, then returns the shard the
    /// router picks for a job of `bits`, giving its slot back.
    fn pick(router: &Router, loads: &[usize], bits: u64) -> Option<usize> {
        for (shard, &load) in router.shards.iter().zip(loads) {
            shard.in_flight.store(load, Ordering::Relaxed);
        }
        let slot = router.claim(bits)?;
        let taken = router.shards[slot.index].in_flight.load(Ordering::Relaxed);
        assert_eq!(taken, loads[slot.index] + 1, "the claim took exactly one slot");
        Some(slot.index)
    }

    #[test]
    fn jobs_go_to_the_least_loaded_live_shard_with_ties_to_the_ring_owner() {
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let handles: Vec<ServeHandle> =
            (0..4).map(|_| ServeHandle::start(cfg.clone())).collect();
        let router = Router::from_handles(handles.clone(), Router::DEFAULT_REPLICAS);
        let bits = 2048;
        let owner = router.shard_for_bits(bits);

        // Idle: the ring owner.
        assert_eq!(pick(&router, &[0; 4], bits), Some(owner));
        // Equal load everywhere is still a tie the owner wins.
        assert_eq!(pick(&router, &[3; 4], bits), Some(owner));

        // A busy owner: the least-loaded other shard.
        let mut loads = [2; 4];
        loads[owner] = 5;
        let least = (owner + 2) % 4;
        loads[least] = 1;
        assert_eq!(pick(&router, &loads, bits), Some(least));

        // A shut-down shard is never picked, even when it alone is idle.
        let victim = (owner + 1) % 4;
        handles[victim].shutdown();
        let mut loads = [1; 4];
        loads[victim] = 0;
        assert_eq!(pick(&router, &loads, bits), Some(owner));
        // The excluded shard's slot was given back.
        assert_eq!(router.shards[victim].in_flight.load(Ordering::Relaxed), 0);
        // Every shard down: nothing to pick.
        router.shutdown();
        assert_eq!(pick(&router, &[0; 4], bits), None);

        // No shards at all: a rejection, not a division by zero.
        let empty = Router::from_handles(vec![], Router::DEFAULT_REPLICAS);
        let one = apc_bignum::Nat::from(3u64);
        assert_eq!(
            empty.submit_wait(Job::Mul { a: one.clone(), b: one }, JobSpec::default()).err(),
            Some(ServeError::Rejected(SubmitError::Shutdown))
        );
        assert_eq!(empty.shard_for_bits(bits), 0);
    }
}
