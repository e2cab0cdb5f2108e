//! Tier-1 gate for the pattern-table cache (DESIGN.md §"Admission and
//! caching").
//!
//! Two contracts:
//!
//! 1. **Cache transparency** — repeated-operand workloads on the cached
//!    (Sliced64) engine must be bit-identical with the cache on and off:
//!    same products, same `DeviceStats` (cycles, stage attribution, bops,
//!    PE passes). The cache is host-side only, like the Sliced64 engine;
//!    it must never leak into the modeled machine.
//! 2. **Exact LRU replacement** — the 64-slot table evicts the least
//!    recently used operand, with exact hit/miss/insert/eviction counts;
//!    and hammering it from many threads with more distinct operands than
//!    its capacity must keep the resident set bounded, evict (not wedge),
//!    and never corrupt a result.
//!
//! The sharded admission queue's conservation test lives in
//! `tests/serve_gate.rs`.

use apc_bignum::Nat;
use cambricon_p::pattern_cache;
use cambricon_p::stats::DeviceStats;
use cambricon_p::Device;
use rand::{RngCore, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

/// Serializes the tests in this binary that toggle or inspect the
/// process-wide pattern cache, and restores the switch even if an
/// assertion fails.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

struct CacheGuard {
    _lock: MutexGuard<'static, ()>,
}

impl CacheGuard {
    fn set(on: bool) -> CacheGuard {
        let lock = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // Counters only record while tracing is on; pin it so hit/miss
        // assertions below are meaningful.
        apc_trace::set_enabled(true);
        pattern_cache::set_enabled(on);
        pattern_cache::clear();
        CacheGuard { _lock: lock }
    }
}

impl Drop for CacheGuard {
    fn drop(&mut self) {
        pattern_cache::set_enabled(true);
        pattern_cache::clear();
    }
}

fn random_nat(rng: &mut rand::rngs::StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    Nat::from_limbs(v)
}

/// A fixed-modulus-style workload: few distinct left operands, many
/// right operands — the shape the cache exists for. Returns everything
/// the device computed, values and accounting alike.
fn repeated_operand_workload(seed: u64) -> (Vec<Nat>, DeviceStats) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let device = Device::new_default();
    let moduli: Vec<Nat> = [900u64, 2_100, 3_300]
        .iter()
        .map(|&bits| random_nat(&mut rng, bits))
        .collect();
    let mut products = Vec::new();
    for round in 0..4u64 {
        for x in &moduli {
            let y = random_nat(&mut rng, 700 + round * 400);
            products.push(device.mul_structural(x, &y));
        }
    }
    (products, device.stats())
}

#[test]
fn cache_on_and_off_are_bit_identical() {
    let (cached_products, cached_stats, hits) = {
        let _guard = CacheGuard::set(true);
        let before = pattern_cache::counters();
        let (p, s) = repeated_operand_workload(0xCAFE);
        (p, s, pattern_cache::counters().hits - before.hits)
    };
    let (plain_products, plain_stats) = {
        let _guard = CacheGuard::set(false);
        repeated_operand_workload(0xCAFE)
    };
    assert_eq!(
        cached_products, plain_products,
        "products must not depend on the cache"
    );
    assert_eq!(
        cached_stats, plain_stats,
        "the modeled machine must not see the cache"
    );
    // The workload repeats 3 operands over 12 calls: at least the 9
    // non-cold lookups must have hit, or the cache did nothing.
    assert!(hits >= 9, "expected >= 9 hits, saw {hits}");
}

#[test]
fn cache_disabled_touches_no_shared_state() {
    let _guard = CacheGuard::set(false);
    let before = pattern_cache::counters();
    let (products, _) = repeated_operand_workload(0xD15);
    assert!(!products.is_empty());
    assert_eq!(
        pattern_cache::counters(),
        before,
        "disabled cache must record nothing"
    );
    assert_eq!(pattern_cache::len(), 0, "disabled cache must stay empty");
}

#[test]
fn eviction_takes_the_least_recently_used_operand() {
    let _guard = CacheGuard::set(true);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A0);
    let operands: Vec<Nat> = (0..65).map(|_| random_nat(&mut rng, 1024)).collect();
    // Fetches operand i and says whether that lookup hit.
    let fetch = |i: usize| {
        let hits = pattern_cache::counters().hits;
        drop(pattern_cache::fetch_or_build(&operands[i], 4, 32));
        pattern_cache::counters().hits > hits
    };
    let before = pattern_cache::counters();
    assert!((0..64).all(|i| !fetch(i)), "64 distinct operands all miss");
    assert_eq!(pattern_cache::len(), 64, "64 distinct operands fill the table");
    // Touch the first again: the second is now the least recently used,
    // so the 65th operand evicts it, and re-fetching it evicts the third.
    assert!(fetch(0), "the first operand is resident");
    assert!(!fetch(64), "the 65th operand is new");
    assert!(!fetch(1), "the second operand was the one evicted");
    assert!(fetch(0), "the first operand, touched before, is still resident");
    assert!(!fetch(2), "re-fetching the second evicted the third");
    let after = pattern_cache::counters();
    let delta = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.inserts - before.inserts,
        after.evictions - before.evictions,
    );
    // Hits: the two touches of the first operand. Misses and inserts: 64
    // cold fills, the 65th, the second and the third. Evictions: three.
    assert_eq!(delta, (2, 67, 67, 3), "(hits, misses, inserts, evictions)");
    assert_eq!(pattern_cache::len(), 64, "the resident set stays at capacity");
}

#[test]
fn concurrent_submitters_evict_without_corrupting_the_lru() {
    let _guard = CacheGuard::set(true);
    let before = pattern_cache::counters();
    let threads = 6u64;
    let per_thread = 30u64;
    thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xE71C + t);
                let device = Device::new_default();
                for _ in 0..per_thread {
                    // Every operand distinct: with capacity 64 and 180
                    // inserts, replacement must happen.
                    let a = random_nat(&mut rng, 600);
                    let b = random_nat(&mut rng, 500);
                    assert_eq!(device.mul_structural(&a, &b), &a * &b);
                }
            });
        }
    });
    let delta_evictions = pattern_cache::counters().evictions - before.evictions;
    // The bound below is the capacity contract.
    assert!(pattern_cache::len() <= 64, "resident set exceeded capacity");
    assert!(
        delta_evictions > 0,
        "180 distinct operands through a 64-entry cache must evict"
    );
}
