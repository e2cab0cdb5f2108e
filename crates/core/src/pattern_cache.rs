//! Operand-keyed BIPS pattern-table cache (Fig. 8, §IV-A data reuse
//! carried across invocations).
//!
//! The Converter's 2^q subset-sum table (Fig. 8) is a function of one
//! operand only — never of the index operand y — so a caller that
//! multiplies by the same x repeatedly (a fixed RSA modulus, a shared
//! zkcm base) regenerates identical tables on every call. This module
//! memoizes them in 64 slots under an operand digest, with exact LRU
//! replacement (the smallest use stamp goes). An entry is one flat
//! [`PatternTables`]: the blocks' pattern words and generation bops and
//! their gather prefix, so a hit skips the prefix too, and a miss builds
//! it in one pass with no allocation per block. The digest mixes a word
//! at a time; every hit still compares the stored operand and (q, L) in
//! full, so a collision costs a rebuild, never a wrong table.
//!
//! It serves only the Sliced64 engine; the Scalar engine is the §IV-B
//! oracle and always regenerates. (q, L) in the key decides the engine.
//!
//! **The cache is host-side only.** Like the Sliced64 engine, it changes
//! which host instructions run, never the modeled machine: every executed
//! PE pass still charges the full Fig. 9b pattern-generation bops to its
//! tally (the hardware Converter streams on every pass), so cached and
//! uncached runs are bit-identical in results, cycles, [`crate::stats::
//! StageCycles`] and [`crate::bops::BopsTally`] — enforced by the tier-1
//! `tests/cache_gate.rs`.
//!
//! The cache starts enabled; [`set_enabled`] flips it at runtime (tests
//! compare both states in one process).
//! Hit/miss/insert/eviction counters are recorded only while
//! `apc_trace::enabled()` is set — the observability layer's
//! zero-perturbation contract extends to the cache: with tracing off the
//! hot path performs no shared-cacheline writes.

use crate::converter::{generation_cost, sum_subsets};
use crate::ipu::pattern_bits;
use apc_bignum::limb::{bit_len, extract_bits, Limb};
use apc_bignum::Nat;
use apc_trace::export::Metric;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The Sliced64 Converter tables (Fig. 8) of one operand under (q, L),
/// built in one pass over its limbs into flat vectors.
#[derive(Debug)]
pub struct PatternTables {
    /// Block b's 2^q subset-sum words at `[b·2^q ..][..2^q]`.
    pub(crate) patterns: Vec<Limb>,
    /// Block b's generation bops, or `None` for an all-zero block, which
    /// the pass-skip predicate (§VII sparsity) never runs a pass on.
    pub(crate) generation: Vec<Option<u64>>,
    /// `(blocks + 1)·2^q` running sums: row b is `Σ_{b' < b}` of the blocks'
    /// [`crate::ipu::pattern_bits`] at each mask ≥ 1 (0 at mask 0), so the
    /// `weighted_gather` of a tuple against blocks `lo..hi` is one dot
    /// product of its popcounts with the difference of two rows.
    pub(crate) gather_prefix: Vec<u32>,
}

impl PatternTables {
    /// The tables of `x`, cut into L-bit Eq. 1 limbs read straight from
    /// its machine words and grouped into q-limb pattern blocks. q = 4, the
    /// §IV-B optimum and the default, runs a copy with q constant-folded.
    pub(crate) fn build(x: &Nat, q: usize, limb_bits: u32) -> Self {
        if q == 4 {
            Self::build_q::<4>(x, q, limb_bits)
        } else {
            Self::build_q::<0>(x, q, limb_bits)
        }
    }

    /// [`PatternTables::build`] with `Q` = q fixed at compile time, or 0 to
    /// read q from the argument.
    fn build_q<const Q: usize>(x: &Nat, q: usize, limb_bits: u32) -> Self {
        let q = if Q == 0 { q } else { Q };
        let (lb, n) = (u64::from(limb_bits), 1usize << q);
        let blocks = crate::cast::usize_from(x.bit_len().div_ceil(lb).div_ceil(q as u64));
        let mut tables = PatternTables {
            patterns: vec![0; blocks << q],
            generation: Vec::with_capacity(blocks),
            gather_prefix: vec![0; (blocks + 1) << q],
        };
        let mut block = [0; 16];
        for b in 0..blocks {
            for (j, limb) in block[..q].iter_mut().enumerate() {
                *limb = extract_bits(x.limbs(), ((b * q + j) as u64) * lb, limb_bits);
            }
            let (below, above) = tables.gather_prefix.split_at_mut((b + 1) << q);
            let (prev, row) = (&below[b << q..][..n], &mut above[..n]);
            if block[..q].iter().all(|&v| v == 0) {
                row.copy_from_slice(prev);
                tables.generation.push(None);
                continue;
            }
            let patterns = &mut tables.patterns[b << q..][..n];
            sum_subsets(&block[..q], patterns);
            let mut bops = 0;
            for (r, (sum, &p)) in row.iter_mut().zip(&*patterns).enumerate().skip(1) {
                bops += generation_cost(r, bit_len(p), lb);
                *sum = prev[r] + pattern_bits(p);
            }
            tables.generation.push(Some(bops));
        }
        tables
    }

    /// The `weighted_gather` charge (Fig. 8 stage 3) of a tuple with
    /// per-mask popcounts `ones` against each of the blocks `lo..hi`:
    /// `Σ_b Σ_{mask ≥ 1} ones[mask]·bits_b[mask]`. `Q` is q fixed at
    /// compile time, or 0 to read it from `ones.len()`.
    #[inline]
    pub(crate) fn gather<const Q: usize>(&self, ones: &[u8], lo: usize, hi: usize) -> u64 {
        let n = if Q == 0 { ones.len() } else { 1 << Q };
        let q = n.trailing_zeros();
        let rows = |b: usize| &self.gather_prefix[b << q..][..n];
        let widths = rows(lo).iter().zip(rows(hi)).map(|(&below, &upto)| upto - below);
        ones[..n].iter().zip(widths).map(|(&ones, w)| u64::from(ones) * u64::from(w)).sum()
    }
}

/// Entry capacity in operands — sized for serving working sets (a few
/// tenants' moduli/bases), not for unbounded churn.
const CAPACITY: usize = 64;

/// One resident entry: digest, last-use stamp, key material (verified on
/// every hit: a collision must never alias two operands, §IV-B) and the
/// tables one [`crate::accelerator::Accelerator::multiply`] call replays.
struct Entry {
    digest: u64,
    stamp: u64,
    q: u32,
    limb_bits: u32,
    operand: Vec<Limb>,
    tables: Arc<PatternTables>,
}

/// At most [`CAPACITY`] entries; the smallest stamp of `clock` is the LRU.
struct CacheInner {
    slots: Vec<Entry>,
    clock: u64,
}

/// Counter snapshot for reports and the tier-1 gates (§VII measurement
/// honesty: the bench records the hit rate it actually observed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from a resident table.
    pub hits: u64,
    /// Lookups that had to generate (cold, collided, or capacity-evicted
    /// earlier).
    pub misses: u64,
    /// Entries inserted after a miss.
    pub inserts: u64,
    /// Entries displaced by LRU replacement.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits over lookups, 0 when nothing was looked up (the §VII
    /// repeated-operand reuse ratio the bench reports).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

// Statistic counters (Relaxed is correct: nothing gates on them — L12),
// recorded only while tracing is enabled.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INSERTS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

fn record(counter: &AtomicU64) {
    // Zero-perturbation gate: with tracing off, a lookup performs no
    // shared-cacheline write (the flag load is read-only traffic).
    if apc_trace::enabled() {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-wide cache switch, enabled at start. Acquire/Release
/// because the flag gates whether lookups touch the shared table state at
/// all (L12: this is a gate, not a statistic).
static CACHE_SWITCH: AtomicBool = AtomicBool::new(true);

/// Whether [`fetch_or_build`] consults the shared cache (Fig. 8 reuse
/// across invocations) or rebuilds unconditionally.
pub fn enabled() -> bool {
    CACHE_SWITCH.load(Ordering::Acquire)
}

/// Flips the cache switch at runtime. Used by the tier-1 gates to compare
/// cached and uncached runs of the same Fig. 9a workload within one
/// process.
pub fn set_enabled(on: bool) {
    CACHE_SWITCH.store(on, Ordering::Release);
}

static CACHE: Mutex<CacheInner> = Mutex::new(CacheInner { slots: Vec::new(), clock: 0 });

fn lock_cache() -> std::sync::MutexGuard<'static, CacheInner> {
    // Poison only means a panicking thread let go mid-way; recover.
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cache key: the operand limbs and (q, L) mixed a word at a time by
/// rotate, xor and an odd multiplier. Collisions are tolerated (the entry
/// stores its key material and is verified on hit), they cost a rebuild.
fn digest(operand: &[Limb], q: u32, limb_bits: u32) -> u64 {
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let head = [operand.len() as u64, u64::from(q), u64::from(limb_bits)];
    head.iter().chain(operand).fold(0, |h, &w| mix(h, w))
}

/// Looks up the Sliced64 tables for the multiplicand `x` under (q, L),
/// building and inserting them on a miss — the Fig. 8 Converter output,
/// reused across invocations like ARCHITECT reuses iterative-kernel
/// state.
///
/// `x`'s canonical limbs are the key material, stored to guard against
/// digest collisions. With the cache disabled this is exactly a fresh
/// build — no shared state is read or written.
pub fn fetch_or_build(x: &Nat, q: u32, limb_bits: u32) -> Arc<PatternTables> {
    let build = || PatternTables::build(x, crate::cast::usize_from(u64::from(q)), limb_bits);
    let operand = x.limbs();
    if !enabled() {
        return Arc::new(build());
    }
    let key = digest(operand, q, limb_bits);
    let find = |slots: &[Entry]| slots.iter().position(|e| e.digest == key);
    {
        let mut inner = lock_cache();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(e) = find(&inner.slots).map(|i| &mut inner.slots[i]) {
            if e.q == q && e.limb_bits == limb_bits && e.operand == operand {
                e.stamp = stamp;
                record(&HITS);
                return Arc::clone(&e.tables);
            }
            // Digest collision with different key material: fall through
            // to a rebuild that replaces the resident entry.
        }
    }
    // Build outside the lock so concurrent submitters generating
    // different operands never serialize on each other's Converter work.
    record(&MISSES);
    let tables = Arc::new(build());
    let (operand, shared) = (operand.to_vec(), Arc::clone(&tables));
    let mut inner = lock_cache();
    inner.clock += 1;
    let stamp = inner.clock;
    let entry = Entry { digest: key, stamp, q, limb_bits, operand, tables: shared };
    // The entry under this digest (a racing builder's or a collided one) is
    // replaced, the freshest tables win; else a full table evicts its LRU.
    let replaced = match find(&inner.slots) {
        Some(i) => Some(std::mem::replace(&mut inner.slots[i], entry)),
        None if inner.slots.len() < CAPACITY => {
            inner.slots.push(entry);
            None
        }
        None => {
            record(&EVICTIONS);
            let oldest = inner.slots.iter_mut().min_by_key(|e| e.stamp);
            oldest.map(|oldest| std::mem::replace(oldest, entry))
        }
    };
    record(&INSERTS);
    // The displaced entry's vectors are freed after the lock is released.
    drop(inner);
    drop(replaced);
    tables
}

/// Empties the cache (counters are monotone and unaffected). Tests and
/// benches call this between phases so recorded §VII hit rates describe
/// one workload, not the process history; it is also the invalidation
/// hook for an arch-config change (the Fig. 9a (q, L) pair is part of
/// every key, so stale entries can only miss — clearing just frees them).
pub fn clear() {
    // Freed after the lock is released, at the end of the call.
    let _entries = std::mem::take(&mut lock_cache().slots);
}

/// Resident entry count — one per cached Fig. 8 table set, at most 64
/// (the gates' capacity check).
pub fn len() -> usize {
    lock_cache().slots.len()
}

/// Counter snapshot (monotone since process start; subtract two
/// snapshots to attribute a phase — the §VII-B snapshot/delta idiom).
pub fn counters() -> CacheCounters {
    CacheCounters {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        inserts: INSERTS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

/// The cache counters as `apc_core_pattern_cache_*` metric families —
/// joined into `GET /metrics` by the network layer next to the
/// `apc_serve_*`/`apc_net_*` families (§VII measurement surface).
pub fn export_metrics() -> Vec<Metric> {
    let c = counters();
    vec![
        Metric::counter(
            "apc_core_pattern_cache_hits_total",
            "Pattern-table lookups answered from a resident entry",
            c.hits,
        ),
        Metric::counter(
            "apc_core_pattern_cache_misses_total",
            "Pattern-table lookups that regenerated (cold or evicted)",
            c.misses,
        ),
        Metric::counter(
            "apc_core_pattern_cache_inserts_total",
            "Pattern-table entries inserted after a miss",
            c.inserts,
        ),
        Metric::counter(
            "apc_core_pattern_cache_evictions_total",
            "Pattern-table entries displaced by LRU replacement",
            c.evictions,
        ),
        Metric::gauge(
            "apc_core_pattern_cache_entries",
            "Resident pattern-table entries",
            len() as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Behavioral tests (hit/miss/eviction, enabled/disabled, consistency
    // under concurrent submit) live in the tier-1 `tests/cache_gate.rs`,
    // which serializes access to this process-global state; unit tests
    // here stay pure so they can run concurrently with the accelerator
    // tests that exercise the cache.

    #[test]
    fn digest_separates_configs_and_operands() {
        let a = [1u64, 2, 3];
        let b = [1u64, 2, 4];
        assert_ne!(digest(&a, 4, 32), digest(&b, 4, 32));
        assert_ne!(digest(&a, 4, 32), digest(&a, 2, 32));
        assert_ne!(digest(&a, 4, 32), digest(&a, 4, 16));
    }

    #[test]
    fn hit_rate_is_zero_without_lookups_and_ratio_with() {
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        let c = CacheCounters { hits: 9, misses: 1, inserts: 1, evictions: 0 };
        assert!((c.hit_rate() - 0.9).abs() < 1e-12);
    }
}
