//! Deterministic fork-join helpers for the `parallel` cargo feature.
//!
//! The fast-multiplication ladder contains embarrassingly parallel stages
//! — the 2k−1 pointwise products of Toom-k and the K pointwise ring
//! multiplications of Schönhage–Strassen — whose results are combined in a
//! fixed interpolation/recomposition order afterwards. These helpers
//! dispatch such index-ranges across threads while keeping results in
//! task order, so the output (and anything accumulated from it in order)
//! is bit-identical to the sequential path.
//!
//! Without the `parallel` feature everything here degrades to plain
//! sequential loops, so callers need no `cfg` of their own. [`sequential`]
//! keeps every dispatch a closure reaches on the calling thread, so
//! benchmarks and tests compare both paths in one process without a
//! process-wide switch.
//!
//! Dispatch rides on the vendored rayon work-stealing pool: tasks split
//! recursively via `rayon::join` down to a grain sized from the *actual*
//! pool (`rayon::current_num_threads`, i.e. the enclosing `ThreadPool`
//! inside `install`, the `APC_THREADS`-sized global pool elsewhere), so
//! the split factor matches the workers that will really run.
//!
//! Nested data parallelism is suppressed: when a worker spawned by
//! [`map_indexed`] itself reaches another `map_indexed` (e.g. an SSA
//! pointwise product large enough to recurse into Toom-k), the inner call
//! runs sequentially on that worker. The pool would handle nested forks
//! fine; the guard keeps the task tree (and thus scheduling overhead)
//! bounded by the outermost split and the per-task work deterministic in
//! shape. [`sequential`] is the same guard, set on the caller's thread.

#[cfg(feature = "parallel")]
use std::cell::Cell;

#[cfg(feature = "parallel")]
thread_local! {
    /// Set while this thread is executing work items for an enclosing
    /// `map_indexed`, or is inside [`sequential`], to keep dispatch on
    /// this thread.
    static IN_PARALLEL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the library-internal call sites (Toom-k, SSA) dispatch in
/// parallel, i.e. the `parallel` feature is compiled in.
pub fn parallel_enabled() -> bool {
    cfg!(feature = "parallel")
}

/// Runs `op` with every [`map_indexed`] and [`join`] it reaches kept on
/// the calling thread, whatever their `parallel` flag says. The scope is
/// this thread's alone, so concurrent callers are unaffected. Without
/// the `parallel` feature this is just `op()`.
pub fn sequential<R>(op: impl FnOnce() -> R) -> R {
    #[cfg(feature = "parallel")]
    return in_worker(op);
    #[cfg(not(feature = "parallel"))]
    op()
}

/// Worker count of the underlying pool (the enclosing `ThreadPool`'s on
/// a pool worker, the global pool's otherwise). `1` without the
/// `parallel` feature.
pub fn pool_threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        rayon::current_num_threads()
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// How many threads a [`map_indexed`] call made here with this
/// `parallel` flag spreads its items over: the pool's worker count when
/// it would fork, and 1 inside [`sequential`], inside another dispatch,
/// for `parallel == false`, or without the `parallel` feature. A caller
/// that cuts its work into this many pieces gives each thread one.
pub fn dispatch_width(parallel: bool) -> usize {
    #[cfg(feature = "parallel")]
    {
        if parallel && !IN_PARALLEL_WORKER.with(Cell::get) {
            return rayon::current_num_threads();
        }
    }
    let _ = parallel;
    1
}

/// Maps `f` over `0..len`, returning results in index order.
///
/// When [`dispatch_width`] reports more than one thread, the range is
/// split recursively across threads down to a grain of `len / (4·threads)`
/// items; otherwise this is a plain sequential map. Either way the output
/// vector is in index order, so reductions over it are deterministic.
pub fn map_indexed<U, F>(len: usize, parallel: bool, f: &F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    #[cfg(feature = "parallel")]
    {
        let threads = dispatch_width(parallel);
        if threads > 1 && len > 1 {
            let grain = len.div_ceil(4 * threads).max(1);
            return map_range(0, len, grain, f);
        }
    }
    let _ = parallel;
    (0..len).map(f).collect()
}

/// Runs `a` and `b`, in parallel when requested (and possible), returning
/// both results. Sequential fallback preserves the (a, b) order.
pub fn join<RA, RB>(
    parallel: bool,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    #[cfg(feature = "parallel")]
    {
        let nested = IN_PARALLEL_WORKER.with(Cell::get);
        if parallel && !nested && rayon::current_num_threads() > 1 {
            return rayon::join(
                || in_worker(a),
                || in_worker(b),
            );
        }
    }
    let _ = parallel;
    (a(), b())
}

/// Runs `f` with the nested-parallelism guard set, restoring the previous
/// state afterwards (also when `f` unwinds, so a panicking task cannot
/// leave its thread stuck sequential).
#[cfg(feature = "parallel")]
fn in_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL_WORKER.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_PARALLEL_WORKER.with(|flag| flag.replace(true)));
    f()
}

#[cfg(feature = "parallel")]
fn map_range<U, F>(lo: usize, hi: usize, grain: usize, f: &F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if hi - lo <= grain {
        return in_worker(|| (lo..hi).map(f).collect());
    }
    let mid = lo + (hi - lo) / 2;
    let (mut left, right) = rayon::join(
        || map_range(lo, mid, grain, f),
        || map_range(mid, hi, grain, f),
    );
    left.extend(right);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    #[test]
    fn map_preserves_index_order() {
        for parallel in [false, true] {
            let out = map_indexed(257, parallel, &|i| i * i);
            assert_eq!(out.len(), 257);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "parallel={parallel}");
            }
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        assert!(map_indexed(0, true, &|i| i).is_empty());
        assert_eq!(map_indexed(1, true, &|i| i + 41), vec![41]);
    }

    #[test]
    fn join_returns_in_order() {
        for parallel in [false, true] {
            let (a, b) = join(parallel, || 1, || 2);
            assert_eq!((a, b), (1, 2), "parallel={parallel}");
        }
    }

    #[test]
    fn threads_reported_positive() {
        assert!(pool_threads() >= 1);
        assert_eq!(parallel_enabled(), cfg!(feature = "parallel"));
    }

    #[test]
    fn dispatch_width_is_one_wherever_dispatch_stays_put() {
        assert_eq!(dispatch_width(false), 1);
        assert_eq!(sequential(|| dispatch_width(true)), 1);
        let expected = if cfg!(feature = "parallel") {
            pool_threads()
        } else {
            1
        };
        assert_eq!(dispatch_width(true), expected);
        // A dispatched item is nested: its own dispatches stay put.
        assert_eq!(map_indexed(4, true, &|_| dispatch_width(true)), vec![1; 4]);
    }

    /// Runs `map_indexed(.., true, ..)` and `join(true, ..)` inside
    /// `sequential` and checks every item ran on the calling thread.
    fn all_items_stay_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids: Vec<ThreadId> = sequential(|| {
            let mut ids = map_indexed(64, true, &|_| thread::current().id());
            let (a, b) = join(true, || thread::current().id(), || thread::current().id());
            ids.extend([a, b]);
            ids
        });
        assert_eq!(ids.len(), 66);
        assert!(
            ids.iter().all(|&id| id == caller),
            "an item left the calling thread"
        );
    }

    #[test]
    fn sequential_scope_keeps_dispatch_on_the_calling_thread() {
        #[cfg(feature = "parallel")]
        {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(8)
                .build()
                .expect("build 8-worker pool");
            assert_eq!(pool.install(pool_threads), 8);
            assert_eq!(pool.install(|| dispatch_width(true)), 8);
            assert_eq!(pool.install(|| sequential(|| dispatch_width(true))), 1);
            pool.install(all_items_stay_on_the_calling_thread);
            // The scope ends with `sequential`, also when `op` unwinds.
            pool.install(|| {
                let unwound = std::panic::catch_unwind(|| sequential(|| panic!("op failed")));
                assert!(unwound.is_err());
                assert!(!IN_PARALLEL_WORKER.with(Cell::get));
            });
            pool.shutdown();
        }
        all_items_stay_on_the_calling_thread();
    }
}
