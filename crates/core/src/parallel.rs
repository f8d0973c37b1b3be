//! Shared-memory parallelism for the saving pipeline and the engine.
//!
//! DISC saves every outlier against the *original* inlier set `r` (saved
//! tuples never become neighbors within a pass — see [`crate::pipeline`]),
//! so every parallel stage is one ordered map over independent items:
//! neighbor counting (whose range queries also keep each row's nearest
//! hits), the η-NN queries for the `δ_η` those hits leave unsettled,
//! per-outlier saves, and per-shard sub-queries. [`parallel_map`] is
//! that map, the only place threads are spawned; [`Parallelism`] is
//! the worker-count knob that sizes it,
//! carried by [`DiscSaver`](crate::DiscSaver) and
//! [`ExactSaver`](crate::ExactSaver). Results come back in item order, so
//! every parallel result is **bit-identical** to the sequential run.
//!
//! `parallel_map` keeps no pool: each call that fans out spawns and
//! joins fresh scoped threads, so a caller whose items are cheap decides
//! to run inline instead. The streaming engine does, once per ingest
//! (`MIN_THREADED_ROWS` in [`crate::engine`]); batch `save_all`, outlier
//! detection and `RSet` construction always fan out.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide default worker count, settable by binaries (the `repro`
/// harness exposes it as `--workers`). `0` means "no override".
static GLOBAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count [`Parallelism::auto`] resolves to. Pass
/// `0` to clear the override and fall back to the hardware core count.
pub fn set_global_workers(n: usize) {
    GLOBAL_WORKERS.store(n, Ordering::Relaxed);
}

/// The current global override, if any.
pub fn global_workers() -> Option<usize> {
    match GLOBAL_WORKERS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// The cores available to this process, asked of the OS once.
/// `available_parallelism` reads the cgroup CPU quota, which took
/// 16–25 µs per call on a 2-CPU container, and every saver build asks.
pub(crate) fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

#[cfg(test)]
thread_local! {
    /// Threads [`parallel_map`] started for calls made on this thread,
    /// so a test can tell an inline fan-out from a threaded one without
    /// seeing other tests' threads.
    pub(crate) static THREADS_STARTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Worker count for the parallel pipeline stages.
///
/// `Parallelism(1)` runs the exact sequential code path (no threads are
/// spawned); any higher count fans work out over that many scoped
/// threads. `Parallelism(0)` is clamped to 1. The result is guaranteed
/// identical for every worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(pub usize);

impl Parallelism {
    /// The default: the process-wide override if one was set (see
    /// [`set_global_workers`]), else the number of available cores
    /// (detected once per process).
    pub fn auto() -> Self {
        Parallelism(global_workers().unwrap_or_else(available_cores))
    }

    /// The sequential path: no threads, identical to the pre-parallel
    /// implementation instruction for instruction.
    pub fn sequential() -> Self {
        Parallelism(1)
    }

    /// The effective worker count (at least 1).
    pub fn workers(self) -> usize {
        self.0.max(1)
    }

    /// True when no worker threads will be spawned.
    pub fn is_sequential(self) -> bool {
        self.workers() == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Applies `f` to every item on at most `workers` scoped threads and
/// returns the results in item order.
///
/// Items are handed out one at a time, so a worker stuck on an expensive
/// item (a save in a dense region, a large shard) never holds back the
/// rest. `workers <= 1`, or fewer than two items, runs the plain loop on
/// the calling thread. A panicking `f` is resumed on the caller with its
/// original payload at every worker count (if several items panic, one
/// of their payloads surfaces); callers that must survive a panicking
/// item catch it inside `f`, as the save loop does.
pub fn parallel_map<I, U, F>(items: I, workers: usize, f: F) -> Vec<U>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    let items = items.into_iter();
    let threads = workers.min(items.len());
    if threads <= 1 {
        return items.map(f).collect();
    }
    #[cfg(test)]
    THREADS_STARTED.with(|started| started.set(started.get() + threads));
    let source = Mutex::new(items.enumerate());
    let mut tagged: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (source, f) = (&source, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement,
                        // before `f` runs: a panicking item never
                        // poisons the source, only a panicking iterator.
                        let next = source.lock().expect("the item iterator panicked").next();
                        let Some((i, item)) = next else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(Parallelism(0).workers(), 1);
        assert!(Parallelism(0).is_sequential());
    }

    #[test]
    fn sequential_is_one_worker() {
        assert_eq!(Parallelism::sequential().workers(), 1);
        assert!(Parallelism::sequential().is_sequential());
        assert!(!Parallelism(3).is_sequential());
    }

    #[test]
    fn auto_is_positive() {
        assert!(Parallelism::auto().workers() >= 1);
    }

    const WORKERS: [usize; 6] = [1, 2, 3, 4, 8, 200];

    #[test]
    fn results_arrive_in_item_order_for_every_worker_count() {
        let items: Vec<u64> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in WORKERS {
            let got = parallel_map(&items, workers, |&x| x * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        for workers in WORKERS {
            assert!(parallel_map(&empty, workers, |&x| x).is_empty());
            assert_eq!(parallel_map(&[9u32], workers, |&x| x + 1), vec![10]);
        }
    }

    #[test]
    fn mutable_items_are_each_visited_once() {
        for workers in WORKERS {
            let mut items: Vec<usize> = (0..7).collect();
            let seen = parallel_map(items.iter_mut().enumerate(), workers, |(i, x)| {
                *x += 10;
                i
            });
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "workers = {workers}");
            assert_eq!(items, (10..17).collect::<Vec<_>>(), "workers = {workers}");
        }
    }

    #[test]
    fn a_panic_resumes_with_its_original_payload_at_every_worker_count() {
        let items: Vec<u32> = (0..37).collect();
        for workers in [1usize, 2, 4] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(&items, workers, |&x| {
                    if x == 5 {
                        panic!("boom at {x}");
                    }
                    x
                })
            }))
            .expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("boom at 5"),
                "workers = {workers}"
            );
        }
    }
}
