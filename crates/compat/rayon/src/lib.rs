//! Offline, API-compatible subset of `rayon`.
//!
//! Provides the data-parallel surface the workspace uses — `into_par_iter`
//! over an owned `Vec` of work items plus a [`ThreadPool`] whose `install`
//! scopes the worker count — implemented on `std::thread::scope`. Workers
//! pull items off a shared atomic cursor, so load balancing is dynamic while
//! each item's work stays fully deterministic (each item is processed
//! exactly once, independently of which worker runs it or in which order).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    //! Traits imported by `use rayon::prelude::*`.
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

thread_local! {
    static SCOPED_THREADS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The machine's available parallelism, asked once per process as rayon
/// sizes its global pool once: on Linux the query reads cgroup files, which
/// costs tens of microseconds per call.
fn default_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of worker threads a parallel operation started here will use.
///
/// Inside [`ThreadPool::install`] this is the pool's configured size;
/// elsewhere it is the machine's available parallelism.
#[must_use]
pub fn current_num_threads() -> usize {
    SCOPED_THREADS
        .with(std::cell::Cell::get)
        .unwrap_or_else(default_num_threads)
}

/// Error returned by [`ThreadPoolBuilder::build`] (never produced by this
/// implementation; present for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 = available parallelism).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Never fails in this implementation.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            Some(0) | None => default_num_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// A scoped worker-count context. Unlike upstream rayon this pool owns no
/// long-lived threads: a parallel call spawns all but one of its workers and
/// works as the last one itself, which keeps the implementation
/// dependency-free while preserving the API and the scaling behaviour for
/// coarse-grained workloads like fleet stepping.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Number of worker threads parallel calls inside `install` will use.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with this pool's worker count in effect for every parallel
    /// operation it performs.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let previous = SCOPED_THREADS.with(|cell| cell.replace(Some(self.threads)));
        let result = op();
        SCOPED_THREADS.with(|cell| cell.set(previous));
        result
    }
}

/// Runs every work item from `items` on a scoped worker crew, pulling items
/// off an atomic cursor. The calling thread is one of the workers, so a call
/// spawns `workers - 1` threads. The item order a worker observes is
/// arbitrary, but every item runs exactly once.
fn drive<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let total = items.len();
    let workers = current_num_threads().min(total).max(1);
    if workers <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cells = &cells;
    let cursor = &cursor;
    let work = move || loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= total {
            return;
        }
        let item = cells[index]
            .lock()
            .expect("item cell poisoned")
            .take()
            .expect("item taken twice");
        f(item);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Minimal parallel-iterator interface: consumption adapters only.
pub trait ParallelIterator: Sized {
    /// The items produced by this iterator.
    type Item: Send;

    /// Consumes the iterator, applying `f` to every item in parallel.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F);
}

/// Conversion into a parallel iterator (the subset the workspace uses:
/// owned `Vec`s of work items, e.g. per-shard `(sessions, scratch)` pairs).
pub trait IntoParallelIterator {
    /// The items produced by the resulting iterator.
    type Item: Send;
    /// The resulting parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Parallel iterator over an owned `Vec`.
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IntoParIter<T> {
    type Item = T;

    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
        drive(self.items, f);
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IntoParIter<T>;

    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn install_scopes_the_worker_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let nested = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let inner = pool.install(|| nested.install(current_num_threads));
        assert_eq!(inner, 1);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn into_par_iter_consumes_every_item_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        let items: Vec<u64> = (1..=100).collect();
        items.into_par_iter().for_each(|x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let run = |threads: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut data: Vec<u64> = (0..997).collect();
                let work: Vec<(usize, &mut [u64])> = data.chunks_mut(10).enumerate().collect();
                work.into_par_iter().for_each(|(index, chunk)| {
                    for x in chunk {
                        *x = x.wrapping_mul(31).wrapping_add(index as u64);
                    }
                });
                data
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Each item waits at the barrier until the other has started, so the
        // two items run on two threads at once.
        let barrier = std::sync::Barrier::new(2);
        let threads = Mutex::new(Vec::new());
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            vec![0, 1].into_par_iter().for_each(|_| {
                barrier.wait();
                threads.lock().unwrap().push(std::thread::current().id());
            });
        });
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 2);
        assert_ne!(threads[0], threads[1]);
        assert!(threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn the_thread_count_outside_install_is_stable() {
        let first = current_num_threads();
        assert!(first >= 1);
        for _ in 0..100 {
            assert_eq!(current_num_threads(), first);
        }
        let pool = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(pool.current_num_threads(), first);
    }
}
