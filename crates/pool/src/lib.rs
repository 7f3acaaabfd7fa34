//! # ukc-pool — the shared execution layer
//!
//! One process-wide set of worker threads that every parallel stage in the
//! workspace draws from: intra-solve distance sweeps ([`ukc-metric`]'s
//! parallel kernels), batch fan-out (`solve_batch_threads`), and the
//! server scheduler's waves. Centralizing the workers means the layers
//! *cooperate* instead of oversubscribing: a wave of solves and the
//! parallel sweeps inside each solve share the same fixed worker set, so
//! total runnable threads never exceed the pool size.
//!
//! [`ukc-metric`]: https://example.invalid/uncertain-kcenter
//!
//! ## Determinism contract
//!
//! The pool executes **chunks**: a task is split into `0..chunks` units
//! whose boundaries are chosen by the *caller* as a pure function of the
//! input size — never of the worker count. Workers (and the submitting
//! thread, which always participates) claim chunk indices from an atomic
//! counter, so *which thread* runs a chunk is scheduling-dependent, but
//! *what each chunk computes* is not. The reduction helpers
//! ([`map_chunks`]) hand partial results back **in chunk-index order**,
//! so any fold over them is performed in a fixed order. Consequently every
//! routine built on this crate produces bit-identical floating-point
//! output whether it runs on 1 lane or 64 — the property
//! `tests/parallel_equivalence.rs` pins across the whole solver stack.
//!
//! ## Blocking and nesting
//!
//! [`Pool::run`] borrows its closure and blocks until every chunk has
//! executed, so tasks may freely capture stack data (a scoped pool, like
//! `std::thread::scope`, but over persistent workers). The submitting
//! thread claims chunks itself while it waits; a task therefore always
//! makes progress even when every worker is busy elsewhere, which makes
//! *nested* submission (a pooled batch solve whose inner sweeps are also
//! pooled) deadlock-free by construction.
//!
//! ## Sizing
//!
//! [`global()`] returns the process-wide pool, sized on first use by the
//! `UKC_THREADS` environment variable when set (minimum 1 — the pool then
//! has `UKC_THREADS - 1` workers plus the submitting lane), otherwise by
//! [`std::thread::available_parallelism`].

#![warn(missing_docs)]
// This crate contains the workspace's only `unsafe` code: the lifetime
// erasure in `Pool::run` (see the safety comment there). Everything
// downstream of it is safe Rust.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A borrowed chunk runner with its lifetime erased so persistent worker
/// threads can call it. Soundness is the [`Pool::run`] protocol: the
/// submitting thread does not return before `done == chunks`, and `done`
/// is only incremented *after* a chunk call returns, so the pointee is
/// live for every call (`&'static` here is a lie told only for the
/// duration of that protocol).
#[derive(Clone, Copy)]
struct TaskFn(&'static (dyn Fn(usize) + Sync));

/// Erases the borrow of `f` for the duration of the [`Pool::run`]
/// protocol (see [`TaskFn`]).
fn erase_fn<'a>(f: &'a (dyn Fn(usize) + Sync)) -> TaskFn {
    // SAFETY: callers (only `Pool::run`) block until every chunk call has
    // returned before letting the real lifetime `'a` end, so no call ever
    // observes a dangling reference.
    TaskFn(unsafe {
        std::mem::transmute::<&'a (dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    })
}

/// One submitted task: a chunk counter, a completion counter, and a
/// budget of workers still allowed to join (the submitting lane is not
/// budgeted — it always participates).
struct Task {
    func: TaskFn,
    chunks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    worker_budget: AtomicUsize,
    panicked: AtomicBool,
}

/// State shared between the workers and submitters.
struct Shared {
    /// Active tasks, oldest first. Also the mutex both condvars pair with.
    queue: Mutex<Vec<Arc<Task>>>,
    /// Workers sleep here when no task wants them.
    work: Condvar,
    /// Submitters sleep here waiting for their task to drain.
    drained: Condvar,
    shutdown: AtomicBool,
    /// Lanes (workers + submitters) currently executing a chunk.
    busy: AtomicUsize,
    /// Tasks ever dispatched through the workers.
    tasks: AtomicU64,
    /// Chunks ever executed through [`Pool::run`]'s pooled path.
    chunks: AtomicU64,
}

/// A point-in-time snapshot of pool occupancy, for ops surfaces
/// (`/metrics` renders one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads owned by the pool (the submitting lane is extra).
    pub workers: usize,
    /// Lanes currently executing a chunk (workers + submitters).
    pub busy: usize,
    /// Chunks claimed by no lane yet, summed over all active tasks.
    pub queued_chunks: usize,
    /// Tasks ever dispatched through the pooled path.
    pub tasks: u64,
    /// Chunks ever executed through the pooled path.
    pub chunks: u64,
}

/// A fixed set of worker threads executing chunked tasks; see the crate
/// docs for the determinism contract.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl Pool {
    /// A pool offering `threads` total lanes: `threads - 1` persistent
    /// workers plus the submitting thread. `threads <= 1` spawns no
    /// workers at all — every [`Pool::run`] then executes inline, which
    /// is the `threads = 1` sequential path.
    pub fn new(threads: usize) -> Self {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            work: Condvar::new(),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            tasks: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ukc-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Pool { shared, handles }
    }

    /// The number of persistent worker threads (total lanes are one more:
    /// the submitting thread always participates).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Total lanes: workers plus the submitting thread.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Current occupancy counters.
    pub fn stats(&self) -> PoolStats {
        let queued = {
            let queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue
                .iter()
                .map(|t| {
                    t.chunks
                        .saturating_sub(t.next.load(Ordering::Relaxed).min(t.chunks))
                })
                .sum()
        };
        PoolStats {
            workers: self.handles.len(),
            busy: self.shared.busy.load(Ordering::Relaxed),
            queued_chunks: queued,
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
        }
    }

    /// Executes `f(0) .. f(chunks - 1)`, each exactly once, using at most
    /// `lanes` lanes (the submitting thread plus up to `lanes - 1`
    /// workers), and returns when all chunks have run.
    ///
    /// Chunk *boundaries* are the caller's; this method only decides which
    /// lane runs which chunk, so any `f` whose chunks write disjoint data
    /// (or whose partial results are folded in chunk order) is
    /// deterministic regardless of `lanes`. With `lanes <= 1`, no
    /// workers, or a single chunk, `f` runs inline on the caller in index
    /// order.
    ///
    /// # Panics
    /// Propagates (as a fresh panic) any panic raised by `f` on any lane,
    /// after all claimed chunks have finished.
    pub fn run(&self, chunks: usize, lanes: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.handles.is_empty() || lanes <= 1 || chunks == 1 {
            for i in 0..chunks {
                f(i);
            }
            return;
        }

        // `task` holds a lifetime-erased reference to `f` (see `erase_fn`
        // for the safety argument). This function does not return (or
        // unwind — caller-side panics are caught in `execute_chunks`)
        // before `done == chunks`, which in turn only happens after every
        // chunk call has returned, so the erased borrow outlives all uses.
        let task = Arc::new(Task {
            func: erase_fn(f),
            chunks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            worker_budget: AtomicUsize::new((lanes - 1).min(self.handles.len())),
            panicked: AtomicBool::new(false),
        });
        self.shared.tasks.fetch_add(1, Ordering::Relaxed);
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.push(Arc::clone(&task));
            self.shared.work.notify_all();
        }

        // The submitting lane participates until no chunk is unclaimed.
        execute_chunks(&self.shared, &task);

        // Wait for the chunks other lanes claimed.
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            while task.done.load(Ordering::Acquire) < chunks {
                queue = self
                    .shared
                    .drained
                    .wait(queue)
                    .expect("pool queue poisoned");
            }
            queue.retain(|t| !Arc::ptr_eq(t, &task));
        }
        if task.panicked.load(Ordering::Relaxed) {
            panic!("ukc-pool: a parallel chunk panicked (see worker output above)");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _queue = self.shared.queue.lock().expect("pool queue poisoned");
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims and runs chunks of `task` until none are left. Used by both the
/// submitting lane and the workers; panics inside a chunk are recorded on
/// the task and re-raised by [`Pool::run`] on the submitting thread.
fn execute_chunks(shared: &Shared, task: &Task) {
    loop {
        let i = task.next.fetch_add(1, Ordering::Relaxed);
        if i >= task.chunks {
            return;
        }
        shared.busy.fetch_add(1, Ordering::Relaxed);
        // The erased borrow is live here: `done` for this chunk is only
        // incremented after the call returns (see `erase_fn`).
        let func = task.func.0;
        if catch_unwind(AssertUnwindSafe(|| func(i))).is_err() {
            task.panicked.store(true, Ordering::Relaxed);
        }
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        shared.chunks.fetch_add(1, Ordering::Relaxed);
        if task.done.fetch_add(1, Ordering::AcqRel) + 1 == task.chunks {
            // Last chunk of the task: wake its submitter. Lock the queue
            // mutex so the wakeup cannot race the submitter's predicate
            // check.
            let _queue = shared.queue.lock().expect("pool queue poisoned");
            shared.drained.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Oldest task that still has unclaimed chunks and worker
                // budget left.
                let found = queue
                    .iter()
                    .find(|t| {
                        t.next.load(Ordering::Relaxed) < t.chunks
                            && t.worker_budget.load(Ordering::Relaxed) > 0
                    })
                    .cloned();
                match found {
                    Some(task) => {
                        task.worker_budget.fetch_sub(1, Ordering::Relaxed);
                        break task;
                    }
                    None => {
                        queue = shared.work.wait(queue).expect("pool queue poisoned");
                    }
                }
            }
        };
        execute_chunks(shared, &task);
    }
}

/// The pool size the process defaults to: `UKC_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
///
/// Resolved once per process and cached: every solve and every stream
/// epoch asks for it, and `available_parallelism` reads cgroup files on
/// Linux (tens of µs per call), which would otherwise dominate small
/// solves and single-point stream pushes.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("UKC_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use with
/// [`default_threads()`] lanes. Every layer that parallelizes —
/// intra-solve kernels, batch fan-out, server waves — shares it.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// An execution context: sequential, or a pool plus a lane cap. The
/// currency handed down the solver stack — a `Copy` value, cheap to
/// thread through every stage.
#[derive(Clone, Copy, Debug)]
pub struct Exec<'a> {
    pool: Option<&'a Pool>,
    lanes: usize,
}

impl<'a> Exec<'a> {
    /// Run everything inline on the calling thread.
    pub const fn sequential() -> Self {
        Exec {
            pool: None,
            lanes: 1,
        }
    }

    /// Run on `pool` with at most `lanes` lanes (`lanes <= 1` degrades to
    /// [`Exec::sequential`]).
    pub fn pooled(pool: &'a Pool, lanes: usize) -> Self {
        if lanes <= 1 || pool.workers() == 0 {
            Exec::sequential()
        } else {
            Exec {
                pool: Some(pool),
                lanes,
            }
        }
    }

    /// `lanes` lanes on the [`global()`] pool (`lanes <= 1` is
    /// sequential, without touching — or lazily creating — the pool).
    pub fn auto(lanes: usize) -> Exec<'static> {
        if lanes <= 1 {
            Exec::sequential()
        } else {
            Exec::pooled(global(), lanes)
        }
    }

    /// The lane cap (1 when sequential).
    pub fn lanes(&self) -> usize {
        if self.pool.is_some() {
            self.lanes
        } else {
            1
        }
    }

    /// Whether chunks may run on pool workers.
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// Executes `f(chunk_index)` for every chunk, pooled or inline. The
    /// chunk count must come from the input size alone (see the crate
    /// docs); inline execution runs chunks in index order.
    pub fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        match self.pool {
            Some(pool) => pool.run(chunks, self.lanes, f),
            None => {
                for i in 0..chunks {
                    f(i);
                }
            }
        }
    }
}

/// Number of `chunk`-sized chunks covering `0..n` (the last may be
/// short).
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk size must be positive");
    n.div_ceil(chunk)
}

fn chunk_range(n: usize, chunk: usize, i: usize) -> Range<usize> {
    let start = i * chunk;
    start..((start + chunk).min(n))
}

/// Splits `out` into `chunk`-sized slices and runs
/// `f(start_index, slice)` on each — the elementwise-fill driver behind
/// the parallel distance kernels. Each slice is handed to exactly one
/// chunk, so `f` may mutate it freely; the fill is deterministic for any
/// [`Exec`] because element values depend only on their index.
pub fn for_each_slice<T: Send>(
    exec: Exec<'_>,
    out: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk > 0, "chunk size must be positive");
    if !exec.is_parallel() {
        for (i, slice) in out.chunks_mut(chunk).enumerate() {
            f(i * chunk, slice);
        }
        return;
    }
    // Pre-split the output into per-chunk slots; each chunk claims its
    // own exactly once (the pool guarantees one call per index).
    let slots: Vec<Mutex<Option<&mut [T]>>> =
        out.chunks_mut(chunk).map(|s| Mutex::new(Some(s))).collect();
    exec.run(slots.len(), &|i| {
        let slice = slots[i]
            .lock()
            .expect("chunk slot poisoned")
            .take()
            .expect("each chunk is claimed exactly once");
        f(i * chunk, slice);
    });
}

/// Maps every `chunk`-sized index range of `0..n` through `f` and
/// returns the results **in chunk-index order** — the ordered-reduction
/// driver. Folding the returned vector front to back reproduces the
/// sequential reduction exactly, for any [`Exec`].
pub fn map_chunks<R: Send>(
    exec: Exec<'_>,
    n: usize,
    chunk: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let chunks = chunk_count(n, chunk);
    if !exec.is_parallel() {
        return (0..chunks).map(|i| f(chunk_range(n, chunk, i))).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    exec.run(chunks, &|i| {
        let r = f(chunk_range(n, chunk, i));
        *slots[i].lock().expect("chunk slot poisoned") = Some(r);
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("chunk slot poisoned")
                .expect("every chunk produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers(), 0);
        let hits = TestCounter::new(0);
        pool.run(10, 4, &|i| {
            hits.fetch_add(1 << i, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), (1 << 10) - 1);
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = Pool::new(4);
        for chunks in [1usize, 2, 3, 17, 100] {
            let counts: Vec<TestCounter> = (0..chunks).map(|_| TestCounter::new(0)).collect();
            pool.run(chunks, 4, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn map_chunks_is_ordered_for_any_exec() {
        let pool = Pool::new(3);
        let seq = map_chunks(Exec::sequential(), 1000, 64, |r| (r.start, r.end));
        let par = map_chunks(Exec::pooled(&pool, 3), 1000, 64, |r| (r.start, r.end));
        assert_eq!(seq, par);
        assert_eq!(seq[0], (0, 64));
        assert_eq!(*seq.last().unwrap(), (960, 1000));
    }

    #[test]
    fn for_each_slice_fills_disjointly() {
        let pool = Pool::new(4);
        let mut seq = vec![0u64; 513];
        for_each_slice(Exec::sequential(), &mut seq, 32, |start, slice| {
            for (j, v) in slice.iter_mut().enumerate() {
                *v = (start + j) as u64 * 3;
            }
        });
        let mut par = vec![0u64; 513];
        for_each_slice(Exec::pooled(&pool, 4), &mut par, 32, |start, slice| {
            for (j, v) in slice.iter_mut().enumerate() {
                *v = (start + j) as u64 * 3;
            }
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn nested_run_makes_progress() {
        // A pooled task whose chunks submit pooled sub-tasks must complete
        // (the submitting lane always participates, so no deadlock).
        let pool = Pool::new(3);
        let total = TestCounter::new(0);
        pool.run(4, 3, &|_| {
            pool.run(8, 3, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn lane_cap_is_respected_in_stats_shape() {
        let pool = Pool::new(4);
        // lanes = 2 allows at most one worker to join; correctness is
        // unaffected either way — just check the run completes and stats
        // monotonically record it.
        let before = pool.stats().chunks;
        pool.run(32, 2, &|_| {});
        let after = pool.stats();
        assert!(after.chunks >= before + 32);
        assert_eq!(after.workers, 3);
        assert_eq!(after.queued_chunks, 0);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, 2, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked task.
        let ok = TestCounter::new(0);
        pool.run(4, 2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn exec_auto_sequential_below_two_lanes() {
        assert!(!Exec::auto(1).is_parallel());
        assert_eq!(Exec::auto(0).lanes(), 1);
        assert!(!Exec::sequential().is_parallel());
    }

    #[test]
    fn chunk_count_covers_everything() {
        assert_eq!(chunk_count(0, 8), 0);
        assert_eq!(chunk_count(1, 8), 1);
        assert_eq!(chunk_count(8, 8), 1);
        assert_eq!(chunk_count(9, 8), 2);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
