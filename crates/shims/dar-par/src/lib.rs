//! # dar-par — deterministic shard-parallel thread pool
//!
//! Offline (no crates.io) parallel runtime for the DAR workspace. Its one
//! primitive is a fork-join over a fixed list of shards ([`run_shards`],
//! [`run_shards_mut`]). Design constraints, in priority order:
//!
//! 1. **Determinism.** Work is decomposed into a *fixed* list of shards
//!    whose count depends only on the problem size (never on the thread
//!    count), each shard runs serially, and shard results are handed back
//!    to the caller **ordered by shard index**. Any reduction the caller
//!    performs in that order is therefore bit-identical for 1, 4, or 64
//!    threads — the invariant DESIGN.md §9 relies on.
//! 2. **No idle deadlock.** The calling thread participates in executing
//!    its own shards (claimed through an atomic counter), so a pool of
//!    size 1 — or a fully busy pool — still makes progress, and nested
//!    fork-joins cannot starve each other.
//! 3. **Panic propagation.** A panic in any shard is captured and resumed
//!    on the calling thread once the fork-join completes; nothing hangs.
//!
//! The thread budget comes from `DAR_THREADS` (0 or unset falls back to
//! `available_parallelism`), overridable per-thread with [`with_threads`]
//! — which is how the serial-equivalence tests compare a 1-thread and a
//! 4-thread run inside one process.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Upper bound on worker threads, however large `DAR_THREADS` claims.
pub const HARD_CAP: usize = 64;

/// Upper bound on shards per fork-join. Shard *counts* must be a pure
/// function of problem size (determinism), so this also caps how much
/// parallelism a single op can expose.
pub const MAX_SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Thread-count policy
// ---------------------------------------------------------------------------

fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(HARD_CAP)
}

/// Resolve a raw `DAR_THREADS` value; `None`, empty, `0`, or garbage all
/// fall back to the hardware parallelism (public so the fallback policy is
/// unit-testable without mutating the process environment).
pub fn threads_from_env_str(raw: Option<&str>) -> usize {
    match raw.map(str::trim).filter(|s| !s.is_empty()) {
        Some(s) => match s.parse::<usize>() {
            Ok(0) | Err(_) => hw_threads(),
            Ok(n) => n.min(HARD_CAP),
        },
        None => hw_threads(),
    }
}

fn env_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| threads_from_env_str(std::env::var("DAR_THREADS").ok().as_deref()))
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Effective thread budget for fork-joins issued from this thread.
pub fn max_threads() -> usize {
    THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(env_threads)
}

/// Run `f` with the calling thread's budget forced to `n` (clamped to
/// `1..=HARD_CAP`), restoring the previous budget afterwards — including on
/// unwind, so a failed assertion inside a test cannot leak the override.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.clamp(1, HARD_CAP)))));
    f()
}

// ---------------------------------------------------------------------------
// Shard geometry
// ---------------------------------------------------------------------------

/// Deterministic shard count for `items` units of work: at most one shard
/// per `min_per_shard` items, clamped to `1..=MAX_SHARDS`. Depends only on
/// the arguments — never on the thread budget.
pub fn shard_count(items: usize, min_per_shard: usize) -> usize {
    let per = min_per_shard.max(1);
    (items / per).clamp(1, MAX_SHARDS)
}

/// Half-open item range owned by shard `idx` of `n_shards` over `items`
/// units. Ranges are contiguous, ascending, cover every item exactly once,
/// and differ in length by at most one.
pub fn shard_range(items: usize, n_shards: usize, idx: usize) -> Range<usize> {
    debug_assert!(idx < n_shards);
    let base = items / n_shards;
    let extra = items % n_shards;
    // The first `extra` shards take `base + 1` items.
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    start..(start + len).min(items)
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

struct QueueState {
    jobs: VecDeque<Arc<ShardJob>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<QueueState>,
    available: Condvar,
}

impl PoolShared {
    fn worker_loop(&self) {
        loop {
            let task = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(t) = q.jobs.pop_front() {
                        break Some(t);
                    }
                    if q.shutdown {
                        break None;
                    }
                    q = self.available.wait(q).unwrap();
                }
            };
            match task {
                Some(t) => t.help(),
                None => return,
            }
        }
    }

    /// Enqueue `copies` handles to `job` so up to that many idle workers
    /// can help with it. Prunes already-exhausted entries first so stale
    /// handles never accumulate.
    fn submit(&self, job: &Arc<ShardJob>, copies: usize) {
        let mut q = self.queue.lock().unwrap();
        q.jobs.retain(|j| !j.exhausted());
        for _ in 0..copies {
            q.jobs.push_back(Arc::clone(job));
        }
        drop(q);
        for _ in 0..copies {
            self.available.notify_one();
        }
    }
}

/// A worker pool. Most callers use the process-global pool implicitly via
/// [`run_shards`]; owning a `Pool` directly is for tests and special
/// setups. Dropping an owned pool joins every worker.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Pool with exactly `n` workers (clamped to `HARD_CAP`).
    pub fn new(n: usize) -> Pool {
        let pool = Pool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(n.min(HARD_CAP));
        pool
    }

    /// The lazily-started process-global pool. Workers are spawned on
    /// demand (up to `HARD_CAP`) and live for the rest of the process.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(0))
    }

    /// Current worker count.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().unwrap().len()
    }

    /// Grow the pool to at least `n` workers.
    fn ensure_workers(&self, n: usize) {
        let mut workers = self.workers.lock().unwrap();
        while workers.len() < n.min(HARD_CAP) {
            let shared = Arc::clone(&self.shared);
            let name = format!("dar-par-{}", workers.len());
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || shared.worker_loop())
                .expect("spawning dar-par worker");
            workers.push(handle);
        }
    }

    /// Run `n_shards` invocations of `f` across the pool using at most
    /// `threads` threads (including the caller), returning the results
    /// **ordered by shard index**. Panics in any shard are re-raised on
    /// the caller after all shards finish or bail.
    pub fn run_shards_with<T: Send>(
        &self,
        threads: usize,
        n_shards: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        assert!(n_shards > 0, "run_shards needs at least one shard");
        let threads = threads.clamp(1, HARD_CAP).min(n_shards);
        if threads <= 1 || n_shards == 1 {
            // Serial path: same shards, same order, no pool involvement.
            return (0..n_shards).map(f).collect();
        }

        // One slot per shard; the claim counter hands each index to exactly
        // one executor, so writes are disjoint.
        struct Slots<T>(Vec<std::cell::UnsafeCell<Option<T>>>);
        unsafe impl<T: Send> Sync for Slots<T> {}
        impl<T> Slots<T> {
            fn slot(&self, i: usize) -> *mut Option<T> {
                self.0[i].get()
            }
        }
        let slots = Slots((0..n_shards).map(|_| None.into()).collect());
        let slots_ref = &slots;
        let run_one = |i: usize| {
            let v = f(i);
            // SAFETY: shard i is claimed exactly once (fetch_add), and the
            // caller blocks in `wait()` until all claimed shards finish, so
            // the slot outlives every write and no write aliases another.
            unsafe { *slots_ref.slot(i) = Some(v) };
        };

        let job = Arc::new(unsafe { ShardJob::new(&run_one, n_shards) });
        self.ensure_workers(threads - 1);
        self.shared.submit(&job, threads - 1);
        job.help(); // The caller claims shards too — progress needs no worker.
        job.wait();
        if let Some(payload) = job.take_panic() {
            resume_unwind(payload);
        }
        slots
            .0
            .into_iter()
            .map(|c| c.into_inner().expect("shard completed without result"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

impl Pool {
    fn shutdown_workers(&self) -> usize {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        let handles: Vec<_> = std::mem::take(&mut *self.workers.lock().unwrap());
        let n = handles.len();
        for h in handles {
            let _ = h.join();
        }
        n
    }

    /// Stop accepting work and join every worker, returning how many were
    /// joined (also runs on drop; exposed for tests).
    pub fn shutdown(self) -> usize {
        self.shutdown_workers()
    }
}

// ---------------------------------------------------------------------------
// ShardJob — a single fork-join
// ---------------------------------------------------------------------------

/// A fork-join over `n` shards. Executors (workers and the caller) claim
/// shard indices from `next`; `done` counts finished shards; the first
/// panic payload is parked in `panic` for the caller to re-raise.
struct ShardJob {
    /// Type- and lifetime-erased pointer to the caller's shard closure.
    run_one: *const (dyn Fn(usize) + Sync + 'static),
    n: usize,
    next: AtomicUsize,
    done: Mutex<usize>,
    finished: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `run_one` points at a `Sync` closure on the caller's stack; the
// caller guarantees (by blocking in `wait`) that the closure outlives every
// dereference. All other fields are Send + Sync.
unsafe impl Send for ShardJob {}
unsafe impl Sync for ShardJob {}

impl ShardJob {
    /// # Safety
    /// The caller must not let `run_one` die before `wait()` has observed
    /// all `n` shards complete (i.e. call `wait` before returning).
    unsafe fn new(run_one: &(dyn Fn(usize) + Sync), n: usize) -> ShardJob {
        // Erase the borrow's lifetime; `wait()` upholds it dynamically.
        let eternal: &'static (dyn Fn(usize) + Sync + 'static) = std::mem::transmute(run_one);
        ShardJob {
            run_one: eternal as *const _,
            n,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            finished: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while *done < self.n {
            done = self.finished.wait(done).unwrap();
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().unwrap().take()
    }

    /// Claim and run shards until none remain. Callers and workers alike
    /// drain a job this way.
    fn help(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: per ShardJob::new's contract the closure is alive —
            // the caller is blocked in wait() until `done` reaches `n`.
            let f = unsafe { &*self.run_one };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut done = self.done.lock().unwrap();
            *done += 1;
            if *done == self.n {
                self.finished.notify_all();
            }
        }
    }

    /// True once every shard has been claimed (the queue prunes such
    /// entries; late poppers return immediately).
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }
}

// ---------------------------------------------------------------------------
// Front-door helpers
// ---------------------------------------------------------------------------

/// Fork-join `n_shards` calls of `f` on the global pool under the current
/// thread budget ([`max_threads`]), returning results **ordered by shard
/// index**. With a budget of 1 this runs the identical shards inline, in
/// the identical order — the foundation of the serial-equivalence
/// guarantee.
pub fn run_shards<T: Send>(n_shards: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    Pool::global().run_shards_with(max_threads(), n_shards, f)
}

/// Shard a mutable buffer: split `data` into `n_shards` contiguous chunks
/// of `stride`-sized rows (chunk `i` covers `shard_range(rows, n_shards,
/// i)`) and run `f(shard_idx, chunk)` for each, in parallel. `data.len()`
/// must be `rows * stride`; each chunk is written by exactly one shard.
pub fn run_shards_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    data: &mut [T],
    n_shards: usize,
    stride: usize,
    f: F,
) {
    assert!(stride > 0, "run_shards_mut stride must be positive");
    assert_eq!(data.len() % stride, 0, "buffer not a whole number of rows");
    let rows = data.len() / stride;
    struct SendPtr<T>(*mut T);
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    impl<T> SendPtr<T> {
        fn get(&self) -> *mut T {
            self.0
        }
    }
    let base = SendPtr(data.as_mut_ptr());
    run_shards(n_shards, |i| {
        let r = shard_range(rows, n_shards, i);
        // SAFETY: shard ranges are disjoint and in-bounds, each shard index
        // runs exactly once, and the fork-join completes before `data`'s
        // borrow ends — so these are non-overlapping live sub-borrows.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(r.start * stride), r.len() * stride)
        };
        f(i, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn shard_ranges_partition_items() {
        for items in [0usize, 1, 5, 16, 17, 100] {
            for n in 1..=MAX_SHARDS {
                let mut covered = Vec::new();
                for i in 0..n {
                    covered.extend(shard_range(items, n, i));
                }
                assert_eq!(covered, (0..items).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn shard_count_is_clamped_and_monotone() {
        assert_eq!(shard_count(0, 4), 1);
        assert_eq!(shard_count(3, 4), 1);
        assert_eq!(shard_count(8, 4), 2);
        assert_eq!(shard_count(1 << 20, 4), MAX_SHARDS);
        // min_per_shard == 0 must not divide by zero.
        assert_eq!(shard_count(5, 0), 5);
    }

    #[test]
    fn run_shards_returns_results_in_shard_order() {
        let out = with_threads(4, || run_shards(9, |i| i * i));
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64]);
    }

    #[test]
    fn run_shards_serial_budget_matches_parallel() {
        let serial = with_threads(1, || run_shards(7, |i| (i as f32).sin()));
        let parallel = with_threads(4, || run_shards(7, |i| (i as f32).sin()));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_shards_uses_multiple_threads_when_asked() {
        // With enough shards and a generous budget, at least one shard
        // should land off the calling thread (workers exist and claim).
        let ids = with_threads(4, || {
            run_shards(64, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            })
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(!distinct.is_empty());
        // On a single-core host the scheduler may still serialize onto one
        // thread; require only that the pool spun up workers.
        assert!(Pool::global().worker_count() >= 3);
    }

    #[test]
    fn run_shards_mut_writes_disjoint_chunks() {
        let mut buf = vec![0u32; 24];
        with_threads(4, || {
            run_shards_mut(&mut buf, 6, 4, |i, chunk| {
                assert_eq!(chunk.len(), 4);
                for c in chunk {
                    *c = i as u32 + 1;
                }
            });
        });
        let want: Vec<u32> = (0..6u32).flat_map(|i| [i + 1; 4]).collect();
        assert_eq!(buf, want);
    }

    #[test]
    fn panicking_shard_propagates_and_others_complete() {
        let completed = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                run_shards(8, |i| {
                    if i == 3 {
                        panic!("shard 3 exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "shard 3 exploded");
        assert_eq!(completed.load(Ordering::SeqCst), 7, "other shards ran");
    }

    #[test]
    fn nested_run_shards_inside_shards_completes() {
        let out = with_threads(4, || {
            run_shards(4, |i| {
                let inner = run_shards(4, move |j| i * 10 + j);
                inner.into_iter().sum::<usize>()
            })
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = Pool::new(3);
        let out = pool.run_shards_with(4, 8, |i| i + 1);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        assert_eq!(pool.shutdown(), 3, "shutdown joined every worker");
    }

    #[test]
    fn env_fallback_is_sane() {
        // 0, unset, empty, and garbage all fall back to hardware threads.
        let hw = hw_threads();
        assert!(hw >= 1);
        assert_eq!(threads_from_env_str(Some("0")), hw);
        assert_eq!(threads_from_env_str(None), hw);
        assert_eq!(threads_from_env_str(Some("")), hw);
        assert_eq!(threads_from_env_str(Some("not-a-number")), hw);
        assert_eq!(threads_from_env_str(Some("4")), 4);
        assert_eq!(threads_from_env_str(Some("10000")), HARD_CAP);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let before = max_threads();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_threads(7, || panic!("boom"));
        }));
        assert_eq!(max_threads(), before);
    }
}
