//! `zkp-runtime` — the parallel runtime of the CPU prover.
//!
//! The paper's CPU baseline is a multithreaded dual-socket EPYC that
//! exploits the fact that "the N points and scalars processed within each
//! window can be split into multiple sub-tasks" (§II-A). This crate gives
//! the workspace that capability as a first-party, zero-dependency
//! primitive: a **persistent** pool of worker threads (spawned once, kept
//! across proofs) executing **scoped** tasks that may borrow stack data.
//!
//! # Primitives
//!
//! * [`ThreadPool::run`] — dynamic self-scheduling over `tasks` indices
//!   (workers race on an atomic counter, so uneven tasks balance).
//! * [`ThreadPool::map`] / [`ThreadPool::for_each_chunk_mut`] — chunked
//!   map into a fresh `Vec` / over a mutable slice.
//! * [`ThreadPool::join`] — two heterogeneous tasks in parallel, the
//!   building block of the Groth16 prover's task graph.
//!
//! # Determinism
//!
//! The pool schedules *where* tasks run, never *what* they compute: every
//! primitive assigns work by index, so outputs land in deterministic
//! positions and callers can merge per-chunk partials in index order.
//! All `zkp-*` consumers keep their statistics (`MsmStats`,
//! `ProverStats`) bit-identical across thread counts this way.
//!
//! # Configuration
//!
//! [`ThreadPool::with_threads`] fixes the thread count; [`ThreadPool::new`]
//! takes it from the `ZKP_THREADS` environment variable, then the
//! machine's available parallelism. The process-wide pool behind [`global`] is built on first
//! use and reused by every prover component.
//!
//! # Nesting
//!
//! Calling a pool primitive from inside a pool task is supported: the
//! calling thread participates in its own batch, so progress never
//! depends on another thread being free and nesting cannot deadlock.

mod alloc_count;

pub use alloc_count::CountingAlloc;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A work batch: `total` task indices claimed via `next`, with `pending`
/// tracking unfinished tasks. `task` is a lifetime-erased pointer to the
/// caller's closure; it is dereferenced only between a successful index
/// claim (`next < total`) and the matching `pending` decrement, and the
/// submitting call blocks until `pending == 0`, so the closure outlives
/// every dereference.
struct Batch {
    task: TaskPtr,
    total: usize,
    next: AtomicUsize,
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the pointer is
// only dereferenced while the submitting `ThreadPool::run` frame — which
// owns the closure — is still blocked waiting on the batch.
unsafe impl Send for TaskPtr {}
// SAFETY: as for `Send` — sharing the pointer shares a `Sync` closure.
unsafe impl Sync for TaskPtr {}

#[derive(Default)]
struct Queue {
    batches: Vec<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Workers sleep here waiting for batches.
    work_cv: Condvar,
    /// Batch submitters sleep here waiting for stragglers.
    done_cv: Condvar,
}

/// The pool size: `requested` if given, else `ZKP_THREADS`, else the
/// machine's available parallelism; never less than one.
fn resolve_threads(requested: Option<usize>) -> usize {
    requested
        .or_else(env_threads)
        .unwrap_or_else(default_threads)
        .max(1)
}

fn env_threads() -> Option<usize> {
    std::env::var("ZKP_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A persistent scoped thread pool.
///
/// The pool owns `num_threads - 1` worker threads; the thread invoking a
/// primitive always participates as the final worker, so a 1-thread pool
/// spawns nothing and runs everything inline.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// A pool sized by `ZKP_THREADS` / available parallelism.
    pub fn new() -> Self {
        Self::spawn(resolve_threads(None))
    }

    /// A pool with exactly `n` threads (including the caller; `0` counts
    /// as one).
    ///
    /// # Examples
    ///
    /// ```
    /// let pool = zkp_runtime::ThreadPool::with_threads(2);
    /// assert_eq!(pool.num_threads(), 2);
    /// ```
    pub fn with_threads(n: usize) -> Self {
        Self::spawn(resolve_threads(Some(n)))
    }

    fn spawn(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zkp-runtime-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Total threads executing work, including the submitting thread.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(0) … f(tasks - 1)`, distributing indices dynamically
    /// across the pool. Returns after every task completed. Panics in
    /// tasks are forwarded to the caller after the batch drains.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        if self.workers.is_empty() || tasks == 1 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: lifetime erasure only; see the `Batch::task` invariant.
        let task = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(wide)
                as *const (dyn Fn(usize) + Sync)
        });
        let batch = Arc::new(Batch {
            task,
            total: tasks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool lock poisoned");
            queue.batches.push(Arc::clone(&batch));
        }
        self.shared.work_cv.notify_all();

        // Participate in our own batch: progress never requires a free
        // worker, which is what makes nested calls safe.
        execute_batch(&batch);

        // Wait for indices claimed by other threads.
        let mut queue = self.shared.queue.lock().expect("pool lock poisoned");
        while batch.pending.load(Ordering::Acquire) != 0 {
            queue = self.shared.done_cv.wait(queue).expect("pool lock poisoned");
        }
        queue.batches.retain(|b| !Arc::ptr_eq(b, &batch));
        drop(queue);

        let payload = batch.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Maps `f` over `0..len` into a fresh `Vec`, computing chunks in
    /// parallel. Output order is by index regardless of scheduling.
    pub fn map<T, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        use std::mem::MaybeUninit;
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
        out.resize_with(len, MaybeUninit::uninit);
        self.for_each_chunk_mut(&mut out, min_chunk, |_, offset, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                slot.write(f(offset + j));
            }
        });
        // SAFETY: the chunks partition `0..len` and the call above returned
        // without unwinding, so all `len` slots are initialized;
        // `MaybeUninit<T>` has `T`'s layout, and `ManuallyDrop` hands the
        // allocation to the new `Vec` exactly once.
        unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), out.len(), out.capacity())
        }
    }

    /// The one place a slice is split across tasks: runs `f(c, lo, span)`
    /// for every span `data[c·per .. min((c+1)·per, len)]` of
    /// `data.chunks_mut(per)`, where `lo = c·per`.
    fn for_each_span<T, F>(&self, data: &mut [T], per: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        let len = data.len();
        if len == 0 {
            return;
        }
        let base = SlicePtr(data.as_mut_ptr());
        self.run(len.div_ceil(per), |c| {
            let lo = c * per;
            let hi = (lo + per).min(len);
            // SAFETY: `c < ⌈len/per⌉` gives `lo < hi ≤ len`, so the span is
            // inside `data`, which this frame's `&mut` borrow keeps alive
            // and otherwise untouched until `run` returns; `run` gives each
            // `c` to exactly one task, and spans of distinct `c` start
            // `per` apart and are at most `per` long, so none overlap.
            let span = unsafe { std::slice::from_raw_parts_mut(base.at(lo), hi - lo) };
            f(c, lo, span);
        });
    }

    /// Runs `f(chunk_index, offset, chunk)` over disjoint mutable chunks
    /// of `data`, each at least `min_chunk` elements; `offset` is the
    /// chunk's starting index in `data`, letting callers seed positional
    /// state (running powers, digit rows) deterministically.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], min_chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        let chunks = chunk_count(data.len(), self.threads, min_chunk);
        self.for_each_span(data, data.len().div_ceil(chunks.max(1)), f);
    }

    /// Runs `f(block_index, block)` over consecutive disjoint mutable
    /// blocks of exactly `block_len` elements; tasks claim contiguous runs
    /// of at least `min_blocks` blocks. The block decomposition is exact,
    /// so callers can key per-block work (e.g. NTT butterflies or digit
    /// rows) off the block index.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of `block_len`.
    pub fn for_each_block_mut<T, F>(
        &self,
        data: &mut [T],
        block_len: usize,
        min_blocks: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(block_len > 0, "blocks must be non-empty");
        assert_eq!(
            data.len() % block_len,
            0,
            "data must divide into whole blocks"
        );
        let blocks = data.len() / block_len;
        let chunks = chunk_count(blocks, self.threads, min_blocks);
        let per = blocks.div_ceil(chunks.max(1));
        self.for_each_span(data, per * block_len, |_, lo, span| {
            for (b, block) in span.chunks_mut(block_len).enumerate() {
                f(lo / block_len + b, block);
            }
        });
    }

    /// Runs `f(chunk_index, offset, a_chunk, b_chunk)` over aligned
    /// disjoint mutable chunk pairs of two equal-length slices; `offset`
    /// is the chunk's starting index in the full slices.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn zip_chunks_mut<A, B, F>(&self, a: &mut [A], b: &mut [B], min_chunk: usize, f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, usize, &mut [A], &mut [B]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "zipped slices must match in length");
        let base_b = SlicePtr(b.as_mut_ptr());
        self.for_each_chunk_mut(a, min_chunk, |c, offset, ca| {
            // SAFETY: `ca` is `a[offset .. offset + ca.len()]` and `b` is as
            // long as `a`, so the same range is inside `b`; the chunks of
            // `a` are disjoint and each is handed to one task, so the
            // matching ranges of `b` are too; this frame's `&mut b`
            // outlives the call.
            let cb = unsafe { std::slice::from_raw_parts_mut(base_b.at(offset), ca.len()) };
            f(c, offset, ca, cb);
        });
    }

    /// Runs two closures in parallel and returns both results.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let slot_a: Mutex<Option<RA>> = Mutex::new(None);
        let slot_b: Mutex<Option<RB>> = Mutex::new(None);
        let fns: Mutex<(Option<A>, Option<B>)> = Mutex::new((Some(a), Some(b)));
        self.run(2, |i| {
            if i == 0 {
                let f = fns.lock().expect("join slot").0.take().expect("run once");
                *slot_a.lock().expect("join slot") = Some(f());
            } else {
                let f = fns.lock().expect("join slot").1.take().expect("run once");
                *slot_b.lock().expect("join slot") = Some(f());
            }
        });
        (
            slot_a.into_inner().expect("join slot").expect("task 0 ran"),
            slot_b.into_inner().expect("join slot").expect("task 1 ran"),
        )
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool lock poisoned");
            queue.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

struct SlicePtr<T>(*mut T);

impl<T> SlicePtr<T> {
    /// Pointer to element `i`. Going through a method keeps closure
    /// capture on the whole `SlicePtr` (which is `Sync`) rather than the
    /// bare field.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the underlying allocation.
    unsafe fn at(&self, i: usize) -> *mut T {
        // SAFETY: in bounds by the caller's contract.
        unsafe { self.0.add(i) }
    }
}

impl<T> Clone for SlicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlicePtr<T> {}

// SAFETY: used only to hand pairwise-disjoint, in-bounds regions to tasks
// while the owning call frame keeps the allocation alive.
unsafe impl<T: Send> Send for SlicePtr<T> {}
// SAFETY: as for `Send` — tasks sharing the pointer reach disjoint regions.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

/// How many chunks to split `len` elements into: enough to occupy
/// `threads`, but never chunks smaller than `min_chunk`.
fn chunk_count(len: usize, threads: usize, min_chunk: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let by_grain = len.div_ceil(min_chunk.max(1));
    by_grain.min(threads.max(1)).max(1)
}

/// Claims and executes indices of `batch` until none remain.
fn execute_batch(batch: &Batch) {
    loop {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        if i >= batch.total {
            return;
        }
        // SAFETY: a claimed index keeps `pending > 0`, so the submitter is
        // still blocked and the closure behind `task` is alive.
        let task = unsafe { &*batch.task.0 };
        let result = catch_unwind(AssertUnwindSafe(|| task(i)));
        if let Err(payload) = result {
            let mut slot = batch.panic.lock().expect("panic slot poisoned");
            slot.get_or_insert(payload);
        }
        batch.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("pool lock poisoned");
            loop {
                if queue.shutdown {
                    return;
                }
                // Drop exhausted batches eagerly so the scan stays short.
                queue
                    .batches
                    .retain(|b| b.next.load(Ordering::Relaxed) < b.total);
                if let Some(batch) = queue.batches.first() {
                    break Arc::clone(batch);
                }
                queue = shared.work_cv.wait(queue).expect("pool lock poisoned");
            }
        };
        execute_batch(&batch);
        // The submitter may be asleep waiting for the last task.
        if batch.pending.load(Ordering::Acquire) == 0 {
            let _guard = shared.queue.lock().expect("pool lock poisoned");
            shared.done_cv.notify_all();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool shared by all prover components. Built on first
/// use from `ZKP_THREADS` / available parallelism.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(ThreadPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_every_index_once() {
        let pool = ThreadPool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_preserves_index_order() {
        let pool = ThreadPool::with_threads(3);
        let out = pool.map(257, 16, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn for_each_chunk_mut_partitions() {
        let pool = ThreadPool::with_threads(4);
        let mut data = vec![0u64; 1003];
        pool.for_each_chunk_mut(&mut data, 10, |c, offset, chunk| {
            assert!(offset < 1003);
            for v in chunk.iter_mut() {
                *v = c as u64 + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0));
    }

    #[test]
    fn for_each_block_mut_indexes_blocks() {
        let pool = ThreadPool::with_threads(4);
        let mut data = vec![0usize; 96];
        pool.for_each_block_mut(&mut data, 8, 1, |b, block| {
            assert_eq!(block.len(), 8);
            for v in block.iter_mut() {
                *v = b + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 8 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn for_each_block_mut_rejects_ragged() {
        let pool = ThreadPool::with_threads(2);
        let mut data = vec![0u8; 10];
        pool.for_each_block_mut(&mut data, 3, 1, |_, _| {});
    }

    #[test]
    fn zip_chunks_mut_stays_aligned() {
        let pool = ThreadPool::with_threads(4);
        let mut a: Vec<usize> = (0..1001).collect();
        let mut b = vec![0usize; 1001];
        pool.zip_chunks_mut(&mut a, &mut b, 10, |_, offset, ca, cb| {
            for (j, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                assert_eq!(*x, offset + j, "chunks must stay index-aligned");
                *y = *x * 2;
            }
        });
        for (i, y) in b.iter().enumerate() {
            assert_eq!(*y, i * 2);
        }
    }

    #[test]
    fn join_returns_both() {
        let pool = ThreadPool::with_threads(2);
        let (a, b) = pool.join(|| 2 + 2, || "zk".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "zk");
    }

    #[test]
    fn nested_parallelism_makes_progress() {
        let pool = ThreadPool::with_threads(4);
        let sum = AtomicU64::new(0);
        pool.run(8, |_| {
            pool.run(8, |j| {
                sum.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn nested_join_inside_tasks() {
        let pool = ThreadPool::with_threads(3);
        let out = pool.map(16, 1, |i| {
            let (a, b) = pool.join(move || i * 2, move || i * 3);
            a + b
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 5);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::with_threads(1);
        assert_eq!(pool.num_threads(), 1);
        let mut seen = vec![false; 10];
        let cell = Mutex::new(&mut seen);
        pool.run(10, |i| {
            cell.lock().expect("serial")[i] = true;
        });
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let pool = ThreadPool::with_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool stays usable afterwards.
        let out = pool.map(8, 1, |i| i + 1);
        assert_eq!(out[7], 8);
    }

    /// `v[i] == scale·(i + 1)` for all `i`: every index was written exactly
    /// once (the tasks add) and with the right offset.
    fn assert_each_index_once(v: &[usize], scale: usize, what: &str) {
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, scale * (i + 1), "{what}: index {i} of {}", v.len());
        }
    }

    #[test]
    fn slice_primitives_cover_boundary_lengths_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::with_threads(threads);
            // `threads + 1` at grain 1 leaves trailing chunk indices empty;
            // 1009 is prime, so no chunk count divides it.
            for len in [0, 1, threads - 1, threads + 1, 1009] {
                let what = format!("{threads} threads, len {len}");

                let mut data = vec![0usize; len];
                pool.for_each_chunk_mut(&mut data, 1, |_, offset, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v += offset + j + 1;
                    }
                });
                assert_each_index_once(&data, 1, &what);

                let mut data = vec![0usize; 3 * len];
                pool.for_each_block_mut(&mut data, 3, 1, |b, block| {
                    assert_eq!(block.len(), 3, "{what}");
                    for (j, v) in block.iter_mut().enumerate() {
                        *v += 3 * b + j + 1;
                    }
                });
                assert_each_index_once(&data, 1, &what);

                let (mut a, mut b) = (vec![0usize; len], vec![0usize; len]);
                pool.zip_chunks_mut(&mut a, &mut b, 1, |_, offset, ca, cb| {
                    assert_eq!(ca.len(), cb.len(), "{what}");
                    for (j, (x, y)) in ca.iter_mut().zip(cb).enumerate() {
                        *x += offset + j + 1;
                        *y += 2 * (offset + j + 1);
                    }
                });
                assert_each_index_once(&a, 1, &what);
                assert_each_index_once(&b, 2, &what);

                let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = pool.map(len, 1, |i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i + 1
                });
                assert_each_index_once(&out, 1, &what);
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_task_in_any_slice_primitive_reaches_the_submitter() {
        fn boom(i: usize) {
            if i == 5 {
                panic!("boom");
            }
        }
        for threads in [1usize, 3] {
            let pool = ThreadPool::with_threads(threads);
            let mut a = vec![0usize; 12];
            let mut b = vec![0usize; 12];
            type Primitive<'a> = &'a dyn Fn(&mut [usize], &mut [usize]);
            let primitives: [(&str, Primitive); 4] = [
                ("for_each_chunk_mut", &|a, _| {
                    pool.for_each_chunk_mut(a, 1, |_, offset, c| {
                        (offset..offset + c.len()).for_each(boom)
                    })
                }),
                ("for_each_block_mut", &|a, _| {
                    pool.for_each_block_mut(a, 1, 1, |i, _| boom(i))
                }),
                ("zip_chunks_mut", &|a, b| {
                    pool.zip_chunks_mut(a, b, 1, |_, offset, c, _| {
                        (offset..offset + c.len()).for_each(boom)
                    })
                }),
                ("map", &|a, _| drop(pool.map(a.len(), 1, boom))),
            ];
            for (name, primitive) in primitives {
                let result = catch_unwind(AssertUnwindSafe(|| primitive(&mut a, &mut b)));
                assert!(
                    result.is_err(),
                    "{name} at {threads} threads swallowed the panic"
                );
                // The pool runs the next batch normally.
                let out = pool.map(8, 1, |i| i + 1);
                assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8], "after {name}");
            }
        }
    }

    #[test]
    fn chunk_count_respects_grain_and_threads() {
        assert_eq!(chunk_count(0, 8, 1), 0);
        assert_eq!(chunk_count(5, 8, 10), 1);
        assert_eq!(chunk_count(100, 8, 10), 8);
        assert_eq!(chunk_count(30, 8, 10), 3);
        assert_eq!(chunk_count(100, 1, 1), 1);
    }

    #[test]
    fn env_fallback_is_sane() {
        // Whatever the environment, the resolved count is at least one.
        let pool = ThreadPool::new();
        assert!(pool.num_threads() >= 1);
    }
}
