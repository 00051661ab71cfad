//! Deterministic parallel execution layer.
//!
//! A small persistent worker pool plus index-partitioned helpers
//! ([`par_for`], [`par_map`], [`par_chunks_mut`]). The contract that the
//! rest of the workspace builds on:
//!
//! **Determinism.** Work is split by *task index*, never by worker. Each
//! task computes a predetermined, disjoint part of the output with exactly
//! the same floating-point operation order as the serial code, so results
//! are bitwise identical at any thread count — including 1, which takes a
//! serial inline path that never touches the pool.
//!
//! **Thread budget.** Resolution order: the thread-local [`with_threads`]
//! override (tests) → the `AUTOMC_THREADS` environment variable (read
//! once) → the process-wide [`configure_threads`] knob (the bench
//! harness's scale config) → available hardware parallelism, probed at
//! most once per process and only when every earlier layer is unset.
//! Every kernel call resolves the budget, so resolution must stay free of
//! syscalls: `std::thread::available_parallelism` re-reads the cgroup
//! files on each call.
//!
//! **Panics.** A panicking task does not poison the pool: the panic is
//! caught on the worker, the run is drained, and the submitting caller
//! re-panics after all sibling tasks finish. The re-raised panic carries
//! the lowest-indexed failing task's index and original payload message,
//! so callers (and their `catch_unwind` supervisors) see *what* failed.
//!
//! Besides the instruction-set dispatch in [`crate::isa`], the pool is the
//! one place in the tensor crate that needs `unsafe`: the submitting call
//! blocks until every task of its run has finished, so borrowed task
//! closures are only ever dereferenced while they are alive; workers that
//! arrive late see an exhausted run and never touch the job pointer.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ------------------------------------------------------------------------
// Thread-count resolution
// ------------------------------------------------------------------------

/// Process-wide knob set by [`configure_threads`] (0 = auto).
static KNOB: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Test override; `usize::MAX` = unset.
    static OVERRIDE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// `AUTOMC_THREADS`, parsed once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("AUTOMC_THREADS").ok().and_then(|s| s.trim().parse().ok())
    })
}

/// Available hardware parallelism, probed once per process.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pure thread-budget resolution: override → env → knob → hardware, where
/// 0 (or an unset layer) defers to the next one. Always ≥ 1. `hardware`
/// is called only when the other three layers are all unset.
pub fn resolve_threads(
    override_threads: Option<usize>,
    env: Option<usize>,
    knob: usize,
    hardware: impl FnOnce() -> usize,
) -> usize {
    let n = override_threads
        .filter(|&n| n > 0)
        .or(env.filter(|&n| n > 0))
        .unwrap_or(knob);
    if n == 0 {
        hardware().max(1)
    } else {
        n
    }
}

/// The thread budget parallel helpers use right now, on this thread.
pub fn current_threads() -> usize {
    let ov = OVERRIDE.with(Cell::get);
    let ov = if ov == usize::MAX { None } else { Some(ov) };
    resolve_threads(ov, env_threads(), KNOB.load(Ordering::Relaxed), hardware_threads)
}

/// Set the process-wide thread knob (0 = auto). `AUTOMC_THREADS` still
/// takes precedence, so a user can override a configured experiment.
pub fn configure_threads(n: usize) {
    KNOB.store(n, Ordering::Relaxed);
}

/// Run `f` with the thread budget forced to `n` on this thread (0 = auto).
/// Overrides both the env var and the knob — intended for tests.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(n));
    let _restore = Restore(prev);
    f()
}

// ------------------------------------------------------------------------
// The pool
// ------------------------------------------------------------------------

/// Type-erased borrowed task closure. Soundness: `run_tasks` does not
/// return until every task index has been claimed *and executed*, so
/// `data` outlives every dereference; late workers observe
/// `next >= total` and never touch it.
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: `data` points to a closure that `par_for` requires to be
// `Sync`, and workers only call it through a shared reference; `call` is
// a plain function pointer.
unsafe impl Send for Job {}
// SAFETY: as for `Send`: shared access to `Job` only ever calls the
// `Sync` closure behind `data`.
unsafe impl Sync for Job {}

/// One submitted batch of `total` tasks.
struct RunState {
    job: Job,
    next: AtomicUsize,
    total: usize,
    /// Tasks not yet finished; the finisher of the last one flags `done`.
    pending: AtomicUsize,
    panicked: AtomicBool,
    /// `(task index, payload message)` of the lowest-indexed panicking
    /// task, kept so the submitting caller can re-raise something more
    /// actionable than "a task panicked somewhere".
    panic_info: Mutex<Option<(usize, String)>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// Render a caught panic payload as text. Panics carry `&str` or `String`
/// payloads in practice; anything else is reported by type only.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<RunState>>>,
    queue_cv: Condvar,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Make sure at least `want` detached workers exist (daemon threads; the
/// OS reclaims them at process exit).
fn ensure_workers(want: usize) {
    let p = pool();
    let mut n = p.spawned.lock().unwrap();
    while *n < want {
        let name = format!("automc-par-{}", *n);
        std::thread::Builder::new()
            .name(name)
            .spawn(|| worker_loop(pool()))
            .expect("spawn pool worker");
        *n += 1;
    }
}

fn worker_loop(p: &'static Pool) {
    loop {
        let run = {
            let mut q = p.queue.lock().unwrap();
            loop {
                if let Some(run) = q.front() {
                    break Arc::clone(run);
                }
                q = p.queue_cv.wait(q).unwrap();
            }
        };
        execute_tasks(&run);
        retire(p, &run);
    }
}

/// Claim and run task indices until the run is exhausted.
fn execute_tasks(run: &RunState) {
    loop {
        let i = run.next.fetch_add(1, Ordering::Relaxed);
        if i >= run.total {
            return;
        }
        let job = &run.job;
        // SAFETY: `run_tasks` does not return until every claimed index
        // has executed, so the closure behind `job.data` is alive, and
        // `job.call` was instantiated for that closure's type.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, i) }));
        if let Err(payload) = outcome {
            let mut info = run.panic_info.lock().unwrap();
            // Tasks may fail on any worker in any order; keep the
            // lowest-indexed failure so the re-raised message is stable.
            if info.as_ref().map_or(true, |(first, _)| i < *first) {
                *info = Some((i, payload_message(payload.as_ref())));
            }
            drop(info);
            run.panicked.store(true, Ordering::Release);
        }
        // The Release half of this RMW publishes the task's output writes;
        // the chain of RMWs hands them to whoever observes pending == 0.
        if run.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = run.done.lock().unwrap();
            *done = true;
            run.done_cv.notify_all();
        }
    }
}

/// Drop an exhausted run from the queue so workers stop picking it up.
fn retire(p: &Pool, run: &Arc<RunState>) {
    if run.next.load(Ordering::Relaxed) >= run.total {
        let mut q = p.queue.lock().unwrap();
        if let Some(pos) = q.iter().position(|r| Arc::ptr_eq(r, run)) {
            q.remove(pos);
        }
    }
}

/// Run `total` tasks on the pool with `threads` as the budget hint. The
/// caller participates (so a pool worker submitting a nested run cannot
/// deadlock) and blocks until every task has finished.
fn run_tasks(job: Job, total: usize, threads: usize) {
    ensure_workers(threads.saturating_sub(1));
    let run = Arc::new(RunState {
        job,
        next: AtomicUsize::new(0),
        total,
        pending: AtomicUsize::new(total),
        panicked: AtomicBool::new(false),
        panic_info: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    let p = pool();
    {
        let mut q = p.queue.lock().unwrap();
        q.push_back(Arc::clone(&run));
    }
    p.queue_cv.notify_all();
    execute_tasks(&run);
    retire(p, &run);
    let mut done = run.done.lock().unwrap();
    while !*done {
        done = run.done_cv.wait(done).unwrap();
    }
    drop(done);
    if run.panicked.load(Ordering::Acquire) {
        let (index, msg) = run
            .panic_info
            .lock()
            .unwrap()
            .take()
            .unwrap_or((usize::MAX, "<missing panic payload>".to_string()));
        panic!("parallel task {index} panicked: {msg}");
    }
}

// ------------------------------------------------------------------------
// Public helpers
// ------------------------------------------------------------------------

/// Run `f(0), …, f(tasks-1)`, possibly concurrently. Serial (in index
/// order, pool untouched) when the thread budget is 1 or there is at most
/// one task. `f` must be safe to call concurrently for distinct indices.
pub fn par_for<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = current_threads();
    if threads <= 1 || tasks <= 1 {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    /// # Safety
    ///
    /// `data` must point to a live `F`.
    unsafe fn call_erased<F: Fn(usize)>(data: *const (), i: usize) {
        // SAFETY: the caller guarantees `data` points to a live `F`.
        unsafe { (*(data as *const F))(i) }
    }
    let job = Job {
        data: (&raw const f).cast(),
        call: call_erased::<F>,
    };
    run_tasks(job, tasks, threads);
}

/// `(0..tasks).map(f).collect()`, computed in parallel; output order is
/// by index regardless of scheduling.
pub fn par_map<T, F>(tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(tasks, || None);
    let base = SendPtr(out.as_mut_ptr());
    par_for(tasks, move |i| {
        // SAFETY: `i < tasks = out.len()`, each task writes only slot `i`,
        // and `out` outlives `par_for`, so the writes never alias.
        unsafe { *base.get().add(i) = Some(f(i)) };
    });
    out.into_iter().map(|v| v.expect("task filled its slot")).collect()
}

/// Split `data` into consecutive chunks of `chunk_len` (the last may be
/// short) and run `f(chunk_index, chunk)` for each, possibly concurrently.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    let tasks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    par_for(tasks, move |i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: `start..end` lies within `data`, chunks of distinct
        // indices are disjoint, and `data` is borrowed for the whole call.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, chunk);
    });
}

/// Partition *two* slices by the same task index and run
/// `f(i, chunk_a, chunk_b)` for each, possibly concurrently. Both slices
/// are cut into consecutive chunks (`a_chunk` / `b_chunk` elements, last
/// chunks may be short) and must yield the same task count. Lets a kernel
/// write a disjoint output chunk while *also* owning a disjoint scratch
/// chunk (e.g. conv writing its output item and its im2col column slab)
/// without allocating per task.
pub fn par_chunks_mut2<T, U, F>(a: &mut [T], a_chunk: usize, b: &mut [U], b_chunk: usize, f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(a_chunk > 0 && b_chunk > 0, "chunk lengths must be positive");
    let (a_len, b_len) = (a.len(), b.len());
    let tasks = a_len.div_ceil(a_chunk);
    assert_eq!(
        tasks,
        b_len.div_ceil(b_chunk),
        "par_chunks_mut2: slices disagree on task count"
    );
    let base_a = SendPtr(a.as_mut_ptr());
    let base_b = SendPtr(b.as_mut_ptr());
    par_for(tasks, move |i| {
        let (sa, ea) = (i * a_chunk, (i * a_chunk + a_chunk).min(a_len));
        let (sb, eb) = (i * b_chunk, (i * b_chunk + b_chunk).min(b_len));
        // SAFETY: both ranges lie within their slices, chunks of distinct
        // indices are disjoint, and both slices are borrowed for the call.
        let ca = unsafe { std::slice::from_raw_parts_mut(base_a.get().add(sa), ea - sa) };
        // SAFETY: as for `ca`.
        let cb = unsafe { std::slice::from_raw_parts_mut(base_b.get().add(sb), eb - sb) };
        f(i, ca, cb);
    });
}

/// Raw pointer wrapper that may cross threads; all uses above write
/// disjoint regions per task index. Accessed via [`SendPtr::get`] so
/// closures capture the `Sync` wrapper, not the bare pointer field.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer addresses `T: Send` data that each task reaches
// only in its own disjoint region (see the uses above).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: sharing the wrapper shares only the address.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Even split of `0..n` into at most `parts` contiguous ranges. The split
/// depends only on `(n, parts)` — never on scheduling — so partitioned
/// kernels stay deterministic.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn resolution_precedence() {
        // override > env > knob > hardware; zeros defer.
        assert_eq!(resolve_threads(Some(3), Some(5), 7, || 9), 3);
        assert_eq!(resolve_threads(None, Some(5), 7, || 9), 5);
        assert_eq!(resolve_threads(None, None, 7, || 9), 7);
        assert_eq!(resolve_threads(None, None, 0, || 9), 9);
        assert_eq!(resolve_threads(Some(0), Some(0), 0, || 9), 9);
        assert_eq!(resolve_threads(None, None, 0, || 0), 1);
    }

    #[test]
    fn hardware_probe_runs_only_when_every_layer_is_unset() {
        let probe = || -> usize { panic!("hardware probed although a budget was pinned") };
        assert_eq!(resolve_threads(Some(2), None, 0, probe), 2);
        assert_eq!(resolve_threads(None, Some(3), 0, probe), 3);
        assert_eq!(resolve_threads(None, None, 4, probe), 4);
        assert_eq!(resolve_threads(Some(0), Some(0), 5, probe), 5);
        let calls = Cell::new(0);
        let counted = || {
            calls.set(calls.get() + 1);
            6
        };
        assert_eq!(resolve_threads(Some(0), None, 0, counted), 6);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn with_threads_scopes_the_override() {
        let outside = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outside);
    }

    #[test]
    fn par_for_runs_every_index_once() {
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
                par_for(97, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        for threads in [1, 2, 4] {
            let out = with_threads(threads, || par_map(33, |i| i * i));
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_mut_covers_disjointly() {
        for threads in [1, 3] {
            with_threads(threads, || {
                let mut data = vec![0u32; 103];
                par_chunks_mut(&mut data, 10, |ci, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (ci * 10 + k) as u32 + 1;
                    }
                });
                assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
            });
        }
    }

    #[test]
    fn par_chunks_mut2_pairs_chunks_by_index() {
        for threads in [1, 4] {
            with_threads(threads, || {
                let mut out = vec![0u32; 12];
                let mut scratch = vec![0u32; 18];
                par_chunks_mut2(&mut out, 4, &mut scratch, 6, |ci, o, s| {
                    assert_eq!(o.len(), 4);
                    assert_eq!(s.len(), 6);
                    for v in s.iter_mut() {
                        *v = ci as u32 + 1;
                    }
                    for v in o.iter_mut() {
                        *v = s.iter().sum();
                    }
                });
                assert_eq!(out, vec![6, 6, 6, 6, 12, 12, 12, 12, 18, 18, 18, 18]);
            });
        }
    }

    #[test]
    #[should_panic(expected = "task count")]
    fn par_chunks_mut2_rejects_mismatched_partitions() {
        let mut a = vec![0u8; 10];
        let mut b = vec![0u8; 10];
        par_chunks_mut2(&mut a, 2, &mut b, 4, |_, _, _| {});
    }

    #[test]
    fn nested_runs_complete() {
        with_threads(4, || {
            let total = AtomicU64::new(0);
            par_for(6, |i| {
                let inner: u64 = par_map(5, |j| (i * 5 + j) as u64).iter().sum();
                total.fetch_add(inner, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), (0..30).sum::<u64>());
        });
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        with_threads(4, || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                par_for(8, |i| {
                    if i == 5 {
                        panic!("task 5 boom");
                    }
                });
            }));
            assert!(result.is_err());
            // Pool still functional afterwards.
            assert_eq!(par_map(4, |i| i).len(), 4);
        });
    }

    #[test]
    fn repanic_carries_first_failing_index_and_payload() {
        for threads in [1, 4] {
            with_threads(threads, || {
                let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    par_for(8, |i| {
                        if i == 3 {
                            panic!("boom at {i}");
                        }
                        if i == 6 {
                            panic!("boom at {i}");
                        }
                    });
                }))
                .unwrap_err();
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<opaque>");
                // With 1 thread task 3 fires first and the inline panic
                // propagates as-is; on the pool the re-raise must name
                // the lowest failing index and quote its payload.
                assert!(msg.contains("boom at 3"), "got: {msg}");
                if threads > 1 {
                    assert!(msg.contains("parallel task 3"), "got: {msg}");
                }
                // Pool still functional afterwards.
                assert_eq!(par_map(4, |i| i).len(), 4);
            });
        }
    }

    #[test]
    fn split_ranges_cover_exactly() {
        for (n, parts) in [(10, 3), (3, 10), (0, 4), (16, 4), (1, 1), (7, 7)] {
            let ranges = split_ranges(n, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n, "ranges must tile 0..{n}");
            if n > 0 {
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "split of {n} into {parts} is uneven: {sizes:?}");
            }
        }
    }

    #[test]
    fn serial_budget_runs_inline_in_index_order() {
        with_threads(1, || {
            let order = Mutex::new(Vec::new());
            let caller = std::thread::current().id();
            par_for(5, |i| {
                assert_eq!(std::thread::current().id(), caller, "1 thread must stay inline");
                order.lock().unwrap().push(i);
            });
            assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        });
    }
}
