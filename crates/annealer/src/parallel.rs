//! Deterministic fan-out over a persistent worker pool.
//!
//! The device model and the benchmark harness both execute large batches of
//! independent slots (reads, gauge programmings, benchmark instances). Each
//! slot derives its own RNG seed from `(run_seed, stream, indices)`, so the
//! result of a slot depends only on its index — never on execution order —
//! and a run is bit-identical whether it executes on one thread or many.
//!
//! Work is executed by one process-wide pool of persistent worker threads
//! (spawned lazily on first use, parked between batches), instead of
//! spawning and joining a `std::thread::scope` per call: a device run makes
//! two fan-out calls per batch (programmings, then reads), and at
//! high-throughput read rates the per-call thread spawn/join cost becomes
//! measurable. The *chunking* of slots depends only on `(n, threads)` —
//! never on the pool's actual size — which is what keeps results
//! bit-identical across machines and thread counts.

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Stream tag for per-gauge programming randomness.
pub const STREAM_GAUGE: u64 = 0x4741_5547_4521_0001;
/// Stream tag for per-read annealing randomness.
pub const STREAM_READ: u64 = 0x5245_4144_2121_0002;
/// Stream tag for per-instance randomness in the benchmark harness.
pub const STREAM_INSTANCE: u64 = 0x494e_5354_4143_0003;

/// SplitMix64 output function — the standard finalizer used to expand one
/// seed into decorrelated streams.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG seed for slot `(a, b)` of `stream` within the
/// run identified by `run_seed`.
///
/// The derivation chains SplitMix64 over the inputs, so nearby indices (and
/// nearby run seeds) yield unrelated streams. Two slots collide only if the
/// full `(run_seed, stream, a, b)` tuples collide under the hash, which is
/// astronomically unlikely and — more importantly — *stable*: the same
/// tuple always yields the same seed, regardless of thread count.
#[must_use]
pub fn derive_seed(run_seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    let mut x = run_seed;
    for v in [stream, a, b] {
        x = splitmix64(x ^ v);
    }
    x
}

/// Resolves a requested worker count: `0` means "use the machine's
/// available parallelism", anything else is taken literally.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The unit of work the pool schedules: "execute chunk `c` of the current
/// batch". The reference points at a stack closure of the submitting
/// `parallel_map_with` frame; the submitter does not return until every
/// claimed chunk has finished and the task has been uninstalled, so the
/// `'static` extension (done at submission) never outlives the referent.
type TaskRef = &'static (dyn Fn(usize) + Sync);

struct ActiveTask {
    func: TaskRef,
    /// Next unclaimed chunk index.
    next: usize,
    /// Total chunk count of this batch.
    total: usize,
    /// Chunks currently executing (claimed, not yet finished).
    running: usize,
    /// First panic payload caught from a chunk, replayed by the submitter.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set on the first panic: unclaimed chunks are abandoned.
    cancelled: bool,
}

#[derive(Default)]
struct PoolInner {
    task: Option<ActiveTask>,
}

/// Process-wide persistent worker pool. One batch runs at a time
/// (submissions are serialized by `submit`), so concurrent submitters queue
/// behind the batch in flight; workers and the submitting thread claim
/// chunks from the shared counter until the batch drains.
struct Pool {
    inner: Mutex<PoolInner>,
    /// Signalled when a batch is installed (workers wake and claim).
    work: Condvar,
    /// Signalled when the last running chunk of a batch finishes.
    done: Condvar,
    /// Serializes submitters; held for the full duration of a batch.
    submit: Mutex<()>,
}

thread_local! {
    /// True while this thread is executing a chunk (as a pool worker or as
    /// a participating submitter). A nested `parallel_map_with` from such a
    /// context must not block on `submit` — the outer batch would be
    /// waiting for this very chunk — so it runs inline instead.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            inner: Mutex::new(PoolInner::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            submit: Mutex::new(()),
        })
    }

    /// Lazily spawns the worker threads (once). The submitter participates
    /// too, so the pool spawns one thread fewer than the machine's
    /// available parallelism — on a single-core host that is zero threads
    /// and the submitter simply drains every chunk itself.
    fn ensure_workers(&'static self) {
        static SPAWNED: OnceLock<()> = OnceLock::new();
        SPAWNED.get_or_init(|| {
            let workers = resolve_threads(0).saturating_sub(1);
            for w in 0..workers {
                std::thread::Builder::new()
                    .name(format!("mqo-pool-{w}"))
                    .spawn(move || self.worker_loop())
                    .expect("spawning a pool worker");
            }
        });
    }

    fn worker_loop(&self) {
        loop {
            let mut guard = lock(&self.inner);
            loop {
                let claimable = guard
                    .task
                    .as_ref()
                    .is_some_and(|t| !t.cancelled && t.next < t.total);
                if claimable {
                    break;
                }
                guard = self
                    .work
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            self.claim_and_run(guard);
        }
    }

    /// Claims the next chunk of the installed task (the caller has checked
    /// one is claimable), runs it outside the lock, and records the result.
    fn claim_and_run(&self, mut guard: MutexGuard<'_, PoolInner>) {
        let task = guard.task.as_mut().expect("claimable task");
        let chunk = task.next;
        task.next += 1;
        task.running += 1;
        let func = task.func;
        drop(guard);

        let result = catch_unwind(AssertUnwindSafe(|| {
            IN_CHUNK.with(|f| f.set(true));
            func(chunk);
        }));
        IN_CHUNK.with(|f| f.set(false));

        let mut guard = lock(&self.inner);
        let task = guard.task.as_mut().expect("task outlives its chunks");
        task.running -= 1;
        if let Err(payload) = result {
            if task.panic.is_none() {
                task.panic = Some(payload);
            }
            task.cancelled = true;
        }
        if task.running == 0 && (task.cancelled || task.next >= task.total) {
            self.done.notify_all();
        }
    }

    /// Runs `run_chunk(0..num_chunks)` across the pool, with the calling
    /// thread participating. Returns once every chunk has finished;
    /// re-raises the first chunk panic on the caller.
    fn run_batch(&'static self, num_chunks: usize, run_chunk: &(dyn Fn(usize) + Sync)) {
        self.ensure_workers();
        let _submission = lock(&self.submit);
        {
            let mut guard = lock(&self.inner);
            debug_assert!(guard.task.is_none(), "submissions are serialized");
            // SAFETY: the reference is only reachable through `inner.task`,
            // which this function empties again before returning — and it
            // does not return until `running == 0`, so no worker still
            // holds the reference either.
            let func: TaskRef =
                unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), TaskRef>(run_chunk) };
            guard.task = Some(ActiveTask {
                func,
                next: 0,
                total: num_chunks,
                running: 0,
                panic: None,
                cancelled: false,
            });
        }
        self.work.notify_all();

        // Participate: claim chunks alongside the workers.
        loop {
            let guard = lock(&self.inner);
            let task = guard.task.as_ref().expect("task installed above");
            if task.cancelled || task.next >= task.total {
                break;
            }
            self.claim_and_run(guard);
        }

        // Drain: wait for chunks still running on workers.
        let mut guard = lock(&self.inner);
        while guard.task.as_ref().expect("task installed above").running > 0 {
            guard = self
                .done
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let task = guard.task.take().expect("task installed above");
        drop(guard);
        if let Some(payload) = task.panic {
            resume_unwind(payload);
        }
    }
}

/// One chunk's result buffer, padded to its own pair of cache lines so
/// workers filling adjacent chunks never false-share.
#[repr(align(128))]
struct ChunkSlot<T>(UnsafeCell<Vec<T>>);

// SAFETY: each chunk index is claimed by exactly one thread, which is the
// only writer of slot `c`; the submitter reads the slots only after the
// batch has fully drained.
unsafe impl<T: Send> Sync for ChunkSlot<T> {}

/// Maps `f` over the slot indices `0..n` using up to `threads` workers,
/// returning the results in index order.
///
/// Each *chunk* of slots owns one reusable scratch state built by `init`
/// (e.g. a spin buffer plus annealing scratch), threaded through every slot
/// of the chunk — this is how the device model avoids per-read allocations.
/// `f` must derive all randomness from the slot index so the output is
/// independent of the thread count; with `threads <= 1` (or `n <= 1`) the
/// map runs inline on the caller's thread, which is the reference behaviour
/// the parallel path must match. Chunking depends only on `(n, threads)`,
/// so results are bit-identical no matter how many pool workers actually
/// execute the chunks — including nested calls, which run inline through
/// the same chunked path.
///
/// With `threads > 1` the batch goes to the process-wide pool, which runs
/// one batch at a time: concurrent callers queue behind each other. That
/// suits one caller fanning one job over every core (the bench harness). A
/// caller that already runs one task per core (the service's queue workers)
/// passes `threads = 1` so its tasks run side by side instead of in turn
/// (DESIGN.md §6).
pub fn parallel_map_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    // Contiguous chunks: chunk c covers [c*chunk, ...), clamped to n.
    let chunk = n.div_ceil(workers);
    let num_chunks = n.div_ceil(chunk);
    let slots: Vec<ChunkSlot<T>> = (0..num_chunks)
        .map(|_| ChunkSlot(UnsafeCell::new(Vec::new())))
        .collect();
    let run_chunk = |c: usize| {
        let base = c * chunk;
        let end = (base + chunk).min(n);
        let mut state = init();
        let mut out = Vec::with_capacity(end - base);
        for i in base..end {
            out.push(f(&mut state, i));
        }
        // SAFETY: chunk `c` is claimed exactly once (see ChunkSlot).
        unsafe { *slots[c].0.get() = out };
    };

    if IN_CHUNK.with(Cell::get) {
        // Nested fan-out from inside a chunk: the outer batch holds the
        // pool, so execute this batch inline — through the same chunked
        // code path, preserving the per-chunk state semantics.
        for c in 0..num_chunks {
            run_chunk(c);
        }
    } else {
        Pool::global().run_batch(num_chunks, &run_chunk);
    }

    slots.into_iter().flat_map(|s| s.0.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_index_sensitive() {
        let s = derive_seed(42, STREAM_READ, 3, 7);
        assert_eq!(s, derive_seed(42, STREAM_READ, 3, 7));
        assert_ne!(s, derive_seed(42, STREAM_READ, 3, 8));
        assert_ne!(s, derive_seed(42, STREAM_READ, 4, 7));
        assert_ne!(s, derive_seed(42, STREAM_GAUGE, 3, 7));
        assert_ne!(s, derive_seed(43, STREAM_READ, 3, 7));
    }

    #[test]
    fn resolve_threads_honours_explicit_requests() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn map_results_are_in_index_order_for_any_thread_count() {
        let serial = parallel_map_with(
            13,
            1,
            || 0u64,
            |acc, i| {
                *acc += 1;
                (i, *acc)
            },
        );
        for threads in [2, 3, 8, 32] {
            let parallel = parallel_map_with(
                13,
                threads,
                || 0u64,
                |acc, i| {
                    *acc += 1;
                    (i, *acc)
                },
            );
            let idx: Vec<usize> = parallel.iter().map(|&(i, _)| i).collect();
            assert_eq!(idx, (0..13).collect::<Vec<_>>());
            // Per-worker state is chunk-local, so counters restart per chunk;
            // only the index column must match the serial run.
            assert_eq!(serial.iter().map(|&(i, _)| i).collect::<Vec<_>>(), idx);
        }
    }

    #[test]
    fn map_handles_empty_and_single_slots() {
        let empty: Vec<usize> = parallel_map_with(0, 4, || (), |_, i| i);
        assert!(empty.is_empty());
        let one = parallel_map_with(1, 4, || (), |_, i| i * 10);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn chunk_state_restarts_per_chunk_regardless_of_pool_size() {
        // 8 slots at 4 threads → chunk size 2; every chunk's counter starts
        // at zero, so the state column is 1,2,1,2,... regardless of which
        // pool worker ran which chunk.
        let out = parallel_map_with(
            8,
            4,
            || 0u64,
            |acc, i| {
                *acc += 1;
                (i, *acc)
            },
        );
        let states: Vec<u64> = out.iter().map(|&(_, s)| s).collect();
        assert_eq!(states, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn nested_fanout_does_not_deadlock_and_preserves_order() {
        let out = parallel_map_with(
            6,
            3,
            || (),
            |_, i| {
                let inner = parallel_map_with(4, 2, || (), |_, j| i * 10 + j);
                inner.iter().sum::<usize>()
            },
        );
        let expected: Vec<usize> = (0..6).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn concurrent_top_level_batches_are_serialized_not_deadlocked() {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || parallel_map_with(10, 4, || (), move |_, i| t * 100 + i))
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let out = h.join().expect("no panic");
            assert_eq!(out, (0..10).map(|i| t * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_panics_propagate_to_the_caller_and_the_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(
                8,
                4,
                || (),
                |_, i| {
                    assert!(i != 5, "boom at slot 5");
                    i
                },
            )
        });
        assert!(result.is_err(), "the slot-5 panic must reach the caller");
        // The pool keeps working after a panicked batch.
        let out = parallel_map_with(6, 3, || (), |_, i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }
}
