//! Persistent worker pool for the parallel runtime.
//!
//! The seed runtime spawned and joined fresh OS threads on every
//! `par_for`/`par_reduce`/`par_chunks_mut` call, so every NPB timestep,
//! LULESH hydro step and DGEMM panel paid thread-creation cost where an
//! OpenMP program pays a barrier. This module replaces that with the
//! fork/join structure the paper's §V/§VI scaling results assume:
//!
//! * workers are created once and **parked between regions** on a
//!   `parking_lot` condvar;
//! * a region is published as an epoch bump + task pointer; all workers
//!   wake, multiplex the region's *logical* threads over the pool via an
//!   atomic cursor, and meet the caller at a **reusable sense-reversing
//!   barrier**;
//! * three OpenMP-style [`Schedule`]s: `Static` (contiguous chunks,
//!   bit-for-bit the seed's split for any requested thread count),
//!   `Dynamic` (atomic-counter chunk stealing for irregular iterations),
//!   and `Guided` (geometrically shrinking chunks);
//! * worker panics are caught and re-raised on the caller with their
//!   original payload;
//! * top-level regions are **serialized by a region lock** held for the
//!   whole fork/join, so independent threads may drive one pool (e.g.
//!   [`Pool::global`], or tests under the parallel harness) safely —
//!   a second caller queues instead of clobbering the active region's
//!   task slot and over-subscribing the barrier;
//! * a global pool, lazily initialized and sized from
//!   `std::thread::available_parallelism`, backs the free functions in
//!   [`crate::runtime`].
//!
//! Logical threads are decoupled from OS threads: `par_for(8, …)` always
//! splits work into the same 8 ranges no matter how many workers exist,
//! so results are reproducible across machines while the pool supplies
//! whatever concurrency the hardware has.

use crate::obs::{self, Counter};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Loop schedule for a parallel region, mirroring OpenMP's `schedule`
/// clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Each logical thread takes one contiguous chunk of the iteration
    /// space. Deterministic: identical ranges for a given `(threads, n)`
    /// regardless of pool size.
    Static,
    /// Logical threads repeatedly steal fixed-size chunks from a shared
    /// atomic counter — the right choice for irregular iterations (CG's
    /// sparse rows, UA's refined leaves, LU's hyperplanes).
    Dynamic { chunk: usize },
    /// Like `Dynamic`, but chunk sizes start at `remaining / (2 ×
    /// threads)` and shrink geometrically, trading steal overhead
    /// against tail imbalance.
    Guided,
}

/// Reusable sense-reversing barrier. All `total` participants call
/// [`SenseBarrier::wait`]; the last arrival resets the count and flips
/// the sense, releasing the spinners. Reusable immediately: a
/// participant of the next phase observes the flipped sense as its new
/// "entry" sense.
pub struct SenseBarrier {
    total: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SenseBarrier {
    pub fn new(total: usize) -> Self {
        assert!(total > 0);
        SenseBarrier {
            total,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    pub fn wait(&self) {
        // `enabled()` is const, so the timing folds away without `obs`.
        let start = if obs::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let my_sense = !self.sense.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival: reset for the next phase, then release.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed or long-tailed region: let the
                    // remaining participants run.
                    std::thread::yield_now();
                }
            }
        }
        if let Some(t) = start {
            let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs::add(Counter::BarrierWaitNs, ns);
            crate::timeline::barrier_wait(ns);
        }
    }
}

/// Erased borrowed task; valid strictly between region publication and
/// barrier completion, which `Pool::run_dyn` guarantees by not returning
/// until every participant has arrived.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (bound in the type), and the pool's
// barrier protocol keeps the borrow alive until every worker is done with
// it — workers only read the pointer between publication and completion.
unsafe impl Send for TaskPtr {}

struct State {
    epoch: u64,
    parts: usize,
    task: Option<TaskPtr>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    /// Next unclaimed logical thread index of the active region.
    cursor: AtomicUsize,
    /// Completion barrier: every worker plus the caller, every region.
    barrier: SenseBarrier,
    /// First panic payload observed in the active region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Workers that have registered their obs thread-local slab. `Pool::new`
    /// waits for all of them so an `obs::snapshot()`/`obs::reset()` taken
    /// right after construction deterministically covers every (still
    /// parked) worker.
    ready: AtomicUsize,
}

thread_local! {
    /// True while this OS thread is executing inside a parallel region
    /// (worker threads: always). Nested regions run inline to keep
    /// OpenMP's nested-off default and to make nesting deadlock-free.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Persistent fork/join worker pool. See the module docs for the
/// execution model.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes top-level regions: held by the caller for the whole
    /// fork/join, so concurrent `run` calls queue rather than race on
    /// the task slot / cursor / panic slot / barrier.
    region: Mutex<()>,
}

/// Logical thread count from the OS (`available_parallelism`), the
/// value `threads == 0` resolves to in the `par_*` helpers.
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

impl Pool {
    /// Pool with `workers` background threads; a region therefore has up
    /// to `workers + 1` OS threads working in it (the caller
    /// participates). `workers == 0` is valid: every region runs inline
    /// on the caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                parts: 0,
                task: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            barrier: SenseBarrier::new(workers + 1),
            panic: Mutex::new(None),
            ready: AtomicUsize::new(0),
        });
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ookami-pool-{i}"))
                    .spawn(move || worker_main(shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        // Block until every worker has registered with the obs registry, so
        // counter snapshots never race worker startup (satellite invariant:
        // a snapshot taken before a worker's first region still covers it).
        while shared.ready.load(Ordering::Acquire) < workers {
            std::thread::yield_now();
        }
        Pool {
            shared,
            handles,
            region: Mutex::new(()),
        }
    }

    /// The lazily-initialized global pool, sized so that caller +
    /// workers == `auto_threads()`.
    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool::new(auto_threads().saturating_sub(1)))
    }

    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Fork a region of `parts` logical threads: `f(i)` runs exactly
    /// once for every `i in 0..parts`, distributed over the pool (caller
    /// included), then all participants join. Panics inside `f` are
    /// re-raised here with their original payload. Concurrent top-level
    /// calls on one pool are safe: regions are serialized, so a second
    /// caller blocks until the active region completes.
    pub fn run<F: Fn(usize) + Sync>(&self, parts: usize, f: F) {
        self.run_dyn(parts, &f);
    }

    fn run_dyn(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        if parts == 0 {
            return;
        }
        // Nested regions and worker-less pools execute inline; the
        // IN_PARALLEL flag stays set so deeper nesting is inline too.
        if parts == 1 || self.handles.is_empty() || IN_PARALLEL.get() {
            obs::add(Counter::RegionsInline, 1);
            obs::add(Counter::RegionParts, parts as u64);
            let was = IN_PARALLEL.replace(true);
            let mut panicked = None;
            for i in 0..parts {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    panicked = Some(p);
                    break;
                }
            }
            IN_PARALLEL.set(was);
            if let Some(p) = panicked {
                resume_unwind(p);
            }
            return;
        }

        // One top-level region at a time. Without this, a second caller
        // would overwrite the active region's task pointer, parts and
        // cursor, and the barrier (sized workers + 1) would see
        // workers + 2 participants — releasing one caller while workers
        // may still hold its borrowed closure. Held until after the
        // completion barrier below; dropped during unwind if the region
        // panicked. Nested regions never reach this point (they run
        // inline via the IN_PARALLEL check above), so the lock cannot
        // self-deadlock.
        let _region = self.region.lock();
        obs::add(Counter::RegionsForked, 1);
        obs::add(Counter::RegionParts, parts as u64);
        crate::timeline::fork(parts);

        // SAFETY: the pointee outlives the region — run_dyn does not
        // return until every participant has passed the barrier, and
        // workers only dereference the pointer before arriving at it.
        // A plain `as` cast cannot erase the trait object's lifetime
        // bound, so this stays a transmute.
        #[allow(clippy::transmute_ptr_to_ptr)]
        let task = TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f)
        });

        {
            let mut g = self.shared.state.lock();
            debug_assert!(g.task.is_none(), "region published while another is active");
            self.shared.cursor.store(0, Ordering::Relaxed);
            *self.shared.panic.lock() = None;
            g.parts = parts;
            g.task = Some(task);
            g.epoch += 1;
            drop(g);
            self.shared.work_cv.notify_all();
        }

        let was = IN_PARALLEL.replace(true);
        execute_parts(&self.shared, parts, f);
        IN_PARALLEL.set(was);

        self.shared.barrier.wait();
        crate::timeline::join(parts);
        // Region complete; clear the task slot for the next region (and
        // for the debug_assert above).
        self.shared.state.lock().task = None;
        if let Some(p) = self.shared.panic.lock().take() {
            resume_unwind(p);
        }
    }
}

/// Claim and execute logical threads until the region's cursor is
/// drained, capturing the first panic.
fn execute_parts(shared: &Shared, parts: usize, f: &(dyn Fn(usize) + Sync)) {
    loop {
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= parts {
            break;
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            shared.panic.lock().get_or_insert(p);
            // Curtail the rest of the region: other participants stop
            // claiming new logical threads.
            shared.cursor.store(parts, Ordering::Relaxed);
        }
    }
}

fn worker_main(shared: Arc<Shared>) {
    // Eagerly create this worker's obs thread-local slab so global
    // snapshots taken while the worker is parked already include it.
    obs::register_thread();
    shared.ready.fetch_add(1, Ordering::Release);
    IN_PARALLEL.set(true);
    let mut seen_epoch = 0u64;
    loop {
        let (parts, task) = {
            let mut g = shared.state.lock();
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != seen_epoch {
                    break;
                }
                shared.work_cv.wait(&mut g);
            }
            seen_epoch = g.epoch;
            (g.parts, g.task.expect("region published without task"))
        };
        // SAFETY: the caller keeps the closure alive until this worker
        // (a barrier participant) arrives below.
        let f = unsafe { &*task.0 };
        execute_parts(&shared, parts, f);
        shared.barrier.wait();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.state.lock();
            g.shutdown = true;
            drop(g);
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Scheduled loops on a pool
// ---------------------------------------------------------------------

impl Pool {
    /// `par_for` against this pool: run `f(tid, start, end)` over a
    /// partition of `0..n` into `threads` logical threads under `sched`.
    /// For `Static`, `tid` is the logical thread index and each logical
    /// thread receives exactly one call with its contiguous range — the
    /// seed runtime's exact contract. For `Dynamic`/`Guided`, `tid` is
    /// the stealing slot (`0..threads`) and `f` is called once per
    /// claimed chunk.
    pub fn par_for_with<F>(&self, threads: usize, n: usize, sched: Schedule, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let threads = resolve_threads(threads, n);
        let lid = fresh_loop_id();
        if threads == 1 {
            let _chunk = count_chunk(sched, lid, 0, n);
            f(0, 0, n);
            return;
        }
        match sched {
            Schedule::Static => {
                let chunk = n.div_ceil(threads);
                self.run(threads, |t| {
                    let start = t * chunk;
                    let end = ((t + 1) * chunk).min(n);
                    if start < end {
                        let _chunk = count_chunk(sched, lid, start, end);
                        f(t, start, end);
                    }
                });
            }
            Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                let cursor = AtomicUsize::new(0);
                self.run(threads, |slot| loop {
                    let s = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if s >= n {
                        break;
                    }
                    let _chunk = count_chunk(sched, lid, s, (s + chunk).min(n));
                    f(slot, s, (s + chunk).min(n));
                });
            }
            Schedule::Guided => {
                let cursor = AtomicUsize::new(0);
                self.run(threads, |slot| loop {
                    let cur = cursor.load(Ordering::Relaxed);
                    if cur >= n {
                        break;
                    }
                    let c = ((n - cur) / (2 * threads)).max(1);
                    if cursor
                        .compare_exchange_weak(cur, cur + c, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        let _chunk = count_chunk(sched, lid, cur, (cur + c).min(n));
                        f(slot, cur, (cur + c).min(n));
                    }
                });
            }
        }
    }

    /// `par_reduce` against this pool. Partials combine in logical
    /// thread order, so `Static` reductions are deterministic for a
    /// given `(threads, n)` on any machine.
    pub fn par_reduce_with<A, F, C>(
        &self,
        threads: usize,
        n: usize,
        sched: Schedule,
        init: A,
        f: F,
        combine: C,
    ) -> A
    where
        A: Send + Clone,
        F: Fn(usize, usize, A) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        let threads = resolve_threads(threads, n);
        let lid = fresh_loop_id();
        if threads == 1 {
            if n > 0 {
                let _chunk = count_chunk(sched, lid, 0, n);
                return f(0, n, init);
            }
            return f(0, n, init);
        }
        // `A` is only `Send`, not `Sync`, so logical threads may not
        // touch `init` directly; each slot gets a pre-cloned seed behind
        // a mutex (taken at most once: `run` hands out every slot index
        // exactly once per region).
        let seeds: Vec<Mutex<Option<A>>> = (0..threads)
            .map(|_| Mutex::new(Some(init.clone())))
            .collect();
        let take_seed = |slot: usize| slots_take(&seeds, slot);
        let slots: Vec<Mutex<Option<A>>> = (0..threads).map(|_| Mutex::new(None)).collect();
        match sched {
            Schedule::Static => {
                let chunk = n.div_ceil(threads);
                self.run(threads, |t| {
                    let start = t * chunk;
                    let end = ((t + 1) * chunk).min(n);
                    if start < end {
                        let _chunk = count_chunk(sched, lid, start, end);
                        *slots[t].lock() = Some(f(start, end, take_seed(t)));
                    }
                });
            }
            Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                let cursor = AtomicUsize::new(0);
                self.run(threads, |slot| {
                    let mut acc: Option<A> = None;
                    loop {
                        let s = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if s >= n {
                            break;
                        }
                        let _chunk = count_chunk(sched, lid, s, (s + chunk).min(n));
                        let seed = acc.take().unwrap_or_else(|| take_seed(slot));
                        acc = Some(f(s, (s + chunk).min(n), seed));
                    }
                    if acc.is_some() {
                        *slots[slot].lock() = acc;
                    }
                });
            }
            Schedule::Guided => {
                let cursor = AtomicUsize::new(0);
                self.run(threads, |slot| {
                    let mut acc: Option<A> = None;
                    loop {
                        let cur = cursor.load(Ordering::Relaxed);
                        if cur >= n {
                            break;
                        }
                        let c = ((n - cur) / (2 * threads)).max(1);
                        if cursor
                            .compare_exchange_weak(
                                cur,
                                cur + c,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            let _chunk = count_chunk(sched, lid, cur, (cur + c).min(n));
                            let seed = acc.take().unwrap_or_else(|| take_seed(slot));
                            acc = Some(f(cur, (cur + c).min(n), seed));
                        }
                    }
                    if acc.is_some() {
                        *slots[slot].lock() = acc;
                    }
                });
            }
        }
        slots
            .into_iter()
            .filter_map(parking_lot::Mutex::into_inner)
            .fold(init, combine)
    }
}

fn slots_take<A>(seeds: &[Mutex<Option<A>>], slot: usize) -> A {
    seeds[slot].lock().take().expect("reduce seed taken twice")
}

/// Loop ids for timeline chunk events: one fresh id per `par_for_with` /
/// `par_reduce_with` call, process-global, so the race detector can group
/// the chunks of one parallel loop even when several loops interleave on
/// the trace (nested inline regions included).
static NEXT_LOOP_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_loop_id() -> u64 {
    NEXT_LOOP_ID.fetch_add(1, Ordering::Relaxed)
}

/// Count one executed chunk `[s, e)` against the schedule's chunk/iter
/// counters (the iter counters therefore sum to exactly `n` for every
/// completed loop — an invariant the schedule property tests assert) and
/// return a timeline guard: hold it across the chunk body so the trace
/// records the chunk's duration as a complete event.
#[inline]
#[must_use = "hold the guard across the chunk body so its duration is traced"]
fn count_chunk(sched: Schedule, loop_id: u64, s: usize, e: usize) -> crate::timeline::ChunkGuard {
    let (chunks, iters, name) = match sched {
        Schedule::Static => (
            Counter::ChunksStatic,
            Counter::ItersStatic,
            crate::timeline::NAME_STATIC,
        ),
        Schedule::Dynamic { .. } => (
            Counter::ChunksDynamic,
            Counter::ItersDynamic,
            crate::timeline::NAME_DYNAMIC,
        ),
        Schedule::Guided => (
            Counter::ChunksGuided,
            Counter::ItersGuided,
            crate::timeline::NAME_GUIDED,
        ),
    };
    obs::add(chunks, 1);
    obs::add(iters, (e - s) as u64);
    crate::timeline::chunk(name, loop_id, s, e - s)
}

fn resolve_threads(threads: usize, n: usize) -> usize {
    let threads = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    threads.clamp(1, n.max(1))
}

// ---------------------------------------------------------------------
// Fork/join overhead measurement (feeds the OpenMP model constants)
// ---------------------------------------------------------------------

/// Seconds per empty parallel region (fork + barrier + join) on `pool`
/// with `team` logical threads. This is the measured counterpart of
/// `ookami_mem::scaling::BarrierCost`. Warm the pool with one region
/// first, so worker start-up is not billed to the first timed region.
pub fn measure_pool_fork_join(pool: &Pool, team: usize, reps: u32) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..reps {
        pool.run(team, |_| {});
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Seconds per empty region for the seed's spawn-per-region strategy
/// (`team` OS threads spawned and joined each region) — the baseline the
/// pool replaces. The `forkjoin` probe times both against each other.
pub fn measure_spawn_fork_join(team: usize, reps: u32) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::thread::scope(|s| {
            for _ in 0..team {
                s.spawn(|| {});
            }
        });
    }
    start.elapsed().as_secs_f64() / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_all_parts_exactly_once() {
        let pool = Pool::new(3);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_regions() {
        let pool = Pool::new(2);
        let total = AtomicU64::new(0);
        for round in 0..500u64 {
            pool.run(4, |i| {
                total.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        // Σ_round (4·round + 0+1+2+3)
        let want: u64 = (0..500u64).map(|r| 4 * r + 6).sum();
        assert_eq!(total.load(Ordering::Relaxed), want);
    }

    #[test]
    fn nested_regions_do_not_deadlock() {
        let pool = Pool::new(2);
        let count = AtomicUsize::new(0);
        pool.run(4, |_| {
            // Nested region: must run inline rather than re-enter the pool.
            pool.run(4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let pool = Pool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                assert!(i != 5, "part five failed");
            });
        }));
        let payload = res.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "part five failed");
        // The pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(4, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn dynamic_schedule_covers_range_exactly_once_under_contention() {
        let pool = Pool::new(4);
        let n = 100_000;
        for chunk in [1, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.par_for_with(8, n, Schedule::Dynamic { chunk }, |_, s, e| {
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "chunk {chunk} missed or duplicated iterations"
            );
        }
    }

    #[test]
    fn guided_schedule_covers_range_exactly_once() {
        let pool = Pool::new(4);
        let n = 50_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.par_for_with(8, n, Schedule::Guided, |_, s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn static_reduce_is_deterministic_and_ordered() {
        let pool = Pool::new(3);
        // Concatenation is order-sensitive: partials must combine in
        // logical-thread order.
        let s = pool.par_reduce_with(
            5,
            10,
            Schedule::Static,
            String::new(),
            |a, b, mut acc| {
                for i in a..b {
                    acc.push_str(&i.to_string());
                }
                acc
            },
            |x, y| x + &y,
        );
        assert_eq!(s, "0123456789");
    }

    #[test]
    fn dynamic_reduce_sums_correctly() {
        let pool = Pool::new(4);
        let s = pool.par_reduce_with(
            8,
            10_001,
            Schedule::Dynamic { chunk: 13 },
            0u64,
            |a, b, acc| acc + (a as u64..b as u64).sum::<u64>(),
            |x, y| x + y,
        );
        assert_eq!(s, 10_001 * 10_000 / 2);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 0);
        let seen: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        pool.run(10, |i| {
            seen[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sense_barrier_reuses_across_phases() {
        let b = Arc::new(SenseBarrier::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let b = Arc::clone(&b);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    c.fetch_add(1, Ordering::Relaxed);
                    b.wait();
                    b.wait(); // second phase per round
                }
            }));
        }
        for round in 1..=50 {
            b.wait();
            // After the first barrier of the round every thread has
            // incremented exactly `round` times.
            assert_eq!(counter.load(Ordering::Relaxed), 2 * round);
            b.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_top_level_runs_are_serialized() {
        // Several OS threads drive one pool at once (the Pool::global
        // situation under cargo test's parallel harness). Regions must
        // queue, each seeing exactly its own closure and full coverage.
        let pool = Arc::new(Pool::new(3));
        let handles: Vec<_> = (0..4)
            .map(|caller| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let sum = AtomicUsize::new(0);
                        pool.run(8, |i| {
                            sum.fetch_add(caller * 100 + i, Ordering::Relaxed);
                        });
                        // Σ i in 0..8 plus 8 caller tags: proof no other
                        // caller's parts leaked into this region.
                        assert_eq!(sum.load(Ordering::Relaxed), caller * 800 + 28);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[ignore = "timing-sensitive; the real >=5x bar is asserted by the forkjoin probe \
                (cargo run -p ookami-bench --bin forkjoin --release)"]
    fn pool_forkjoin_beats_spawn_per_region() {
        // The acceptance bar (≥5× at 8 workers) is asserted by the
        // overhead probe and recorded in EXPERIMENTS.md; here we keep a
        // conservative 2× smoke check. Ignored by default: on a loaded
        // or low-core CI runner wall-clock ratios are noise.
        let pool = Pool::new(7);
        pool.run(8, |_| {});
        let pooled = measure_pool_fork_join(&pool, 8, 200);
        let spawned = measure_spawn_fork_join(8, 200);
        assert!(
            spawned > 2.0 * pooled,
            "pool {pooled:.2e}s/region vs spawn {spawned:.2e}s/region"
        );
    }
}
