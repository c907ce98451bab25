//! An OpenMP-style parallel runtime on the persistent worker pool.
//!
//! The NPB, LULESH and HPCC ports thread through these helpers. Rayon was
//! deliberately not used (see DESIGN.md §6): a hand-rolled OpenMP-like
//! runtime keeps `parallel for` semantics — and the fork/join cost the
//! runtime model in `ookami-mem::scaling` charges — explicit.
//!
//! Since the pool rework (DESIGN.md §4), these free functions are thin
//! wrappers over [`Pool::global`]: workers persist across regions and
//! regions cost a wakeup plus a sense-reversing barrier instead of a
//! `thread::spawn`/`join` round trip. `threads == 0` means "auto"
//! ([`auto_threads`]). The `*_with` variants additionally take a
//! [`Schedule`]; the plain forms keep the seed's static schedule and exact
//! chunk splits.

use crate::pool::{Pool, Schedule};

pub use crate::pool::auto_threads;

/// A raw pointer that may cross the pool's thread boundary, keeping its
/// provenance intact (no round-trip through `usize`, which strict
/// provenance — Miri's `-Zmiri-strict-provenance`, CHERI-style targets —
/// rejects). The workload crates use this to hand each logical thread a
/// disjoint window of one buffer.
///
/// Creating and copying a `SendPtr` is safe; all the usual raw-pointer
/// obligations apply at dereference time ([`SendPtr::slice_mut`],
/// [`SendPtr::ptr`]).
pub struct SendPtr<T>(*mut T);

// Manual impls: the derives would add an unwanted `T: Clone`/`T: Copy`
// bound, but the wrapper is a pointer — always copyable.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the wrapper only carries the address; every dereference happens
// inside an `unsafe` block whose caller guarantees disjointness (each pool
// chunk derives a non-overlapping window exactly once per region).
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as above — shared `&SendPtr` access only copies the address.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped pointer. Dereferencing it inherits the caller's
    /// aliasing/liveness obligations.
    pub fn ptr(self) -> *mut T {
        self.0
    }

    /// `&mut` slice of `len` elements starting `offset` elements past
    /// the base.
    ///
    /// # Safety
    /// `from_raw_parts_mut` rules: `offset..offset + len` must be in
    /// bounds of the original allocation, live for `'a`, and disjoint
    /// from every other active reference (in the pool's case: each
    /// claimed range derived exactly once per region, and the borrow the
    /// pointer came from outlives the region).
    pub unsafe fn slice_mut<'a>(self, offset: usize, len: usize) -> &'a mut [T] {
        // SAFETY: forwarded to the caller — see the function's contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(offset), len) }
    }
}

/// Static-schedule parallel for over `0..n`: each of `threads` logical
/// threads gets one contiguous range. `f(thread_id, start, end)` must only
/// touch data owned by its range (enforced by the usual borrow rules in
/// callers via `par_chunks_mut`, or by interior synchronization).
/// `threads == 0` resolves to [`auto_threads`].
pub fn par_for<F>(threads: usize, n: usize, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    Pool::global().par_for_with(threads, n, Schedule::Static, f);
}

/// [`par_for`] with an explicit [`Schedule`]. Under `Dynamic`/`Guided`
/// the first argument of `f` is the stealing slot, not a stable thread
/// id, and `f` may be called several times per slot.
pub fn par_for_with<F>(threads: usize, n: usize, sched: Schedule, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    Pool::global().par_for_with(threads, n, sched, f);
}

/// Split `data` into chunks of `chunk_len` items and run
/// `f(chunk_index, chunk)` in parallel. The last chunk may be short.
pub fn par_chunks_mut<T: Send, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_with(threads, data, chunk_len, Schedule::Static, f);
}

/// [`par_chunks_mut`] with an explicit [`Schedule`]. Chunks are claimed
/// by index over the region — no intermediate `Vec<Vec<_>>` of borrows
/// is materialized (each logical thread recomputes its chunk bounds from
/// the base pointer, which is safe because chunk ranges are disjoint).
pub fn par_chunks_mut_with<T: Send, F>(
    threads: usize,
    data: &mut [T],
    chunk_len: usize,
    sched: Schedule,
    f: F,
) where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0);
    let len = data.len();
    let n_chunks = len.div_ceil(chunk_len);
    if n_chunks == 0 {
        return;
    }
    let base = SendPtr::new(data.as_mut_ptr());
    Pool::global().par_for_with(threads, n_chunks, sched, |_, s, e| {
        for i in s..e {
            let start = i * chunk_len;
            let end = ((i + 1) * chunk_len).min(len);
            // SAFETY: chunk `i` covers `start..end` of the original
            // slice; distinct `i` never overlap, every `i` is claimed
            // exactly once per region, and the borrow of `data` outlives
            // the region (the caller blocks until the pool's barrier).
            let chunk = unsafe { base.slice_mut(start, end - start) };
            f(i, chunk);
        }
    });
}

/// Parallel reduction over `0..n`: map each range with `f`, combine with
/// `combine` (associative), starting from `init`. Partials are combined
/// in logical-thread order, so the result is deterministic for a given
/// `(threads, n)` on any machine.
pub fn par_reduce<A, F, C>(threads: usize, n: usize, init: A, f: F, combine: C) -> A
where
    A: Send + Clone,
    F: Fn(usize, usize, A) -> A + Sync,
    C: Fn(A, A) -> A,
{
    Pool::global().par_reduce_with(threads, n, Schedule::Static, init, f, combine)
}

/// [`par_reduce`] with an explicit [`Schedule`]. Under `Dynamic`/`Guided`
/// the combine order follows stealing slots, so `combine` should be
/// associative and (for reproducibility across runs) commutative.
pub fn par_reduce_with<A, F, C>(
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
    Pool::global().par_reduce_with(threads, n, sched, init, f, combine)
}

/// The seed runtime's spawn-per-region `par_for`: `threads` fresh OS
/// threads per call via `std::thread::scope`. Kept as the measured
/// baseline for the pool's fork/join overhead probe (`forkjoin` bin)
/// and for differential tests.
pub fn spawn_par_for<F>(threads: usize, n: usize, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        f(0, 0, n);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(n);
            if start >= end {
                continue;
            }
            let f = &f;
            s.spawn(move || f(t, start, end));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_for_covers_range_exactly_once() {
        let n = 10_007;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(7, n, |_, s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_single_thread_and_empty() {
        let mut count = 0usize;
        par_for(1, 5, |_, s, e| {
            // single-thread path runs inline, so this closure could mutate
            // via a cell; here we just assert the full range arrives.
            assert_eq!((s, e), (0, 5));
        });
        par_for(4, 0, |_, _, _| panic!("must not run"));
        count += 1;
        assert_eq!(count, 1);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut v = vec![0usize; 1000];
        par_chunks_mut(5, &mut v, 13, |i, c| {
            for x in c.iter_mut() {
                *x = i + 1;
            }
        });
        // Every element assigned its chunk index + 1.
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 13 + 1);
        }
    }

    #[test]
    fn par_reduce_sums() {
        let s = par_reduce(
            6,
            1_000,
            0u64,
            |a, b, acc| acc + (a as u64..b as u64).sum::<u64>(),
            |x, y| x + y,
        );
        assert_eq!(s, 499_500);
    }

    #[test]
    fn par_reduce_more_threads_than_items() {
        let s = par_reduce(64, 3, 0u64, |a, b, acc| acc + (b - a) as u64, |x, y| x + y);
        assert_eq!(s, 3);
    }

    #[test]
    fn par_for_more_threads_than_items() {
        let n = 3;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(16, n, |_, s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    // --- pool-era additions ---

    #[test]
    fn auto_threads_is_positive_and_zero_means_auto() {
        assert!(auto_threads() >= 1);
        let hits = AtomicUsize::new(0);
        par_for(0, 100, |_, s, e| {
            hits.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn par_for_matches_spawn_baseline_splits() {
        // The pool's Static schedule must produce bit-for-bit the same
        // (tid, start, end) triples as the seed's spawn-per-region code.
        for (threads, n) in [(7, 10_007), (4, 16), (16, 3), (3, 1)] {
            let a = std::sync::Mutex::new(Vec::new());
            let b = std::sync::Mutex::new(Vec::new());
            par_for(threads, n, |t, s, e| a.lock().unwrap().push((t, s, e)));
            spawn_par_for(threads, n, |t, s, e| b.lock().unwrap().push((t, s, e)));
            let mut a = a.into_inner().unwrap();
            let mut b = b.into_inner().unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "threads={threads} n={n}");
        }
    }

    #[test]
    fn par_chunks_mut_dynamic_schedule() {
        let mut v = vec![0usize; 997];
        par_chunks_mut_with(8, &mut v, 10, Schedule::Dynamic { chunk: 3 }, |i, c| {
            for x in c.iter_mut() {
                *x = i + 1;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 10 + 1);
        }
    }

    #[test]
    fn par_reduce_guided_sums() {
        let s = par_reduce_with(
            8,
            100_000,
            Schedule::Guided,
            0u64,
            |a, b, acc| acc + (a as u64..b as u64).sum::<u64>(),
            |x, y| x + y,
        );
        assert_eq!(s, 100_000u64 * 99_999 / 2);
    }
}
