//! Timeline tracer: a lock-free, per-thread ring-buffer event recorder
//! with a Chrome-trace-event (Perfetto-loadable) JSON exporter.
//!
//! The PR-3 `obs` layer answers *how many* events a run retired; this
//! module answers *when and where*: span begin/end pairs (from
//! [`crate::obs::region`]), pool fork/join/chunk/barrier events (from
//! [`crate::pool`]) and periodic counter samples (from the SVE executors)
//! land in per-thread ring buffers and export as a `traceEvents` JSON
//! document that `chrome://tracing` and Perfetto load directly.
//!
//! Design rules, mirroring [`crate::obs`]:
//!
//! * **Zero cost when disabled.** Without the `obs` cargo feature every
//!   hook is an empty `#[inline(always)]` function and [`ChunkGuard`] is a
//!   ZST; with the feature but no active recording, each hook is one
//!   relaxed atomic load.
//! * **Lock-free recording.** Each thread owns a ring of fixed-size event
//!   slots guarded by per-slot sequence numbers (a seqlock): the owner
//!   writes with plain atomic stores and never blocks; the exporter
//!   validates each slot's sequence before and after reading and skips
//!   slots a writer raced it on. No allocation happens on the hot path
//!   after the ring exists (span/counter *names* are interned once under a
//!   mutex — spans and samples are rare next to chunk events, which use
//!   pre-interned names).
//! * **Bounded memory, drop-oldest.** A ring holds the most recent
//!   `capacity` events of its thread; older events are overwritten and
//!   counted in [`TimelineStats::events_dropped`]. The exporter re-balances
//!   span begin/end pairs so a trace whose oldest events were dropped still
//!   nests correctly (orphan ends are discarded, still-open begins are
//!   closed at the last timestamp).
//!
//! ```text
//! timeline::start(1 << 15);
//! { let _span = obs::region("npb_cg"); cg::run(Class::S, 4); }
//! let json = timeline::export_chrome_trace();   // parses with obs::Json
//! ```

use crate::obs::Counter;

/// Event-kind discriminants stored in ring slots.
#[cfg(feature = "obs")]
mod kind {
    pub const SPAN_BEGIN: u64 = 1;
    pub const SPAN_END: u64 = 2;
    pub const FORK: u64 = 3;
    pub const JOIN: u64 = 4;
    pub const CHUNK: u64 = 5;
    pub const BARRIER: u64 = 6;
    pub const COUNTER: u64 = 7;
}

/// One recorded event, decoded for programmatic consumers (the
/// `ookami_check` race detector replays these). [`export_events`] returns
/// them sorted by timestamp across all threads of the current session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Recording thread (dense ids assigned at first event, caller = the
    /// thread that called [`start`] or the pool worker's own id).
    pub tid: u64,
    /// Event timestamp (session-relative); for duration payloads this is
    /// the *start* of the measured interval.
    pub ts_ns: u64,
    /// Interned event name (span name, schedule name, counter name).
    pub name: String,
    pub payload: EventPayload,
}

/// Decoded payload of a [`TimelineEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPayload {
    SpanBegin,
    SpanEnd,
    /// Pool region forked into `parts` logical threads (caller thread).
    Fork {
        parts: u64,
    },
    /// Pool region joined after the completion barrier (caller thread).
    Join {
        parts: u64,
    },
    /// One scheduled chunk `[start, start+len)` of parallel-for `loop_id`
    /// (ids are unique per top-level pool call within a process).
    Chunk {
        loop_id: u64,
        start: u64,
        len: u64,
        dur_ns: u64,
    },
    /// Time spent waiting at the pool completion barrier.
    BarrierWait {
        ns: u64,
    },
    /// Periodic cumulative counter sample.
    Counter {
        value: u64,
    },
}

/// Recording statistics over the rings of the current recording session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimelineStats {
    /// Threads that recorded at least one event.
    pub threads: usize,
    /// Events currently retained across all rings.
    pub events_retained: u64,
    /// Events overwritten by drop-oldest across all rings.
    pub events_dropped: u64,
}

// ---------------------------------------------------------------------
// Enabled implementation
// ---------------------------------------------------------------------

#[cfg(feature = "obs")]
mod imp {
    use super::{kind, TimelineStats};
    use crate::obs::Counter;
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::Instant;

    /// One recorded event. `seq` is a per-slot seqlock: odd while the owner
    /// is writing, `2 × (event_number + 1)` once event `event_number` is
    /// fully stored — so a reader can both detect in-progress writes and
    /// tell which generation of the ring a slot holds.
    struct Slot {
        seq: AtomicU64,
        ts_ns: AtomicU64,
        kind: AtomicU64,
        name: AtomicU64,
        a: AtomicU64,
        b: AtomicU64,
        c: AtomicU64,
    }

    impl Slot {
        fn new() -> Slot {
            Slot {
                seq: AtomicU64::new(0),
                ts_ns: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                name: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
                c: AtomicU64::new(0),
            }
        }
    }

    struct ThreadRing {
        tid: u64,
        thread_name: String,
        /// Recording generation this ring belongs to; rings from earlier
        /// [`super::start`] calls stay registered but are skipped.
        generation: u64,
        capacity: usize,
        /// Events ever pushed to this ring (monotonic).
        head: AtomicU64,
        slots: Box<[Slot]>,
    }

    impl ThreadRing {
        /// Owner-thread only.
        fn push(&self, ts_ns: u64, kind: u64, name: u64, a: u64, b: u64, c: u64) {
            let h = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[(h as usize) % self.capacity];
            slot.seq.store(2 * h + 1, Ordering::Release);
            slot.ts_ns.store(ts_ns, Ordering::Relaxed);
            slot.kind.store(kind, Ordering::Relaxed);
            slot.name.store(name, Ordering::Relaxed);
            slot.a.store(a, Ordering::Relaxed);
            slot.b.store(b, Ordering::Relaxed);
            slot.c.store(c, Ordering::Relaxed);
            slot.seq.store(2 * (h + 1), Ordering::Release);
            self.head.store(h + 1, Ordering::Release);
        }

        /// Snapshot the retained events, oldest first, skipping any slot a
        /// concurrent writer invalidated.
        fn read(&self) -> Vec<Event> {
            let h = self.head.load(Ordering::Acquire);
            let start = h.saturating_sub(self.capacity as u64);
            let mut out = Vec::with_capacity((h - start) as usize);
            for e in start..h {
                let slot = &self.slots[(e as usize) % self.capacity];
                let seq1 = slot.seq.load(Ordering::Acquire);
                if seq1 != 2 * (e + 1) {
                    continue;
                }
                let ev = Event {
                    ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                    kind: slot.kind.load(Ordering::Relaxed),
                    name: slot.name.load(Ordering::Relaxed),
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                    c: slot.c.load(Ordering::Relaxed),
                };
                if slot.seq.load(Ordering::Acquire) == seq1 {
                    out.push(ev);
                }
            }
            out
        }
    }

    #[derive(Clone, Copy)]
    struct Event {
        ts_ns: u64,
        kind: u64,
        name: u64,
        a: u64,
        b: u64,
        c: u64,
    }

    static RECORDING: AtomicBool = AtomicBool::new(false);
    static GENERATION: AtomicU64 = AtomicU64::new(0);
    static CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_CAPACITY as u64);
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

    pub const DEFAULT_CAPACITY: usize = 1 << 15;

    /// Name intern table. Ids 0..N_WELL_KNOWN are fixed so the pool's
    /// chunk/fork/join/barrier hot paths never touch this mutex.
    struct Intern {
        names: Vec<String>,
        ids: BTreeMap<String, u64>,
    }

    pub const NAME_STATIC: u64 = 0;
    pub const NAME_DYNAMIC: u64 = 1;
    pub const NAME_GUIDED: u64 = 2;
    pub const NAME_FORK: u64 = 3;
    pub const NAME_JOIN: u64 = 4;
    pub const NAME_BARRIER: u64 = 5;
    const WELL_KNOWN: [&str; 6] = [
        "chunk_static",
        "chunk_dynamic",
        "chunk_guided",
        "fork",
        "join",
        "barrier_wait",
    ];

    fn intern_table() -> &'static Mutex<Intern> {
        static TABLE: OnceLock<Mutex<Intern>> = OnceLock::new();
        TABLE.get_or_init(|| {
            let names: Vec<String> = WELL_KNOWN.iter().map(ToString::to_string).collect();
            let ids = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), i as u64))
                .collect();
            Mutex::new(Intern { names, ids })
        })
    }

    fn intern(name: &str) -> u64 {
        let mut t = intern_table().lock();
        if let Some(&id) = t.ids.get(name) {
            return id;
        }
        let id = t.names.len() as u64;
        t.names.push(name.to_string());
        t.ids.insert(name.to_string(), id);
        id
    }

    fn epoch() -> &'static Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now)
    }

    fn now_ns() -> u64 {
        epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    thread_local! {
        static RING: RefCell<Option<Arc<ThreadRing>>> = const { RefCell::new(None) };
        static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[inline]
    pub fn recording() -> bool {
        RECORDING.load(Ordering::Relaxed)
    }

    pub fn start(capacity_per_thread: usize) {
        epoch(); // pin the trace epoch before any event
        CAPACITY.store(capacity_per_thread.max(16) as u64, Ordering::Relaxed);
        GENERATION.fetch_add(1, Ordering::Release);
        RECORDING.store(true, Ordering::Release);
    }

    pub fn stop() {
        RECORDING.store(false, Ordering::Release);
    }

    /// Push one event on this thread's current-generation ring, creating
    /// and registering the ring on first use.
    fn push(kind: u64, name: u64, ts_ns: u64, a: u64, b: u64, c: u64) {
        RING.with(|cell| {
            let mut cell = cell.borrow_mut();
            let generation = GENERATION.load(Ordering::Acquire);
            let stale = match cell.as_ref() {
                Some(ring) => ring.generation != generation,
                None => true,
            };
            if stale {
                let tid = TID.with(|t| {
                    if t.get() == 0 {
                        t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
                    }
                    t.get()
                });
                let capacity = CAPACITY.load(Ordering::Relaxed) as usize;
                let ring = Arc::new(ThreadRing {
                    tid,
                    thread_name: std::thread::current()
                        .name()
                        .unwrap_or("unnamed")
                        .to_string(),
                    generation,
                    capacity,
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| Slot::new()).collect(),
                });
                REGISTRY.lock().push(Arc::clone(&ring));
                *cell = Some(ring);
            }
            cell.as_ref()
                .expect("ring just installed")
                .push(ts_ns, kind, name, a, b, c);
        });
    }

    pub fn span_begin(name: &str) {
        if !recording() {
            return;
        }
        let id = intern(name);
        push(kind::SPAN_BEGIN, id, now_ns(), 0, 0, 0);
    }

    pub fn span_end(name: &str) {
        if !recording() {
            return;
        }
        let id = intern(name);
        push(kind::SPAN_END, id, now_ns(), 0, 0, 0);
    }

    pub fn fork(parts: usize) {
        if !recording() {
            return;
        }
        push(kind::FORK, NAME_FORK, now_ns(), parts as u64, 0, 0);
    }

    pub fn join(parts: usize) {
        if !recording() {
            return;
        }
        push(kind::JOIN, NAME_JOIN, now_ns(), parts as u64, 0, 0);
    }

    /// Chunk guard: measures the chunk body and records one complete event
    /// on drop. `sched_name_id` is one of the pre-interned schedule names.
    pub struct ChunkGuard {
        t0_ns: u64,
        name: u64,
        loop_id: u64,
        start: u32,
        len: u32,
        active: bool,
    }

    pub fn chunk(sched_name_id: u64, loop_id: u64, start: usize, len: usize) -> ChunkGuard {
        if !recording() {
            return ChunkGuard {
                t0_ns: 0,
                name: 0,
                loop_id: 0,
                start: 0,
                len: 0,
                active: false,
            };
        }
        ChunkGuard {
            t0_ns: now_ns(),
            name: sched_name_id,
            loop_id,
            start: start.min(u32::MAX as usize) as u32,
            len: len.min(u32::MAX as usize) as u32,
            active: true,
        }
    }

    impl Drop for ChunkGuard {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            let dur = now_ns().saturating_sub(self.t0_ns);
            let packed = (u64::from(self.start) << 32) | u64::from(self.len);
            push(
                kind::CHUNK,
                self.name,
                self.t0_ns,
                dur,
                packed,
                self.loop_id,
            );
        }
    }

    pub fn barrier_wait(ns: u64) {
        if !recording() {
            return;
        }
        let end = now_ns();
        push(
            kind::BARRIER,
            NAME_BARRIER,
            end.saturating_sub(ns),
            ns,
            0,
            0,
        );
    }

    pub fn counter_sample(c: Counter, value: u64) {
        if !recording() {
            return;
        }
        let id = intern(c.name());
        push(kind::COUNTER, id, now_ns(), value, 0, 0);
    }

    fn current_rings() -> Vec<Arc<ThreadRing>> {
        let generation = GENERATION.load(Ordering::Acquire);
        let mut rings: Vec<Arc<ThreadRing>> = REGISTRY
            .lock()
            .iter()
            .filter(|r| r.generation == generation)
            .cloned()
            .collect();
        rings.sort_by_key(|r| r.tid);
        rings
    }

    pub fn stats() -> TimelineStats {
        let mut s = TimelineStats::default();
        for ring in current_rings() {
            let head = ring.head.load(Ordering::Acquire);
            if head == 0 {
                continue;
            }
            s.threads += 1;
            let retained = head.min(ring.capacity as u64);
            s.events_retained += retained;
            s.events_dropped += head - retained;
        }
        s
    }

    /// Microseconds with nanosecond precision, the Chrome trace `ts` unit.
    fn us(ns: u64) -> String {
        format!("{:.3}", ns as f64 / 1e3)
    }

    fn emit(
        out: &mut String,
        first: &mut bool,
        name: &str,
        cat: &str,
        ph: &str,
        ts_ns: u64,
        tid: u64,
        extra: &str,
    ) {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = write!(
            out,
            "\n  {{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{tid}{extra}}}",
            crate::obs::json_str(name),
            us(ts_ns)
        );
    }

    pub fn export_chrome_trace() -> String {
        let rings = current_rings();
        let names: Vec<String> = intern_table().lock().names.clone();
        let name_of = |id: u64| -> &str { names.get(id as usize).map_or("?", |s| s.as_str()) };
        // Stats are taken once, before the rings are read, so the
        // truncation annotation and otherData describe the same instant.
        let s = stats();

        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "\n  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"ookami\"}}}}"
        );
        let mut first = false;
        if s.events_dropped > 0 {
            // Truncated session: say so *inside* the trace (a global
            // instant event Perfetto renders), not just in otherData —
            // a partial trace must never pass as a complete one.
            let _ = write!(
                out,
                ",\n  {{\"name\":\"timeline_truncated\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":0.000,\
                 \"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{{\"events_dropped\":{}}}}}",
                s.events_dropped
            );
        }

        let mut total_spans_closed = 0u64;
        let mut orphan_ends = 0u64;
        for ring in &rings {
            let events = ring.read();
            if events.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                ring.tid,
                crate::obs::json_str(&ring.thread_name)
            );
            // Span fixup: drop-oldest may have evicted a begin whose end
            // survives (orphan end — discarded) and the stream may close
            // while spans are open (closed at the last timestamp). Guards
            // are strictly LIFO per thread, so the retained suffix needs no
            // reordering.
            let mut stack: Vec<u64> = Vec::new();
            let last_ts = events.last().map_or(0, |e| e.ts_ns);
            for ev in &events {
                match ev.kind {
                    kind::SPAN_BEGIN => {
                        stack.push(ev.name);
                        emit(
                            &mut out,
                            &mut first,
                            name_of(ev.name),
                            "span",
                            "B",
                            ev.ts_ns,
                            ring.tid,
                            "",
                        );
                    }
                    kind::SPAN_END => {
                        if stack.pop().is_some() {
                            total_spans_closed += 1;
                            emit(
                                &mut out,
                                &mut first,
                                name_of(ev.name),
                                "span",
                                "E",
                                ev.ts_ns,
                                ring.tid,
                                "",
                            );
                        } else {
                            orphan_ends += 1;
                        }
                    }
                    kind::FORK | kind::JOIN => {
                        let extra = format!(",\"s\":\"t\",\"args\":{{\"parts\":{}}}", ev.a);
                        emit(
                            &mut out,
                            &mut first,
                            name_of(ev.name),
                            "pool",
                            "i",
                            ev.ts_ns,
                            ring.tid,
                            &extra,
                        );
                    }
                    kind::CHUNK => {
                        let extra = format!(
                            ",\"dur\":{},\"args\":{{\"start\":{},\"len\":{},\"loop\":{}}}",
                            us(ev.a),
                            ev.b >> 32,
                            ev.b & 0xffff_ffff,
                            ev.c
                        );
                        emit(
                            &mut out,
                            &mut first,
                            name_of(ev.name),
                            "pool",
                            "X",
                            ev.ts_ns,
                            ring.tid,
                            &extra,
                        );
                    }
                    kind::BARRIER => {
                        let extra = format!(",\"dur\":{}", us(ev.a));
                        emit(
                            &mut out,
                            &mut first,
                            name_of(ev.name),
                            "pool",
                            "X",
                            ev.ts_ns,
                            ring.tid,
                            &extra,
                        );
                    }
                    kind::COUNTER => {
                        let extra = format!(",\"args\":{{\"value\":{}}}", ev.a);
                        emit(
                            &mut out,
                            &mut first,
                            name_of(ev.name),
                            "counter",
                            "C",
                            ev.ts_ns,
                            ring.tid,
                            &extra,
                        );
                    }
                    _ => {}
                }
            }
            // Close spans still open at export time so every exported trace
            // is well-nested.
            while let Some(name) = stack.pop() {
                total_spans_closed += 1;
                emit(
                    &mut out,
                    &mut first,
                    name_of(name),
                    "span",
                    "E",
                    last_ts,
                    ring.tid,
                    "",
                );
            }
        }

        let _ = write!(
            out,
            "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{{\"threads\":{},\"events_retained\":{},\"events_dropped\":{},\"truncated\":{},\"spans_closed\":{total_spans_closed},\"orphan_span_ends\":{orphan_ends}}}\n}}\n",
            s.threads,
            s.events_retained,
            s.events_dropped,
            s.events_dropped > 0
        );
        out
    }

    pub fn export_events() -> Vec<super::TimelineEvent> {
        use super::EventPayload as P;
        let rings = current_rings();
        let names: Vec<String> = intern_table().lock().names.clone();
        let name_of = |id: u64| -> String {
            names
                .get(id as usize)
                .map_or("?", |s| s.as_str())
                .to_string()
        };
        let mut out = Vec::new();
        for ring in &rings {
            for ev in ring.read() {
                let payload = match ev.kind {
                    kind::SPAN_BEGIN => P::SpanBegin,
                    kind::SPAN_END => P::SpanEnd,
                    kind::FORK => P::Fork { parts: ev.a },
                    kind::JOIN => P::Join { parts: ev.a },
                    kind::CHUNK => P::Chunk {
                        loop_id: ev.c,
                        start: ev.b >> 32,
                        len: ev.b & 0xffff_ffff,
                        dur_ns: ev.a,
                    },
                    kind::BARRIER => P::BarrierWait { ns: ev.a },
                    kind::COUNTER => P::Counter { value: ev.a },
                    _ => continue,
                };
                out.push(super::TimelineEvent {
                    tid: ring.tid,
                    ts_ns: ev.ts_ns,
                    name: name_of(ev.name),
                    payload,
                });
            }
        }
        // Deterministic global order: by timestamp, ties by thread.
        out.sort_by_key(|e| (e.ts_ns, e.tid));
        out
    }
}

// ---------------------------------------------------------------------
// Disabled implementation (all no-ops; identical public surface)
// ---------------------------------------------------------------------

#[cfg(not(feature = "obs"))]
mod imp {
    use super::TimelineStats;
    use crate::obs::Counter;

    pub const DEFAULT_CAPACITY: usize = 1 << 15;
    pub const NAME_STATIC: u64 = 0;
    pub const NAME_DYNAMIC: u64 = 1;
    pub const NAME_GUIDED: u64 = 2;

    #[inline(always)]
    pub fn recording() -> bool {
        false
    }

    #[inline(always)]
    pub fn start(_capacity_per_thread: usize) {}

    #[inline(always)]
    pub fn stop() {}

    #[inline(always)]
    pub fn span_begin(_name: &str) {}

    #[inline(always)]
    pub fn span_end(_name: &str) {}

    #[inline(always)]
    pub fn fork(_parts: usize) {}

    #[inline(always)]
    pub fn join(_parts: usize) {}

    /// Zero-sized no-op chunk guard.
    pub struct ChunkGuard;

    #[inline(always)]
    pub fn chunk(_sched_name_id: u64, _loop_id: u64, _start: usize, _len: usize) -> ChunkGuard {
        ChunkGuard
    }

    #[inline(always)]
    pub fn barrier_wait(_ns: u64) {}

    #[inline(always)]
    pub fn counter_sample(_c: Counter, _value: u64) {}

    pub fn stats() -> TimelineStats {
        TimelineStats::default()
    }

    pub fn export_chrome_trace() -> String {
        "{\"traceEvents\":[],\n\"otherData\":{\"threads\":0,\"events_retained\":0,\"events_dropped\":0,\"truncated\":false}\n}\n"
            .to_string()
    }

    pub fn export_events() -> Vec<super::TimelineEvent> {
        Vec::new()
    }
}

pub use imp::{ChunkGuard, DEFAULT_CAPACITY, NAME_DYNAMIC, NAME_GUIDED, NAME_STATIC};

/// True while a recording session is active (one relaxed load; `const`
/// false without the `obs` feature, so guards fold away).
#[inline(always)]
pub fn recording() -> bool {
    imp::recording()
}

/// Begin a recording session: all subsequent events land in fresh
/// per-thread rings of `capacity_per_thread` slots (drop-oldest beyond
/// that). Rings from a previous session are discarded.
pub fn start(capacity_per_thread: usize) {
    imp::start(capacity_per_thread);
}

/// Stop recording. Already-recorded events stay exportable until the next
/// [`start`].
pub fn stop() {
    imp::stop();
}

/// Record a span open (called by [`crate::obs::region`]).
#[inline(always)]
pub fn span_begin(name: &str) {
    imp::span_begin(name);
}

/// Record a span close (called by the [`crate::obs::Region`] guard).
#[inline(always)]
pub fn span_end(name: &str) {
    imp::span_end(name);
}

/// Record a pool region fork of `parts` logical threads (caller thread).
#[inline(always)]
pub fn fork(parts: usize) {
    imp::fork(parts);
}

/// Record a pool region join (caller thread, after the barrier).
#[inline(always)]
pub fn join(parts: usize) {
    imp::join(parts);
}

/// Guard measuring one scheduled chunk `[start, start+len)` of
/// parallel-for `loop_id`; records a complete event with its duration on
/// drop. `sched_name_id` is one of [`NAME_STATIC`], [`NAME_DYNAMIC`],
/// [`NAME_GUIDED`]; the pool assigns one fresh `loop_id` per top-level
/// region so the race detector can group chunks by loop.
#[inline(always)]
pub fn chunk(sched_name_id: u64, loop_id: u64, start: usize, len: usize) -> ChunkGuard {
    imp::chunk(sched_name_id, loop_id, start, len)
}

/// Record `ns` nanoseconds spent waiting at the pool completion barrier.
#[inline(always)]
pub fn barrier_wait(ns: u64) {
    imp::barrier_wait(ns);
}

/// Record a periodic counter sample: this thread's cumulative `value` for
/// counter `c` (plotted as a Chrome `C` counter track).
#[inline(always)]
pub fn counter_sample(c: Counter, value: u64) {
    imp::counter_sample(c, value);
}

/// Statistics over the current recording session's rings.
pub fn stats() -> TimelineStats {
    imp::stats()
}

/// Export the current session as a Chrome trace-event JSON document
/// (object form, `traceEvents` array). The output always parses with
/// [`crate::obs::Json::parse`] and is well-nested per thread.
pub fn export_chrome_trace() -> String {
    imp::export_chrome_trace()
}

/// Export the current session as decoded [`TimelineEvent`]s, sorted by
/// `(ts_ns, tid)` across all threads — the input the `ookami_check`
/// happens-before race detector replays. Empty without the `obs` feature
/// or when nothing was recorded.
pub fn export_events() -> Vec<TimelineEvent> {
    imp::export_events()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Json;

    /// Serializes the session tests: concurrent `start()` calls steal each
    /// other's recording generation.
    static TL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_or_idle_export_is_valid_json() {
        // Whatever the feature state, an export with nothing recorded must
        // parse and contain an (empty or non-empty) traceEvents array.
        let doc = export_chrome_trace();
        let v = Json::parse(&doc).expect("export must be valid JSON");
        assert!(matches!(v.get("traceEvents"), Some(Json::Arr(_))));
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_timeline_is_zero_cost() {
        assert_eq!(std::mem::size_of::<ChunkGuard>(), 0);
        assert!(!recording());
        start(1024);
        assert!(!recording());
        span_begin("x");
        span_end("x");
        assert_eq!(stats(), TimelineStats::default());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn record_export_roundtrip() {
        let _g = TL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        start(64);
        span_begin("outer");
        span_begin("inner");
        counter_sample(Counter::SveInstrs, 42);
        {
            let _c = chunk(NAME_STATIC, 7, 0, 10);
        }
        barrier_wait(1000);
        fork(4);
        join(4);
        span_end("inner");
        span_end("outer");
        stop();
        let s = stats();
        assert!(s.threads >= 1);
        assert!(s.events_retained >= 8);
        let doc = export_chrome_trace();
        let v = Json::parse(&doc).expect("trace must parse");
        let events = match v.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| match e.get("ph") {
                Some(Json::Str(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        for needed in ["B", "E", "X", "C", "i", "M"] {
            assert!(
                phases.contains(&needed),
                "missing phase {needed}: {phases:?}"
            );
        }
    }

    #[test]
    fn export_events_decodes_payloads() {
        let _g = TL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        start(64);
        fork(2);
        {
            let _c = chunk(NAME_DYNAMIC, 42, 8, 4);
        }
        barrier_wait(500);
        join(2);
        stop();
        let events = export_events();
        if cfg!(feature = "obs") {
            let chunk_ev = events
                .iter()
                .find(|e| matches!(e.payload, EventPayload::Chunk { .. }))
                .expect("chunk event present");
            assert_eq!(chunk_ev.name, "chunk_dynamic");
            assert!(matches!(
                chunk_ev.payload,
                EventPayload::Chunk {
                    loop_id: 42,
                    start: 8,
                    len: 4,
                    ..
                }
            ));
            assert!(events
                .iter()
                .any(|e| matches!(e.payload, EventPayload::Fork { parts: 2 })));
            assert!(events
                .iter()
                .any(|e| matches!(e.payload, EventPayload::Join { parts: 2 })));
            assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        } else {
            assert!(events.is_empty());
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn drop_oldest_bounds_memory_and_keeps_nesting() {
        let _g = TL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        start(32);
        {
            let _g = crate::obs::region("tl_outer");
            for i in 0..100 {
                let _s = crate::obs::region(if i % 2 == 0 { "tl_even" } else { "tl_odd" });
            }
        }
        stop();
        let s = stats();
        assert!(s.events_dropped > 0, "expected drop-oldest to engage");
        let doc = export_chrome_trace();
        let v = Json::parse(&doc).expect("trace must parse");
        // Truncated sessions must be annotated, not silently partial: an
        // in-trace instant event plus the otherData flag.
        match v.get("otherData").and_then(|o| o.get("truncated")) {
            Some(Json::Bool(true)) => {}
            other => panic!("otherData.truncated must be true, got {other:?}"),
        }
        if let Some(Json::Arr(events)) = v.get("traceEvents") {
            assert!(
                events.iter().any(|e| matches!(
                    e.get("name"),
                    Some(Json::Str(n)) if n == "timeline_truncated"
                )),
                "truncated trace must carry the timeline_truncated marker"
            );
        }
        if let Some(Json::Arr(events)) = v.get("traceEvents") {
            // Per-tid B/E discipline must survive the dropped prefix.
            let mut depth = std::collections::BTreeMap::<i64, i64>::new();
            for e in events {
                let tid = match e.get("tid") {
                    Some(Json::Num(n)) => *n as i64,
                    _ => continue,
                };
                match e.get("ph") {
                    Some(Json::Str(p)) if p == "B" => *depth.entry(tid).or_default() += 1,
                    Some(Json::Str(p)) if p == "E" => {
                        let d = depth.entry(tid).or_default();
                        *d -= 1;
                        assert!(*d >= 0, "unbalanced span end");
                    }
                    _ => {}
                }
            }
            for (tid, d) in depth {
                assert_eq!(d, 0, "thread {tid} left {d} spans open");
            }
        } else {
            panic!("traceEvents missing");
        }
    }
}
