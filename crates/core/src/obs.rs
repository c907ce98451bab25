//! Hardware-counter-style observability for the whole stack.
//!
//! The source paper is a *measurement* study: every figure is derived from
//! counted events and timers on real silicon. This module gives the
//! reproduction the same vocabulary — a fixed taxonomy of event counters
//! ([`Counter`]) incremented by the SVE interpreter, the trace replayer and
//! the worker pool, plus a nested span-timing API ([`region`]) — so paper
//! claims become checkable counter equalities instead of derived ratios.
//!
//! Design rules:
//!
//! * **Zero cost when disabled.** Without the `obs` cargo feature every
//!   increment compiles to an empty inline function and [`Region`] is a
//!   zero-sized guard; call sites stay unconditional. [`enabled`] is a
//!   `const fn`, so `if obs::enabled()` branches fold away.
//! * **Lock-free counting.** Each OS thread owns an atomic counter block
//!   ([`add`] is one relaxed `fetch_add` on thread-local state); blocks are
//!   registered once in a global list that [`snapshot`] sums. Blocks of
//!   exited threads stay registered so totals never go backwards.
//! * **Counter identity.** The SVE interpreter and the trace replayer must
//!   produce *identical* instruction/lane/port totals for the same kernel
//!   over the same range — a correctness invariant tested in
//!   `crates/sve/tests/trace_replay.rs`. The taxonomy here is therefore
//!   execution-strategy-neutral (per-port pressure, active lanes, element
//!   counts), never "ops dispatched".
//! * **One record per region close.** [`Region`]'s drop folds the close
//!   into its span path's [`SpanStat`] under one lock: the wall time into
//!   a latency [`HistSnapshot`] (count, sum, buckets) and the global
//!   counter delta into the path's inclusive counters. The timeline
//!   ([`crate::timeline`]) keeps its own begin/end events for traces and
//!   the span tree, but only inside a session and drop-oldest, so this
//!   registry is the aggregate every report reads.
//! * **One schema.** Every probe binary renders its results through
//!   [`BenchReport`] into the shared `ookami-bench-v1` JSON shape, which
//!   [`validate_bench_json`] checks with a dependency-free parser (the
//!   vendored serde is a no-op shim).

pub mod derive;

use crate::telemetry::HistSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Counter taxonomy
// ---------------------------------------------------------------------

/// One event counter. The first eight entries are instruction pressure per
/// A64FX issue port (index-aligned with `ookami_uarch::machines::a64fx_ports`
/// via [`Counter::port`]); an instruction that may issue to either of two
/// ports (e.g. FLA/FLB for FMA) counts on **both** — "candidate-port
/// pressure", which is deterministic and identical between interpreter and
/// replayer, unlike a simulated port assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Pressure on FP pipe A (also FEXPA, estimates, predicated-result ops).
    PortFla,
    /// Pressure on FP pipe B.
    PortFlb,
    /// Pressure on the predicate unit.
    PortPr,
    /// Pressure on integer pipe A.
    PortExa,
    /// Pressure on integer pipe B.
    PortExb,
    /// Pressure on address-generation/load-store pipe A.
    PortEaga,
    /// Pressure on address-generation/load-store pipe B.
    PortEagb,
    /// Pressure on the branch port.
    PortBr,
    /// SVE instructions retired (interpreter ops / replayed block-ops).
    SveInstrs,
    /// Active (predicated-true) lanes processed by retired instructions.
    SveLanesActive,
    /// Bytes loaded by emulated loads/gathers and replay input binds.
    BytesLoaded,
    /// Bytes stored by emulated stores/scatters.
    BytesStored,
    /// Elements moved by gather loads (active lanes).
    GatherElems,
    /// Elements moved by scatter stores (active lanes).
    ScatterElems,
    /// FEXPA instructions issued.
    FexpaIssues,
    /// Model FLOPs retired: active lanes × `OpClass::flops_per_lane` summed
    /// over retired instructions. An *instruction-derived* FLOP count (2 per
    /// FMA lane), identical between interpreter and replayer, and the
    /// numerator of every roofline placement in [`derive`].
    FlopsModel,
    /// Parallel regions forked across the worker pool.
    RegionsForked,
    /// Parallel regions executed inline (nested / single part / no workers).
    RegionsInline,
    /// Logical threads (parts) summed over all regions.
    RegionParts,
    /// Nanoseconds spent waiting at the pool's completion barrier.
    BarrierWaitNs,
    /// Chunks executed under a `Static` schedule.
    ChunksStatic,
    /// Chunks stolen under a `Dynamic` schedule.
    ChunksDynamic,
    /// Chunks claimed under a `Guided` schedule.
    ChunksGuided,
    /// Iterations executed under a `Static` schedule.
    ItersStatic,
    /// Iterations executed under a `Dynamic` schedule.
    ItersDynamic,
    /// Iterations executed under a `Guided` schedule.
    ItersGuided,
    /// Timeline ring events overwritten by drop-oldest in the current
    /// recording session. Not a thread-block counter: [`snapshot`] injects
    /// it from [`crate::timeline::stats`] so BENCH reports carry
    /// truncation first-class. [`thread_snapshot`]
    /// leaves it 0 (it is a session-global quantity, and the executor
    /// counter-identity gates compare thread snapshots).
    TimelineDroppedEvents,
}

/// Every counter, in export order.
pub const COUNTERS: [Counter; Counter::COUNT] = [
    Counter::PortFla,
    Counter::PortFlb,
    Counter::PortPr,
    Counter::PortExa,
    Counter::PortExb,
    Counter::PortEaga,
    Counter::PortEagb,
    Counter::PortBr,
    Counter::SveInstrs,
    Counter::SveLanesActive,
    Counter::BytesLoaded,
    Counter::BytesStored,
    Counter::GatherElems,
    Counter::ScatterElems,
    Counter::FexpaIssues,
    Counter::FlopsModel,
    Counter::RegionsForked,
    Counter::RegionsInline,
    Counter::RegionParts,
    Counter::BarrierWaitNs,
    Counter::ChunksStatic,
    Counter::ChunksDynamic,
    Counter::ChunksGuided,
    Counter::ItersStatic,
    Counter::ItersDynamic,
    Counter::ItersGuided,
    Counter::TimelineDroppedEvents,
];

/// The counters every executor of one kernel must retire identically
/// (interpreter, trace replayer, compiled closures, serial or parallel):
/// retired instructions, active lanes, candidate-port pressure and the
/// element counters. Byte counters are not in the set: they also count
/// the harness's input staging, which the interpreter does differently.
pub const IDENTITY_COUNTERS: [Counter; 13] = [
    Counter::SveInstrs,
    Counter::SveLanesActive,
    Counter::PortFla,
    Counter::PortFlb,
    Counter::PortPr,
    Counter::PortExa,
    Counter::PortExb,
    Counter::PortEaga,
    Counter::PortEagb,
    Counter::PortBr,
    Counter::GatherElems,
    Counter::ScatterElems,
    Counter::FexpaIssues,
];

impl Counter {
    pub const COUNT: usize = 27;

    /// Stable snake_case export name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PortFla => "port_fla",
            Counter::PortFlb => "port_flb",
            Counter::PortPr => "port_pr",
            Counter::PortExa => "port_exa",
            Counter::PortExb => "port_exb",
            Counter::PortEaga => "port_eaga",
            Counter::PortEagb => "port_eagb",
            Counter::PortBr => "port_br",
            Counter::SveInstrs => "sve_instrs",
            Counter::SveLanesActive => "sve_lanes_active",
            Counter::BytesLoaded => "bytes_loaded",
            Counter::BytesStored => "bytes_stored",
            Counter::GatherElems => "gather_elems",
            Counter::ScatterElems => "scatter_elems",
            Counter::FexpaIssues => "fexpa_issues",
            Counter::FlopsModel => "model_flops",
            Counter::RegionsForked => "regions_forked",
            Counter::RegionsInline => "regions_inline",
            Counter::RegionParts => "region_parts",
            Counter::BarrierWaitNs => "barrier_wait_ns",
            Counter::ChunksStatic => "chunks_static",
            Counter::ChunksDynamic => "chunks_dynamic",
            Counter::ChunksGuided => "chunks_guided",
            Counter::ItersStatic => "iters_static",
            Counter::ItersDynamic => "iters_dynamic",
            Counter::ItersGuided => "iters_guided",
            Counter::TimelineDroppedEvents => "timeline_dropped_events",
        }
    }

    /// The pressure counter for A64FX issue-port index `p` (the
    /// `a64fx_ports` numbering: FLA=0 … BR=7).
    pub fn port(p: u8) -> Counter {
        COUNTERS[p as usize]
    }

    /// Inverse of [`Counter::name`] — how `report --derive` and `benchdiff`
    /// rebuild [`Snapshot`]s from a `BENCH_*.json` counters object.
    pub fn from_name(name: &str) -> Option<Counter> {
        COUNTERS.iter().copied().find(|c| c.name() == name)
    }

    fn idx(self) -> usize {
        COUNTERS
            .iter()
            .position(|&c| c as usize == self as usize)
            .expect("counter present in COUNTERS")
    }
}

/// A point-in-time sum of counters (global or per-thread).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    vals: [u64; Counter::COUNT],
}

impl Snapshot {
    pub fn zero() -> Snapshot {
        Snapshot {
            vals: [0; Counter::COUNT],
        }
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c.idx()]
    }

    /// Set one counter (used when rebuilding a snapshot from JSON).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.vals[c.idx()] = v;
    }

    /// Counter-wise saturating accumulate (per-span counter aggregation).
    pub fn accumulate(&mut self, other: &Snapshot) {
        for (a, b) in self.vals.iter_mut().zip(other.vals.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// True if every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// Counter-wise saturating difference `self - earlier` (deltas for a
    /// measured phase bracketed by two snapshots).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut vals = [0u64; Counter::COUNT];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = self.vals[i].saturating_sub(earlier.vals[i]);
        }
        Snapshot { vals }
    }

    /// `(name, value)` pairs for the non-zero counters, in export order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        COUNTERS
            .iter()
            .filter(|c| self.get(**c) != 0)
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }
}

/// Aggregated timing (and counter deltas) for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Slash-joined nesting path, e.g. `"ookamistat/npb_cg/cg_iter"`.
    pub path: String,
    /// Wall time of every closing, in nanoseconds: `count()` is the number
    /// of closings, `sum()` the total time, and the buckets give the
    /// latency quantiles.
    pub latency: HistSnapshot,
    /// Global counter delta summed over all closings. *Inclusive*: a parent
    /// span's delta contains its children's, and concurrent activity on
    /// other threads (pool workers executing this span's region, but also
    /// any unrelated open span) is attributed to every span open at the
    /// time. The feed for [`derive`]'s per-span roofline placement.
    pub counters: Snapshot,
}

// ---------------------------------------------------------------------
// Enabled implementation
// ---------------------------------------------------------------------

#[cfg(feature = "obs")]
mod imp {
    use super::{Counter, HistSnapshot, Snapshot, SpanStat};
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    struct ThreadCounters {
        vals: [AtomicU64; Counter::COUNT],
    }

    impl ThreadCounters {
        fn new() -> ThreadCounters {
            ThreadCounters {
                vals: std::array::from_fn(|_| AtomicU64::new(0)),
            }
        }
    }

    /// All thread blocks ever created; blocks outlive their threads so a
    /// late [`super::snapshot`] still sees a finished worker's events.
    static REGISTRY: Mutex<Vec<Arc<ThreadCounters>>> = Mutex::new(Vec::new());

    /// Per-path aggregates: (latency histogram, counter delta sum).
    static SPANS: Mutex<BTreeMap<String, (HistSnapshot, Snapshot)>> = Mutex::new(BTreeMap::new());

    thread_local! {
        static LOCAL: Arc<ThreadCounters> = {
            let block = Arc::new(ThreadCounters::new());
            REGISTRY.lock().push(Arc::clone(&block));
            block
        };
        /// This thread's open span path ("a/b/c"); owned by Region guards.
        static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };
    }

    pub const fn enabled() -> bool {
        true
    }

    /// Force this thread's counter block into the registry *now*. Pool
    /// workers call this at spawn so a snapshot/reset taken before their
    /// first counted event still covers them deterministically.
    pub fn register_thread() {
        LOCAL.with(|_| {});
    }

    #[inline]
    pub fn add(c: Counter, n: u64) {
        if n != 0 {
            LOCAL.with(|b| b.vals[c.idx()].fetch_add(n, Ordering::Relaxed));
        }
    }

    pub fn snapshot() -> Snapshot {
        let mut s = Snapshot::zero();
        {
            let registry = REGISTRY.lock();
            for block in registry.iter() {
                for (i, v) in block.vals.iter().enumerate() {
                    s.vals[i] += v.load(Ordering::Relaxed);
                }
            }
        }
        // Session-global injected counter (satellite of the telemetry PR):
        // drop-oldest truncation is surfaced like any other counter.
        s.set(
            Counter::TimelineDroppedEvents,
            crate::timeline::stats().events_dropped,
        );
        s
    }

    pub fn thread_snapshot() -> Snapshot {
        let mut s = Snapshot::zero();
        LOCAL.with(|b| {
            for (i, v) in b.vals.iter().enumerate() {
                s.vals[i] = v.load(Ordering::Relaxed);
            }
        });
        s
    }

    pub fn reset() {
        for block in REGISTRY.lock().iter() {
            for v in &block.vals {
                v.store(0, Ordering::Relaxed);
            }
        }
        SPANS.lock().clear();
    }

    /// RAII span guard; see [`super::region`].
    pub struct Region {
        start: Instant,
        /// Global counter snapshot at open; the close accumulates the delta
        /// into the span's entry.
        open_snap: super::Snapshot,
        /// Path length to truncate back to on close.
        parent_len: usize,
        /// Regions time their own thread: keep the guard on it.
        _not_send: std::marker::PhantomData<*const ()>,
    }

    pub fn region(name: &str) -> Region {
        let parent_len = SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            let parent_len = p.len();
            if !p.is_empty() {
                p.push('/');
            }
            p.push_str(name);
            parent_len
        });
        crate::timeline::span_begin(name);
        Region {
            start: Instant::now(),
            open_snap: super::snapshot(),
            parent_len,
            _not_send: std::marker::PhantomData,
        }
    }

    impl Drop for Region {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let delta = super::snapshot().since(&self.open_snap);
            SPAN_PATH.with(|p| {
                let mut p = p.borrow_mut();
                {
                    let mut spans = SPANS.lock();
                    let (latency, counters) = spans
                        .entry(p.clone())
                        .or_insert_with(|| (HistSnapshot::new(), Snapshot::zero()));
                    latency.observe(ns);
                    counters.accumulate(&delta);
                }
                let name = &p[if self.parent_len == 0 {
                    0
                } else {
                    self.parent_len + 1
                }..];
                crate::timeline::span_end(name);
                p.truncate(self.parent_len);
            });
        }
    }

    pub fn spans() -> Vec<SpanStat> {
        SPANS
            .lock()
            .iter()
            .map(|(path, (latency, counters))| SpanStat {
                path: path.clone(),
                latency: latency.clone(),
                counters: counters.clone(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Disabled implementation (all no-ops; identical public surface)
// ---------------------------------------------------------------------

#[cfg(not(feature = "obs"))]
mod imp {
    use super::{Counter, Snapshot, SpanStat};

    pub const fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub fn register_thread() {}

    #[inline(always)]
    pub fn add(_c: Counter, _n: u64) {}

    pub fn snapshot() -> Snapshot {
        Snapshot::zero()
    }

    pub fn thread_snapshot() -> Snapshot {
        Snapshot::zero()
    }

    pub fn reset() {}

    /// Zero-sized no-op guard (the disabled [`super::region`]).
    pub struct Region {
        _not_send: std::marker::PhantomData<*const ()>,
    }

    #[inline(always)]
    pub fn region(_name: &str) -> Region {
        Region {
            _not_send: std::marker::PhantomData,
        }
    }

    pub fn spans() -> Vec<SpanStat> {
        Vec::new()
    }
}

pub use imp::Region;

/// Whether the `obs` feature is compiled in. `const`, so guards fold away.
pub const fn enabled() -> bool {
    imp::enabled()
}

/// Eagerly create and register this thread's counter block. Threads that
/// only ever *read* counters need not call this; long-lived worker threads
/// (the pool) call it at spawn so [`snapshot`]/[`reset`] cover them before
/// their first counted event.
#[inline(always)]
pub fn register_thread() {
    imp::register_thread();
}

/// Add `n` events to counter `c` on this thread (relaxed, lock-free).
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    imp::add(c, n);
}

/// Sum of all threads' counters.
pub fn snapshot() -> Snapshot {
    imp::snapshot()
}

/// This thread's counters only — isolation for single-threaded
/// differential tests running under a parallel test harness.
pub fn thread_snapshot() -> Snapshot {
    imp::thread_snapshot()
}

/// Zero every thread's counters and clear the span registry.
pub fn reset() {
    imp::reset();
}

/// Open a named span; the guard closes it on drop. Nested spans aggregate
/// under slash-joined paths in the session-global registry:
///
/// ```
/// let _outer = ookami_core::obs::region("cg");
/// {
///     let _inner = ookami_core::obs::region("cg_iter"); // path "cg/cg_iter"
/// }
/// ```
pub fn region(name: &str) -> Region {
    imp::region(name)
}

/// All span aggregates, sorted by path.
pub fn spans() -> Vec<SpanStat> {
    imp::spans()
}

// ---------------------------------------------------------------------
// Shared BENCH_*.json schema
// ---------------------------------------------------------------------

/// One probe run rendered into the shared `ookami-bench-v1` JSON schema.
///
/// Every `BENCH_*.json` the repo writes has the same top-level shape:
///
/// ```json
/// {
///   "schema": "ookami-bench-v1",
///   "probe": "svereplay",
///   "mode": "full",
///   "obs_enabled": true,
///   "metrics": { "speedup": 13.2 },
///   "flags": { "identical": "true" },
///   "counters": { "sve_instrs": 1234 },
///   "spans": [ { "path": "replay", "count": 1, "total_ns": 42 } ]
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    probe: String,
    mode: String,
    metrics: Vec<(String, f64)>,
    flags: Vec<(String, String)>,
    counters: Vec<(&'static str, u64)>,
    spans: Vec<SpanStat>,
}

impl BenchReport {
    pub fn new(probe: &str, mode: &str) -> BenchReport {
        BenchReport {
            probe: probe.to_string(),
            mode: mode.to_string(),
            ..BenchReport::default()
        }
    }

    /// Record a numeric result (insertion order is preserved).
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// Record a string/boolean flag.
    pub fn flag(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.flags.push((key.to_string(), value.to_string()));
        self
    }

    /// Attach the non-zero counters of `snap` and the current spans.
    pub fn attach_obs(&mut self, snap: &Snapshot) -> &mut Self {
        self.counters = snap.nonzero();
        self.spans = spans();
        self
    }

    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"schema\": \"ookami-bench-v1\",");
        let _ = writeln!(o, "  \"probe\": {},", json_str(&self.probe));
        let _ = writeln!(o, "  \"mode\": {},", json_str(&self.mode));
        let _ = writeln!(o, "  \"obs_enabled\": {},", enabled());
        o.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(o, "{sep}\n    {}: {}", json_str(k), json_num(*v));
        }
        o.push_str(if self.metrics.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        o.push_str("  \"flags\": {");
        for (i, (k, v)) in self.flags.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(o, "{sep}\n    {}: {}", json_str(k), json_str(v));
        }
        o.push_str(if self.flags.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        o.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(o, "{sep}\n    {}: {v}", json_str(k));
        }
        o.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        o.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                o,
                "{sep}\n    {{ \"path\": {}, \"count\": {}, \"total_ns\": {}",
                json_str(&s.path),
                s.latency.count(),
                s.latency.sum()
            );
            if !s.counters.is_zero() {
                o.push_str(", \"counters\": { ");
                for (j, (k, v)) in s.counters.nonzero().iter().enumerate() {
                    let sep = if j == 0 { "" } else { ", " };
                    let _ = write!(o, "{sep}{}: {v}", json_str(k));
                }
                o.push_str(" }");
            }
            o.push_str(" }");
        }
        o.push_str(if self.spans.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        o.push_str("}\n");
        o
    }

    /// Serialize, self-validate against the schema, and write to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let json = self.to_json();
        if let Err(e) = validate_bench_json(&json) {
            return Err(std::io::Error::other(format!(
                "generated {path} violates ookami-bench-v1: {e}"
            )));
        }
        std::fs::write(path, json)
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\t' => o.push_str("\\t"),
            '\r' => o.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` always keeps a fractional part or exponent, so the value
        // round-trips as a JSON number ("1.0", not "1" → still a number
        // either way, but stable formatting keeps goldens diffable).
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------
// Schema validation (dependency-free recursive-descent JSON)
// ---------------------------------------------------------------------

/// Minimal JSON value for schema validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound keeps a malformed file from
/// overflowing the stack; the documents this repo writes nest about 5 deep.
const JSON_MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (trailing garbage, and arrays or
    /// objects nested more than 128 deep, are errors).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = parse_value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at offset {i}"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at offset {i}", i = *i))
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, i);
    if matches!(b.get(*i), Some(b'[' | b'{')) && depth == JSON_MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {JSON_MAX_DEPTH} at offset {i}",
            i = *i
        ));
    }
    match b.get(*i) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, i, "null").map(|()| Json::Null),
        Some(b't') => expect(b, i, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, i, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, i).map(Json::Str),
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {i}", i = *i)),
                }
            }
        }
        Some(b'{') => {
            *i += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                expect(b, i, ":")?;
                let val = parse_value(b, i, depth + 1)?;
                m.insert(key, val);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {i}", i = *i)),
                }
            }
        }
        Some(_) => parse_number(b, i),
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at offset {i}", i = *i));
    }
    *i += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                let esc = *b.get(*i).ok_or("unterminated escape")?;
                *i += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*i..*i + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        *i += 4;
                        let ch = char::from_u32(cp).ok_or("surrogate \\u escape unsupported")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("bad escape `\\{}`", esc as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while matches!(b.get(*i), Some(c) if c.is_ascii_digit()) {
        *i += 1;
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        while matches!(b.get(*i), Some(c) if c.is_ascii_digit()) {
            *i += 1;
        }
    }
    if matches!(b.get(*i), Some(&b'e' | &b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(&b'+' | &b'-')) {
            *i += 1;
        }
        while matches!(b.get(*i), Some(c) if c.is_ascii_digit()) {
            *i += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

/// Check `s` against the `ookami-bench-v1` schema shared by every
/// `BENCH_*.json` this repo writes.
pub fn validate_bench_json(s: &str) -> Result<(), String> {
    let v = Json::parse(s)?;
    let Json::Obj(obj) = &v else {
        return Err("top level must be an object".to_string());
    };
    match obj.get("schema") {
        Some(Json::Str(tag)) if tag == "ookami-bench-v1" => {}
        other => {
            return Err(format!(
                "schema tag must be \"ookami-bench-v1\", got {other:?}"
            ))
        }
    }
    for key in ["probe", "mode"] {
        match obj.get(key) {
            Some(Json::Str(p)) if !p.is_empty() => {}
            other => return Err(format!("`{key}` must be a non-empty string, got {other:?}")),
        }
    }
    match obj.get("obs_enabled") {
        Some(Json::Bool(_)) => {}
        other => return Err(format!("`obs_enabled` must be a bool, got {other:?}")),
    }
    for key in ["metrics", "counters"] {
        let m = match obj.get(key) {
            Some(Json::Obj(m)) => m,
            other => return Err(format!("`{key}` must be an object, got {other:?}")),
        };
        for (k, v) in m {
            if !matches!(v, Json::Num(_) | Json::Null) {
                return Err(format!("`{key}.{k}` must be a number, got {v:?}"));
            }
            if key == "counters" {
                match v {
                    Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => {}
                    _ => return Err(format!("`counters.{k}` must be a non-negative integer")),
                }
            }
        }
    }
    let flags = match obj.get("flags") {
        Some(Json::Obj(m)) => m,
        other => return Err(format!("`flags` must be an object, got {other:?}")),
    };
    for (k, v) in flags {
        if !matches!(v, Json::Str(_) | Json::Bool(_)) {
            return Err(format!("`flags.{k}` must be a string or bool, got {v:?}"));
        }
    }
    let spans = match obj.get("spans") {
        Some(Json::Arr(a)) => a,
        other => return Err(format!("`spans` must be an array, got {other:?}")),
    };
    for (i, s) in spans.iter().enumerate() {
        let Json::Obj(m) = s else {
            return Err(format!("`spans[{i}]` must be an object"));
        };
        match m.get("path") {
            Some(Json::Str(p)) if !p.is_empty() => {}
            _ => return Err(format!("`spans[{i}].path` must be a non-empty string")),
        }
        for key in ["count", "total_ns"] {
            match m.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {}
                _ => return Err(format!("`spans[{i}].{key}` must be a non-negative integer")),
            }
        }
        // Optional per-span counter deltas (added with the derive engine;
        // older baselines without them stay valid).
        match m.get("counters") {
            None => {}
            Some(Json::Obj(cm)) => {
                for (k, v) in cm {
                    match v {
                        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => {}
                        _ => {
                            return Err(format!(
                                "`spans[{i}].counters.{k}` must be a non-negative integer"
                            ))
                        }
                    }
                }
            }
            Some(other) => {
                return Err(format!(
                    "`spans[{i}].counters` must be an object, got {other:?}"
                ))
            }
        }
    }
    Ok(())
}

/// Rebuild a [`Snapshot`] from a parsed JSON counters object (the
/// `counters` map of a report or of one span). Unknown counter names are
/// ignored so old tooling keeps reading newer reports.
pub fn snapshot_from_json(counters: &Json) -> Snapshot {
    let mut s = Snapshot::zero();
    if let Json::Obj(m) = counters {
        for (k, v) in m {
            if let (Some(c), Json::Num(n)) = (Counter::from_name(k), v) {
                if *n >= 0.0 {
                    s.set(c, *n as u64);
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_total() {
        let mut names: Vec<_> = COUNTERS.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT, "duplicate counter name");
        // port() is index-aligned with the first eight counters
        assert_eq!(Counter::port(0), Counter::PortFla);
        assert_eq!(Counter::port(7), Counter::PortBr);
    }

    #[test]
    fn report_json_passes_its_own_validator() {
        let mut r = BenchReport::new("unit", "smoke");
        r.metric("speedup", 13.25).metric("wall_s", 1e-3);
        r.flag("identical", true);
        r.attach_obs(&snapshot());
        let json = r.to_json();
        validate_bench_json(&json).expect("self-produced JSON must validate");
    }

    #[test]
    fn empty_report_validates() {
        let json = BenchReport::new("unit", "smoke").to_json();
        validate_bench_json(&json).expect("empty sections must validate");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for (doc, why) in [
            ("[]", "non-object top level"),
            ("{}", "missing schema tag"),
            (r#"{"schema":"ookami-bench-v2"}"#, "wrong schema tag"),
            (
                r#"{"schema":"ookami-bench-v1","probe":"p","mode":"m","obs_enabled":true,
                   "metrics":{"x":"not a number"},"flags":{},"counters":{},"spans":[]}"#,
                "string metric",
            ),
            (
                r#"{"schema":"ookami-bench-v1","probe":"p","mode":"m","obs_enabled":true,
                   "metrics":{},"flags":{},"counters":{"c":-1},"spans":[]}"#,
                "negative counter",
            ),
            (
                r#"{"schema":"ookami-bench-v1","probe":"p","mode":"m","obs_enabled":true,
                   "metrics":{},"flags":{},"counters":{},"spans":[{"path":""}]}"#,
                "bad span",
            ),
            (
                "{\"schema\":\"ookami-bench-v1\"} trailing",
                "trailing bytes",
            ),
        ] {
            assert!(validate_bench_json(doc).is_err(), "accepted {why}");
        }
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let v = Json::parse(r#"{"s":"a\"b\\c\nd","n":-1.5e-3,"b":[true,false,null]}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Json::Str("a\"b\\c\nd".to_string())));
        assert_eq!(v.get("n"), Some(&Json::Num(-1.5e-3)));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]))
        );
    }

    #[test]
    fn json_parser_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        Json::parse(&nested(JSON_MAX_DEPTH)).expect("nesting at the limit parses");
        assert!(Json::parse(&nested(JSON_MAX_DEPTH + 1)).is_err());
        // Far past any stack: an error, not an abort.
        let err = Json::parse(&"[".repeat(100_000)).expect_err("deep nesting is rejected");
        assert!(err.contains("nesting"), "{err}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn add_snapshot_roundtrip_on_this_thread() {
        let before = thread_snapshot();
        add(Counter::GatherElems, 7);
        add(Counter::GatherElems, 5);
        add(Counter::BarrierWaitNs, 100);
        let delta = thread_snapshot().since(&before);
        assert_eq!(delta.get(Counter::GatherElems), 12);
        assert_eq!(delta.get(Counter::BarrierWaitNs), 100);
        assert_eq!(delta.get(Counter::SveInstrs), 0);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn nested_regions_aggregate_under_joined_paths() {
        {
            let _a = region("obs_test_outer");
            let _b = region("inner");
        }
        {
            let _a = region("obs_test_outer");
        }
        let spans = spans();
        let find = |p: &str| spans.iter().find(|s| s.path == p);
        assert!(find("obs_test_outer").is_some_and(|s| s.latency.count() >= 2));
        assert!(find("obs_test_outer/inner").is_some_and(|s| s.latency.count() >= 1));
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_obs_is_zero_cost() {
        // The guard is a ZST and counting is compiled out entirely.
        assert_eq!(std::mem::size_of::<Region>(), 0);
        assert!(!enabled());
        add(Counter::SveInstrs, 1_000_000);
        assert_eq!(snapshot().get(Counter::SveInstrs), 0);
        assert!(spans().is_empty());
    }
}
