//! In-memory span recorder for the traced run.
//!
//! Every span is a public call the benchmark makes into one layer of the
//! program, named `<layer>` after the module it enters. Spans carry the
//! operation id shared by all spans of one op and their parent span;
//! counts taken from the calls' return values sit beside them. Nothing is
//! written until the run ends. With tracing off, [`Tracer::span`] is a
//! plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation id; [`SETUP_OP`] for set-up spans.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The op id of spans recorded while the workload is set up.
pub const SETUP_OP: u64 = u64::MAX;

/// Span name of the root span around one operation.
pub const OP: &str = "op";

/// Span name of the root span around the re-timed constituents of a
/// multi-layer call (recorded after the op, outside its root span).
pub const PARTS: &str = "parts";

pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
    last_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            op: SETUP_OP,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            last_ns: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Subsequent spans belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`]. Returns `usize::MAX`
    /// when tracing is off.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if id == usize::MAX {
            return;
        }
        let t = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        self.spans[id].end_ns = t;
        self.last_ns = self.spans[id].ns();
    }

    /// Time `f` as one span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Duration of the span closed last, in nanoseconds.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Add `v` to the count `name` (no-op with tracing off).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total duration and number of the spans named `name`.
    pub fn busy(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ns, n), s| (ns + s.ns() as f64, n + 1))
    }

    /// Share of operation time that lands in a named layer. Unattributed
    /// are an op's self time (its duration minus its child spans) and, for
    /// a multi-layer call re-timed in a [`PARTS`] span of the same op, the
    /// part of the call its constituents do not account for.
    pub fn coverage(&self) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut multi_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
                if MULTI_LAYER.contains(&s.name) {
                    multi_ns[p] += s.ns();
                }
            }
        }
        let mut parts_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == PARTS {
                *parts_ns.entry(s.op).or_default() += child_ns[id];
            }
        }
        let mut total = 0u64;
        let mut unattributed = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != OP {
                continue;
            }
            total += s.ns();
            unattributed += s.ns().saturating_sub(child_ns[id]);
            if let Some(&parts) = parts_ns.get(&s.op) {
                unattributed += multi_ns[id].saturating_sub(parts);
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - unattributed as f64 / total as f64
        }
    }

    /// The spans as a JSON array (`name`, `op`, `start_ns`, `end_ns`,
    /// `parent`), set-up spans with `op` null.
    pub fn spans_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let op = if sp.op == SETUP_OP {
                "null".to_string()
            } else {
                sp.op.to_string()
            };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {op}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.name, sp.start_ns, sp.end_ns
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Public calls that enter several layers at once; the traced run re-times
/// their constituents (see [`Tracer::coverage`]).
pub const MULTI_LAYER: [&str; 1] = ["bench.ecm_families"];
