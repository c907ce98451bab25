//! Closed-loop benchmark of the ookami workspace.
//!
//! One process, one client, at most [`THREADS`] threads: the next
//! operation starts when the previous one has returned and been checked.
//! Each workload builds its inputs from the seed, runs operations for the
//! requested time, checks every output, and reports the end-to-end
//! metrics, its times in units of a host reference timed between cycles
//! of operations (see [`hostref`]). The traced run (`--trace 1`) repeats
//! a fixed number of the same operations with a span around every public
//! call the benchmark makes, and derives the per-layer metrics, the
//! per-executor table and the thread-scaling table from those spans. See `README.md` beside this
//! crate for the workloads, metrics and layer map.

mod dense;
mod hostref;
mod irregular;
mod model;
mod native;
mod pair;
mod scaling;
mod tracer;

use pair::Pair;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tracer::{Tracer, OP};

/// Threads every parallel call uses: the team size the workloads were
/// sized for (a two-core host), and the pool is entered at it throughout.
pub(crate) const THREADS: usize = 2;

/// Emulated vector length in f64 lanes (512-bit SVE, as on A64FX).
pub(crate) const VL: usize = ookami_sve::VL_A64FX;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The benchmark's workloads. Each runs two parts as one closed loop
/// (see [`pair`]): the emulated SVE executors, and the host-native code
/// that never reaches them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// `emu_dense` and `emu_irregular`: the compiled engine and the
    /// replayer.
    Emu,
    /// `model` and `native`: the model pipeline and the native ports.
    ModelNative,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 2] = [WorkloadName::Emu, WorkloadName::ModelNative];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Emu => "emu",
            WorkloadName::ModelNative => "model_native",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: WorkloadName,
    pub seed: u64,
    /// Length of the timed closed loop.
    pub seconds: f64,
    /// Add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Flip one bit of the first operation's output before it is checked.
    pub inject_fault: bool,
    /// Small inputs for the crate's own tests; every check stays on.
    pub smoke: bool,
}

/// End-to-end metrics, reported by the untraced run: `(name, unit)`. The
/// unit `ref` is the median time of the host reference at the operation's
/// thread count, run between the cycles around the operation's own (see
/// [`hostref`]).
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_ref", "1/ref"),
    ("latency_p50_ref", "ref"),
    ("latency_tail_ref", "ref"),
    ("cpu_ref_per_op", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. A layer
/// that does not run on a workload reports 0 for its metrics there.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("sve.record.calls", "count"),
    ("sve.record.busy_ms", "ms"),
    ("sve.record.ops", "count"),
    ("sve.compile.calls", "count"),
    ("sve.compile.busy_ms", "ms"),
    ("sve.compile.us_per_call", "us"),
    ("sve.compile.native_frac", "frac"),
    ("sve.compile.opt_ops_frac", "frac"),
    ("sve.compiled.busy_ms", "ms"),
    ("sve.compiled.instrs", "count"),
    ("sve.compiled.ns_per_instr", "ns"),
    ("sve.compiled.overhead_x", "x"),
    ("sve.replay.busy_ms", "ms"),
    ("sve.replay.instrs", "count"),
    ("sve.replay.ns_per_instr", "ns"),
    ("sve.replay.overhead_x", "x"),
    ("sve.interp.ns_per_instr", "ns"),
    ("sve.interp.overhead_x", "x"),
    ("host.ref.ns_per_elem", "ns"),
    ("core.pool.calls", "count"),
    ("core.pool.busy_ms", "ms"),
    ("core.pool.eff_2t", "frac"),
    ("core.pool.region_us", "us"),
    ("mem.cache.calls", "count"),
    ("mem.cache.busy_ms", "ms"),
    ("mem.cache.accesses", "count"),
    ("mem.cache.ns_per_access", "ns"),
    ("mem.cache.l1_hit_rate", "frac"),
    ("mem.sharded.speedup_2t", "x"),
    ("uarch.analyze.calls", "count"),
    ("uarch.analyze.busy_ms", "ms"),
    ("uarch.analyze.memo_hit_rate", "frac"),
    ("core.derive.busy_ms", "ms"),
    ("bench.render.busy_ms", "ms"),
    ("bench.render.rows", "count"),
    ("spmv.fixture.busy_ms", "ms"),
    ("npb.ep.busy_ms", "ms"),
    ("npb.ep.eff_2t", "frac"),
    ("npb.cg.busy_ms", "ms"),
    ("npb.cg.eff_2t", "frac"),
    ("npb.bt.busy_ms", "ms"),
    ("npb.bt.eff_2t", "frac"),
    ("npb.sp.busy_ms", "ms"),
    ("npb.sp.eff_2t", "frac"),
    ("npb.lu.busy_ms", "ms"),
    ("npb.lu.eff_2t", "frac"),
    ("npb.ua.busy_ms", "ms"),
    ("npb.ua.eff_2t", "frac"),
    ("lulesh.busy_ms", "ms"),
    ("lulesh.eff_2t", "frac"),
    ("hpcc.dgemm.busy_ms", "ms"),
    ("hpcc.dgemm.gflops", "GFLOP/s"),
    ("hpcc.dgemm.eff_2t", "frac"),
    ("hpcc.fft.busy_ms", "ms"),
    ("hpcc.fft.gflops", "GFLOP/s"),
    ("hpcc.fft.eff_2t", "frac"),
    ("hpcc.hpl.busy_ms", "ms"),
    ("hpcc.hpl.gflops", "GFLOP/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
];

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// One family's row of the per-executor table: the same kernel under the
/// interpreter (on a capped input), the replayer and the compiled engine,
/// each beside the fused scalar reference on the same input.
#[derive(Debug, Clone)]
pub(crate) struct ExecRow {
    pub family: String,
    pub interp: ExecCell,
    pub replay: ExecCell,
    /// `None` when the trace has no native plan (every call replays).
    pub compiled: Option<ExecCell>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecCell {
    /// Emulated SVE instructions retired: body ops × vl-blocks.
    pub instrs: f64,
    /// Host time of the executor call.
    pub ns: f64,
    /// Elements of the input.
    pub elems: f64,
    /// Host time of the fused scalar reference on the same input.
    pub host_ns: f64,
}

/// One parallel path timed at one and at [`THREADS`] threads.
#[derive(Debug, Clone)]
pub(crate) struct ScaleRow {
    pub path: String,
    /// Per-layer metric prefix whose `eff_2t` this row gives, if any.
    pub layer: Option<&'static str>,
    /// Whether the path belongs to this workload (it then enters
    /// `core.pool.eff_2t`); the common rows run on every workload.
    pub own: bool,
    pub t1_s: f64,
    pub t2_s: f64,
}

impl ScaleRow {
    pub fn eff_2t(&self) -> f64 {
        ratio(self.t1_s, THREADS as f64 * self.t2_s)
    }
}

/// A workload: fixtures built from the seed, and operations that are pure
/// functions of the seed and the operation index.
pub(crate) trait Workload: Sized {
    type Out;

    /// Everything before the first operation that `setup_s` covers.
    fn setup(seed: u64, smoke: bool, tr: &mut Tracer) -> Self;

    /// The benchmark's own reference outputs (not part of `setup_s`).
    fn prepare(&mut self);

    /// Operation `i`.
    fn run(&mut self, i: usize, tr: &mut Tracer) -> Self::Out;

    /// Whether operation `i`'s output passes its check.
    fn check(&self, i: usize, out: &Self::Out) -> bool;

    /// Flip one bit of an output (fault injection).
    fn flip(out: &mut Self::Out);

    /// Operations in one cycle of the op sequence: every cycle runs the
    /// same mix of calls.
    fn cycle(&self) -> usize;

    /// Whether operation `i` runs at [`THREADS`] threads.
    fn parallel(&self, i: usize) -> bool;

    /// Operations in the traced pass: whole cycles, so its counts repeat
    /// exactly for one seed.
    fn traced_ops(&self) -> usize;

    /// Traced-only work after op `i`, outside its root span: the fused
    /// host reference on the same input, constituents of multi-layer calls.
    fn after_traced_op(&mut self, _i: usize, _out: &Self::Out, _tr: &mut Tracer) {}

    fn executor_rows(&self) -> Vec<ExecRow> {
        Vec::new()
    }

    /// This workload's parallel paths at 1 and [`THREADS`] threads.
    fn scaling_rows(&self) -> Vec<ScaleRow>;
}

/// Run one invocation.
pub fn run(cfg: &Config) -> Outcome {
    // Cycle weights: one `emu_dense` cycle (144 ops) takes about as long
    // as four `emu_irregular` cycles (112 ops), five `model` ops about as
    // long as one `native` op.
    match cfg.workload {
        WorkloadName::Emu => drive::<Pair<dense::Dense, irregular::Irregular, 1, 4>>(cfg),
        WorkloadName::ModelNative => drive::<Pair<model::Model, native::Native, 5, 1>>(cfg),
    }
}

fn drive<W: Workload>(cfg: &Config) -> Outcome {
    let mut tr = Tracer::new();
    let mut notes = Vec::new();

    // Set up SETUPS times and keep the last; only that one is traced.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w: Option<W> = None;
    for k in 0..SETUPS {
        drop(w.take());
        tr.set_on(cfg.trace && k + 1 == SETUPS);
        let t = Instant::now();
        w = Some(W::setup(cfg.seed, cfg.smoke, &mut tr));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    tr.set_on(false);
    let mut w = w.expect("SETUPS > 0");
    w.prepare();

    let mut failed = 0u64;
    let mut check = |w: &W, i: usize, mut out: W::Out| {
        if cfg.inject_fault && i == 0 {
            W::flip(&mut out);
        }
        let ok = w.check(i, &out);
        if !ok {
            notes.push(format!("op {i}: output failed its check"));
        }
        u64::from(!ok)
    };

    // Warm-up: the first cycle of the op sequence, checked but not timed.
    let cycle = w.cycle();
    for i in 0..cycle {
        let out = w.run(i, &mut tr);
        failed += check(&w, i, out);
    }

    // The timed closed loop, in whole cycles (every cycle runs the same
    // mix of calls) until the requested time has passed. After each cycle
    // the host reference runs; its time is not part of the cycles'.
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let mut host = hostref::HostRef::new();
    // Per timed cycle: the host reference's runs after it, and CPU time.
    let mut ref_s: Vec<[[f64; 2]; REF_RUNS]> = Vec::new();
    let mut cpu_s = Vec::new();
    let mut lat = Vec::new();
    let mut par = Vec::new();
    let mut timed_failed = 0;
    let t0 = Instant::now();
    while lat.is_empty() || t0.elapsed() < seconds {
        let cpu0 = cpu_ns();
        for _ in 0..cycle {
            let i = cycle + lat.len();
            let s = Instant::now();
            let out = w.run(i, &mut tr);
            lat.push(s.elapsed().as_secs_f64());
            par.push(w.parallel(i));
            timed_failed += check(&w, i, out);
        }
        cpu_s.push((cpu_ns() - cpu0) as f64 / 1e9);
        ref_s.push(std::array::from_fn(|_| host.time()));
    }
    let ops = lat.len();
    failed += timed_failed;
    let mut attempted = (cycle + ops) as u64;

    let metrics = if cfg.trace {
        let (traced_attempted, traced_failed, overhead) = traced_pass(&mut w, &mut tr);
        attempted += traced_attempted;
        failed += traced_failed;
        let m = per_layer(&w, &tr, overhead, &mut notes);
        write_trace(cfg, &tr, &notes);
        m
    } else {
        // Each operation's time in host-reference units at its thread
        // count: the median reference time over the cycles within
        // REF_SPAN of its own, so a change of the host's speed during the
        // run is followed too.
        let reference = |runs: &[[[f64; 2]; REF_RUNS]], t: usize| {
            median(&runs.iter().flatten().map(|r| r[t]).collect::<Vec<_>>())
        };
        let cycles = ref_s.len();
        let local: Vec<[f64; 2]> = (0..cycles)
            .map(|c| {
                let near = &ref_s[c.saturating_sub(REF_SPAN)..(c + REF_SPAN + 1).min(cycles)];
                [reference(near, 0), reference(near, 1)]
            })
            .collect();
        let units: Vec<f64> = lat
            .iter()
            .zip(&par)
            .enumerate()
            .map(|(i, (t, &p))| t / local[i / cycle][usize::from(p)])
            .collect();
        let cpu_units: f64 = cpu_s.iter().zip(&local).map(|(s, r)| s / r[0]).sum();
        let r = [reference(&ref_s, 0), reference(&ref_s, 1)];
        let verified = (ops as u64 - timed_failed) as f64;
        let p50 = |xs: &[f64]| window_mean(xs, cycle, |sorted| sorted[sorted.len() / 2]);
        let tail_window = cycle * TAIL_WINDOW.div_ceil(cycle);
        // Never below the median: short runs have too few samples.
        let k = |n: usize| n.saturating_sub(TAIL_BEYOND + 1).max(n / 2);
        let tail = |xs: &[f64]| window_mean(xs, tail_window, |sorted| sorted[k(sorted.len())]);
        let size = tail_window.min(ops);
        notes.push(format!(
            "latency_p50 is the mean over {} windows of one cycle ({cycle} ops) of their \
             median; latency_tail the mean over {} windows of {size} ops of their \
             p{:.2} ({TAIL_BEYOND} samples beyond it); {ops} timed ops after a warm-up cycle",
            (ops / cycle).max(1),
            (ops / size).max(1),
            ratio(100.0 * k(size) as f64, size.saturating_sub(1) as f64),
        ));
        notes.push(format!(
            "wall time: ops_per_s {:.4}, latency_p50_ms {:.4}, latency_tail_ms {:.4}, \
             cpu_ms_per_op {:.4}; host reference serial {:.4} ms, parallel {:.4} ms \
             (medians of {}); set-ups {} s",
            verified / lat.iter().sum::<f64>(),
            1e3 * p50(&lat),
            1e3 * tail(&lat),
            1e3 * cpu_s.iter().sum::<f64>() / ops as f64,
            1e3 * r[0],
            1e3 * r[1],
            REF_RUNS * cycles,
            setup_s
                .iter()
                .map(|t| format!("{t:.4}"))
                .collect::<Vec<_>>()
                .join(" "),
        ));
        notes.push(format!(
            "failed_frac = {failed}/{attempted} = {}; nproc = {}",
            ratio(failed as f64, attempted as f64),
            ookami_core::auto_threads()
        ));
        let vals = [
            verified / units.iter().sum::<f64>(),
            p50(&units),
            tail(&units),
            cpu_units / ops as f64,
            median(&setup_s),
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(vals)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect()
    };
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Runs of the host reference after each timed cycle.
const REF_RUNS: usize = 3;

/// Cycles on either side of its own whose host reference runs an
/// operation is measured against.
const REF_SPAN: usize = 2;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Fewest operations per window the tail is taken in: the highest
/// percentile with [`TAIL_BEYOND`] samples beyond it is then p95 or above.
const TAIL_WINDOW: usize = 220;

/// `stat` of each window of `size` consecutive latencies (whole windows;
/// one window of all of them when there are fewer), given sorted, and the
/// mean over windows. A few preempted operations cannot move a window's
/// percentile, and the mean follows the share of the run the shared host
/// ran slow smoothly, where a median over windows or operations would
/// jump between its fast and slow value.
fn window_mean(lat: &[f64], size: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let size = size.min(lat.len()).max(1);
    let stats: Vec<f64> = lat
        .chunks_exact(size)
        .map(|w| {
            let mut sorted = w.to_vec();
            sorted.sort_by(f64::total_cmp);
            stat(&sorted)
        })
        .collect();
    stats.iter().sum::<f64>() / stats.len() as f64
}

/// Run the traced pass: the first [`Workload::traced_ops`] operations,
/// once untraced and once with spans, both warm. Returns the traced ops
/// attempted and failed, and the tracing overhead: 1 − traced ÷ untraced
/// rate over the same operations.
fn traced_pass<W: Workload>(w: &mut W, tr: &mut Tracer) -> (u64, u64, f64) {
    let n = w.traced_ops();
    let mut failed = 0;
    let mut untraced_s = 0.0;
    for i in 0..n {
        let s = Instant::now();
        let out = w.run(i, tr);
        untraced_s += s.elapsed().as_secs_f64();
        failed += u64::from(!w.check(i, &out));
    }
    let (memo_h0, memo_m0) = ookami_uarch::memo::cache_stats();
    tr.set_on(true);
    let mut traced_s = 0.0;
    for i in 0..n {
        tr.set_op(i as u64);
        let s = Instant::now();
        let id = tr.begin(OP);
        let out = w.run(i, tr);
        tr.end(id);
        traced_s += s.elapsed().as_secs_f64();
        failed += u64::from(!w.check(i, &out));
        w.after_traced_op(i, &out, tr);
    }
    let (memo_h1, memo_m1) = ookami_uarch::memo::cache_stats();
    tr.count("uarch.memo.hits", (memo_h1 - memo_h0) as f64);
    tr.count("uarch.memo.misses", (memo_m1 - memo_m0) as f64);
    tr.set_on(false);
    (2 * n as u64, failed, 1.0 - ratio(untraced_s, traced_s))
}

fn per_layer<W: Workload>(
    w: &W,
    tr: &Tracer,
    overhead: f64,
    notes: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let busy_ms = |name: &str| tr.busy(name).0 / 1e6;
    let c = |name: &str| tr.counter(name);

    let (rec_ns, rec_calls) = tr.busy("sve.record");
    m.insert("sve.record.calls".into(), rec_calls as f64);
    m.insert("sve.record.busy_ms".into(), rec_ns / 1e6);
    m.insert("sve.record.ops".into(), c("sve.record.ops"));
    let (cmp_ns, cmp_calls) = tr.busy("sve.compile");
    m.insert("sve.compile.calls".into(), cmp_calls as f64);
    m.insert("sve.compile.busy_ms".into(), cmp_ns / 1e6);
    m.insert(
        "sve.compile.us_per_call".into(),
        ratio(cmp_ns / 1e3, cmp_calls as f64),
    );
    m.insert(
        "sve.compile.native_frac".into(),
        ratio(c("sve.compile.native"), cmp_calls as f64),
    );
    m.insert(
        "sve.compile.opt_ops_frac".into(),
        ratio(c("sve.compile.opt_ops"), c("sve.compile.body_ops")),
    );
    for layer in ["sve.compiled", "sve.replay"] {
        let ns = tr.busy(layer).0;
        let instrs = c(&format!("{layer}.instrs"));
        m.insert(format!("{layer}.busy_ms"), ns / 1e6);
        m.insert(format!("{layer}.instrs"), instrs);
        m.insert(format!("{layer}.ns_per_instr"), ratio(ns, instrs));
        m.insert(
            format!("{layer}.overhead_x"),
            ratio(ns, c(&format!("{layer}.host_ns"))),
        );
    }

    let rows = w.executor_rows();
    let sum = |f: &dyn Fn(&ExecRow) -> f64| rows.iter().map(f).sum::<f64>();
    m.insert(
        "sve.interp.ns_per_instr".into(),
        ratio(sum(&|r| r.interp.ns), sum(&|r| r.interp.instrs)),
    );
    m.insert(
        "sve.interp.overhead_x".into(),
        ratio(sum(&|r| r.interp.ns), sum(&|r| r.interp.host_ns)),
    );
    m.insert(
        "host.ref.ns_per_elem".into(),
        ratio(tr.busy("host.ref").0, c("host.ref.elems")),
    );

    let scale = w.scaling_rows();
    let mut scale = [scaling::common_rows(), scale].concat();
    let region_s = scaling::empty_region_s();
    let own: Vec<&ScaleRow> = scale.iter().filter(|r| r.own).collect();
    m.insert("core.pool.calls".into(), c("core.pool.calls"));
    m.insert("core.pool.busy_ms".into(), c("core.pool.busy_ns") / 1e6);
    m.insert(
        "core.pool.eff_2t".into(),
        ratio(
            own.iter().map(|r| r.t1_s).sum(),
            THREADS as f64 * own.iter().map(|r| r.t2_s).sum::<f64>(),
        ),
    );
    m.insert("core.pool.region_us".into(), region_s * 1e6);

    let (cache_ns, cache_calls) = tr.busy("mem.cache");
    m.insert("mem.cache.calls".into(), cache_calls as f64);
    m.insert("mem.cache.busy_ms".into(), cache_ns / 1e6);
    m.insert("mem.cache.accesses".into(), c("mem.cache.accesses"));
    m.insert(
        "mem.cache.ns_per_access".into(),
        ratio(cache_ns, c("mem.cache.accesses")),
    );
    m.insert(
        "mem.cache.l1_hit_rate".into(),
        ratio(c("mem.cache.l1_hits"), c("mem.cache.accesses")),
    );
    let hits = c("uarch.memo.hits");
    let lookups = hits + c("uarch.memo.misses");
    m.insert("uarch.analyze.calls".into(), lookups);
    m.insert("uarch.analyze.busy_ms".into(), busy_ms("uarch.analyze"));
    m.insert("uarch.analyze.memo_hit_rate".into(), ratio(hits, lookups));
    m.insert("core.derive.busy_ms".into(), busy_ms("core.derive"));
    m.insert("bench.render.busy_ms".into(), busy_ms("bench.render"));
    m.insert("bench.render.rows".into(), c("bench.render.rows"));
    m.insert("spmv.fixture.busy_ms".into(), busy_ms("spmv.fixture"));

    for fam in [
        "npb.ep",
        "npb.cg",
        "npb.bt",
        "npb.sp",
        "npb.lu",
        "npb.ua",
        "lulesh",
        "hpcc.dgemm",
        "hpcc.fft",
        "hpcc.hpl",
    ] {
        let ns = tr.busy(fam).0;
        m.insert(format!("{fam}.busy_ms"), ns / 1e6);
        if fam.starts_with("hpcc.") {
            m.insert(
                format!("{fam}.gflops"),
                ratio(c(&format!("{fam}.flops")), ns),
            );
        }
    }
    // Every row that names a layer gives its eff_2t: the sharded cache
    // simulator its speed-up, the native families their efficiency.
    for r in &scale {
        match r.layer {
            Some("mem.sharded") => {
                m.insert("mem.sharded.speedup_2t".into(), ratio(r.t1_s, r.t2_s));
            }
            Some(l) => {
                m.insert(format!("{l}.eff_2t"), r.eff_2t());
            }
            None => {}
        }
    }
    m.insert("trace.overhead_frac".into(), overhead);
    m.insert("trace.coverage".into(), tr.coverage());

    scale.insert(
        0,
        ScaleRow {
            path: format!("empty par_for({THREADS}, …) region"),
            layer: None,
            own: false,
            t1_s: f64::NAN,
            t2_s: region_s,
        },
    );
    notes.push(render_exec_table(&rows));
    notes.push(render_scaling_table(&scale));

    PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = m.get(n).copied().unwrap_or(0.0);
            (n.to_string(), if v.is_finite() { v } else { 0.0 }, u)
        })
        .collect()
}

fn render_exec_table(rows: &[ExecRow]) -> String {
    if rows.is_empty() {
        return String::from("per-executor table: no emulated families on this workload");
    }
    let mut s = String::from(
        "per-executor table (host ns per emulated SVE instruction; overhead vs the fused scalar reference on the same input)\n",
    );
    let _ = writeln!(
        s,
        "{:<26} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "family",
        "elems",
        "instrs",
        "interp",
        "replay",
        "compiled",
        "host/el",
        "ovh_int",
        "ovh_rep",
        "ovh_cmp"
    );
    let opt = |c: Option<ExecCell>, f: fn(&ExecCell) -> f64| {
        c.map_or_else(|| "replays".to_string(), |c| format!("{:.3}", f(&c)))
    };
    for r in rows {
        let _ = writeln!(
            s,
            "{:<26} {:>9} {:>11} {:>9.3} {:>9.3} {:>9} {:>9.3} {:>9.1} {:>9.1} {:>9}",
            r.family,
            r.replay.elems,
            r.replay.instrs,
            ratio(r.interp.ns, r.interp.instrs),
            ratio(r.replay.ns, r.replay.instrs),
            opt(r.compiled, |c| ratio(c.ns, c.instrs)),
            ratio(r.replay.host_ns, r.replay.elems),
            ratio(r.interp.ns, r.interp.host_ns),
            ratio(r.replay.ns, r.replay.host_ns),
            opt(r.compiled, |c| ratio(c.ns, c.host_ns)),
        );
    }
    s.push_str("(interp runs a capped input; elems and instrs are the replay/compiled input's)");
    s
}

fn render_scaling_table(rows: &[ScaleRow]) -> String {
    let mut s = format!(
        "thread scaling (median wall time; nproc = {})\n{:<64} {:>10} {:>10} {:>8} {:>8}\n",
        ookami_core::auto_threads(),
        "path",
        "1t_ms",
        "2t_ms",
        "speedup",
        "eff_2t"
    );
    for r in rows {
        if r.t1_s.is_nan() {
            let _ = writeln!(s, "{:<64} {:>10} {:>10.4}", r.path, "-", r.t2_s * 1e3);
        } else {
            let _ = writeln!(
                s,
                "{:<64} {:>10.3} {:>10.3} {:>8.3} {:>8.3}",
                r.path,
                r.t1_s * 1e3,
                r.t2_s * 1e3,
                ratio(r.t1_s, r.t2_s),
                r.eff_2t()
            );
        }
    }
    s.pop();
    s
}

/// Where the traced run leaves its spans and tables: `out/` beside this
/// crate's manifest, never the repository root.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(cfg: &Config, tr: &Tracer, notes: &[String]) {
    let dir = out_dir();
    let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.json")), tr.spans_json()))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.tables.txt")), notes.join("\n")));
    if let Err(e) = written {
        eprintln!(
            "warning: could not write the trace to {}: {e}",
            dir.display()
        );
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub(crate) fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let ts: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&ts)
}

/// CPU time of the whole process so far (user and system, all threads),
/// in nanoseconds: the sum over its threads of the first field of
/// `/proc/self/task/<tid>/schedstat`.
fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// The stream for `(seed, stream)`: independent streams per purpose
    /// and per operation, so op `i`'s inputs do not depend on earlier ops.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Whether two f64 slices are bit-identical.
pub(crate) fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Flip the lowest mantissa bit of the first element.
pub(crate) fn flip_f64(v: &mut [f64]) {
    if let Some(x) = v.first_mut() {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }
}
