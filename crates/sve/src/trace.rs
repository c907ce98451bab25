//! Record-once / replay-many trace execution.
//!
//! The interpreter in [`crate::ctx`] allocates a fresh `Vec<u64>` per
//! [`VVal`] and `Vec<bool>` per [`Pred`] for *every op of every iteration* —
//! fine for validating numerics, ruinous for 40k-element accuracy sweeps.
//! This module records **one** vector-length-agnostic iteration of a kernel
//! into a compact [`Trace`] (SSA-numbered ops over slot-allocated register
//! files) and then replays it across the whole input range with a single
//! preallocated arena: no per-op heap allocation, no re-recording.
//!
//! The replay contract (DESIGN.md, trace engine section) is **bit
//! identity**: for every op class — including merging predication on
//! inactive lanes, gather/scatter, and FEXPA — `Trace::replay` produces
//! exactly the bits the interpreter produces, because both executors call
//! the same single-lane functions in [`crate::lanes`] and the same
//! [`crate::fexpa::fexpa_lane`] table. Lanes are independent, so replaying
//! in `vl`-sized blocks in any order cannot change results.
//!
//! Recording works by installing a [`TraceSink`] in the [`SveCtx`]: each op
//! the kernel executes is *also* appended as a [`TOp`] whose operands are
//! dense slot numbers (vectors and predicates live in separate slot
//! spaces). Ops that belong to the *harness* rather than the kernel —
//! `whilelt`, `ptest`, `ld1d`/`st1d`, `faddv`, raw `input_*` — panic under
//! tracing; the [`TraceBuilder`] provides their trace-native equivalents
//! (the loop predicate, bound inputs, and post-step taps).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::compile::Compiled;
use crate::counters;
use crate::ctx::SveCtx;
use crate::fexpa::fexpa_lane;
use crate::lanes;
use crate::value::{Pred, VVal};
use ookami_core::obs::{self, Counter};
use ookami_core::pool::Schedule;
use ookami_core::runtime::{par_for_with, SendPtr};
use ookami_uarch::meta::{self, LaneAccounting};
use ookami_uarch::{Instr, OpClass, Reg, Width};

/// Dense index into a trace's vector or predicate register file.
/// Public so the `ookami-check` translation validator ([`crate::tv`]) can
/// speak about trace slots directly; vectors and predicates are separate
/// slot spaces.
pub type Slot = u16;

/// Opaque handle to a traced vector value (for replay-time reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VSlot(pub(crate) Slot);

/// Opaque handle to a traced predicate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PSlot(pub(crate) Slot);

/// Two-operand elementwise op kinds (float and integer lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMax,
    FMin,
    IAdd,
    ISub,
    IMul,
    And,
    Orr,
    Eor,
}

/// One-operand elementwise op kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Sqrt,
    Neg,
    Abs,
    Rintn,
}

/// Float compare kinds producing predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Gt,
    Ge,
    Eq,
}

/// Lane shift kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftOp {
    Lsl,
    Lsr,
    Asr,
}

/// Int/float conversion kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvtOp {
    Ucvtf,
    Fcvtns,
    Fcvtzs,
    Scvtf,
}

/// One trace op. Operand fields are slots; `pg` is always a predicate
/// slot. Semantics are the interpreter's, verbatim: merging predication
/// passes the *first vector operand* through on inactive lanes (`c` for
/// fused multiply-adds), estimates are unpredicated, `SEL` is a full
/// select.
///
/// Public (with public fields) so the translation validator in
/// `ookami-check` can match pass outputs op-for-op; everything that
/// *executes* a `TOp` still lives inside this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum TOp {
    /// Broadcast/setup constant with its exact record-time lanes
    /// (covers `dup_f64`, `dup_i64`, and `index`).
    ConstV {
        dst: Slot,
        lanes: Vec<u64>,
    },
    /// All-true predicate.
    Ptrue {
        dst: Slot,
    },
    Bin {
        op: BinOp,
        dst: Slot,
        pg: Slot,
        a: Slot,
        b: Slot,
    },
    Un {
        op: UnOp,
        dst: Slot,
        pg: Slot,
        a: Slot,
    },
    /// `FMLA`/`FMLS`: `±a*b + c`, accumulator passthrough when inactive.
    Fmla {
        neg: bool,
        dst: Slot,
        pg: Slot,
        c: Slot,
        a: Slot,
        b: Slot,
    },
    /// `FRECPE`/`FRSQRTE` (unpredicated 8-bit estimates).
    Est {
        rsqrt: bool,
        dst: Slot,
        a: Slot,
    },
    /// `FRECPS`/`FRSQRTS` Newton steps.
    NewtonStep {
        rsqrt: bool,
        dst: Slot,
        pg: Slot,
        a: Slot,
        b: Slot,
    },
    Fexpa {
        dst: Slot,
        a: Slot,
    },
    Ftmad {
        dst: Slot,
        pg: Slot,
        a: Slot,
        b: Slot,
        coeff: f64,
    },
    Cmp {
        op: CmpOp,
        dst: Slot,
        pg: Slot,
        a: Slot,
        b: Slot,
    },
    CmpNeImm {
        dst: Slot,
        pg: Slot,
        a: Slot,
        imm: i64,
    },
    Pand {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Sel {
        dst: Slot,
        pg: Slot,
        a: Slot,
        b: Slot,
    },
    Shift {
        op: ShiftOp,
        dst: Slot,
        pg: Slot,
        a: Slot,
        sh: u32,
    },
    Cvt {
        op: CvtOp,
        dst: Slot,
        pg: Slot,
        a: Slot,
    },
    Compact {
        dst: Slot,
        pg: Slot,
        a: Slot,
    },
    /// Gather from captured table `tab` (a record-time copy, shared with
    /// earlier captures of the same unchanged slice).
    Gather {
        dst: Slot,
        pg: Slot,
        idx: Slot,
        tab: u16,
        uops: u32,
    },
    /// Scatter into the replayer's working copy of table `tab`.
    Scatter {
        pg: Slot,
        v: Slot,
        idx: Slot,
        tab: u16,
    },
    /// Scalar loop bookkeeping (no lanes touched; kept for `to_instrs`).
    Overhead {
        int_ops: usize,
    },
    /// Scalar libm call marker (cost modeling only).
    LibmCall,
}

/// Record-time state installed in an [`SveCtx`] by the [`TraceBuilder`].
///
/// Maps the interpreter's virtual register ids onto dense slots and
/// accumulates the op list, split into a `setup` phase (constants and
/// everything executed before [`TraceBuilder::begin_body`] — loop-invariant
/// or iteration-state initialization) and the per-iteration `body`.
pub(crate) struct TraceSink {
    setup: Vec<TOp>,
    body: Vec<TOp>,
    in_body: bool,
    vmap: HashMap<Reg, Slot>,
    pmap: HashMap<Reg, Slot>,
    n_v: Slot,
    n_p: Slot,
    tabs: Vec<Arc<[f64]>>,
    /// Address and length of the slice each table was captured from.
    tab_src: Vec<(usize, usize)>,
}

impl TraceSink {
    pub(crate) fn new() -> Self {
        TraceSink {
            setup: Vec::new(),
            body: Vec::new(),
            in_body: false,
            vmap: HashMap::new(),
            pmap: HashMap::new(),
            n_v: 0,
            n_p: 0,
            tabs: Vec::new(),
            tab_src: Vec::new(),
        }
    }

    /// Look up the slot of an already-traced vector value.
    pub(crate) fn vs(&self, id: Reg) -> Slot {
        *self
            .vmap
            .get(&id)
            .expect("operand vector was created outside the trace")
    }

    pub(crate) fn ps(&self, id: Reg) -> Slot {
        *self
            .pmap
            .get(&id)
            .expect("operand predicate was created outside the trace")
    }

    pub(crate) fn new_v(&mut self, id: Reg) -> Slot {
        let s = self.n_v;
        self.n_v = self
            .n_v
            .checked_add(1)
            .expect("trace vector slots exhausted");
        self.vmap.insert(id, s);
        s
    }

    pub(crate) fn new_p(&mut self, id: Reg) -> Slot {
        let s = self.n_p;
        self.n_p = self
            .n_p
            .checked_add(1)
            .expect("trace predicate slots exhausted");
        self.pmap.insert(id, s);
        s
    }

    /// Append a body-or-setup op according to the current phase.
    pub(crate) fn push(&mut self, op: TOp) {
        if self.in_body {
            self.body.push(op);
        } else {
            self.setup.push(op);
        }
    }

    /// Append an op that is loop-invariant by construction (constants,
    /// `ptrue`) — always lands in setup, even when recorded mid-body.
    pub(crate) fn push_setup(&mut self, op: TOp) {
        self.setup.push(op);
    }

    /// Capture a record-time copy of a gather/scatter table under a new
    /// index. When the last capture of the same slice (same address and
    /// length) still holds the same bits, the index shares its
    /// allocation: a stencil gathers its whole field once per neighbor.
    pub(crate) fn capture_tab(&mut self, data: &[f64]) -> u16 {
        let k = self.tabs.len();
        assert!(k < u16::MAX as usize, "too many captured tables");
        let src = (data.as_ptr().addr(), data.len());
        let tab = self
            .tab_src
            .iter()
            .rposition(|&s| s == src)
            .map(|j| &self.tabs[j])
            .filter(|t| t.iter().zip(data).all(|(a, b)| a.to_bits() == b.to_bits()))
            .map_or_else(|| Arc::from(data), Arc::clone);
        self.tabs.push(tab);
        self.tab_src.push(src);
        k as u16
    }
}

/// Incrementally records one kernel iteration through a traced [`SveCtx`].
///
/// Protocol: create the builder, obtain the (optional) loop predicate and
/// inputs, run any iteration-state setup through [`TraceBuilder::ctx`],
/// call [`TraceBuilder::begin_body`], run exactly one iteration of the
/// kernel body, declare carried values, and [`TraceBuilder::finish`].
pub struct TraceBuilder {
    ctx: SveCtx,
    inputs: Vec<Slot>,
    loop_pred: Option<Slot>,
    carries: Vec<(Slot, Slot)>,
    tap_v: Vec<Slot>,
    tap_p: Vec<Slot>,
}

impl TraceBuilder {
    pub fn new(vl: usize) -> Self {
        let mut ctx = SveCtx::new(vl);
        ctx.install_trace(TraceSink::new());
        TraceBuilder {
            ctx,
            inputs: Vec::new(),
            loop_pred: None,
            carries: Vec::new(),
            tap_v: Vec::new(),
            tap_p: Vec::new(),
        }
    }

    /// The traced context; pass to the kernel under recording.
    pub fn ctx(&mut self) -> &mut SveCtx {
        &mut self.ctx
    }

    /// The loop-governing predicate (the trace-native `whilelt`): all-true
    /// at record time, set per block by [`Replayer::set_block`].
    pub fn loop_pred(&mut self) -> Pred {
        assert!(self.loop_pred.is_none(), "loop_pred may be taken once");
        let vl = self.ctx.vl();
        let id = self.ctx.fresh_id();
        let sink = self.ctx.trace_sink();
        let s = sink.new_p(id);
        // No Ptrue op: the replayer owns this slot's mask.
        self.loop_pred = Some(s);
        Pred {
            mask: vec![true; vl],
            id,
        }
    }

    /// A per-block float input (the trace-native `ld1d`): lanes are bound
    /// by [`Replayer::bind_f64`] before each step; record-time lanes are
    /// zero (tails are zero-padded exactly like the interpreter harness).
    pub fn input_f64(&mut self) -> VVal {
        self.input_raw()
    }

    /// A per-block integer input (e.g. a loaded index vector).
    pub fn input_i64(&mut self) -> VVal {
        self.input_raw()
    }

    fn input_raw(&mut self) -> VVal {
        let vl = self.ctx.vl();
        let id = self.ctx.fresh_id();
        let sink = self.ctx.trace_sink();
        let s = sink.new_v(id);
        self.inputs.push(s);
        VVal {
            bits: vec![0u64; vl],
            id,
        }
    }

    /// End the setup phase: ops recorded from here on replay once per
    /// iteration instead of once per replayer.
    pub fn begin_body(&mut self) {
        self.ctx.trace_sink().in_body = true;
    }

    /// Declare `updated` as the next-iteration value of `init`: at
    /// [`Replayer::advance`] the body slot is copied over the setup slot.
    pub fn carry(&mut self, init: &VVal, updated: &VVal) {
        let sink = self.ctx.trace_sink();
        let pair = (sink.vs(init.id), sink.vs(updated.id));
        self.carries.push(pair);
    }

    /// Replay-time handle for reading a traced vector's lanes. Tapped
    /// slots count as live-out for the static analysis in
    /// [`Trace::analysis`] (a manual replayer reads them post-step).
    pub fn slot_of(&mut self, v: &VVal) -> VSlot {
        let s = self.ctx.trace_sink().vs(v.id);
        self.tap_v.push(s);
        VSlot(s)
    }

    /// Replay-time handle for reading a traced predicate's mask. Tapped
    /// like [`TraceBuilder::slot_of`].
    pub fn pslot_of(&mut self, p: &Pred) -> PSlot {
        let s = self.ctx.trace_sink().ps(p.id);
        self.tap_p.push(s);
        PSlot(s)
    }

    pub fn finish(mut self, outputs: &[&VVal]) -> Trace {
        let vl = self.ctx.vl();
        let outs: Vec<Slot> = outputs
            .iter()
            .map(|v| self.ctx.trace_sink().vs(v.id))
            .collect();
        let sink = self.ctx.take_trace();
        Trace {
            vl,
            setup: sink.setup,
            body: sink.body,
            n_v: sink.n_v as usize,
            n_p: sink.n_p as usize,
            tabs: sink.tabs,
            inputs: self.inputs,
            loop_pred: self.loop_pred,
            carries: self.carries,
            outputs: outs,
            tap_v: self.tap_v,
            tap_p: self.tap_p,
            compiled: OnceLock::new(),
        }
    }
}

/// A recorded kernel iteration: setup ops (run once per [`Replayer`]),
/// body ops (run once per [`Replayer::step`]), captured gather/scatter
/// tables, input/output/carry slot wiring.
#[derive(Debug)]
pub struct Trace {
    /// Recorded vector length. The op lists and slot wiring below are
    /// public so the translation validator (`check::tv`) can inspect —
    /// and its mutation self-tests deliberately corrupt — pass snapshots;
    /// the [`Replayer`] asserts the SSA invariants a tamper may break.
    pub vl: usize,
    /// Setup-phase ops (constants, `ptrue`, loop-invariant work).
    pub setup: Vec<TOp>,
    /// Per-iteration body ops.
    pub body: Vec<TOp>,
    /// Vector register file size.
    pub n_v: usize,
    /// Predicate register file size.
    pub n_p: usize,
    /// Captured gather/scatter tables, one per table index.
    pub(crate) tabs: Vec<Arc<[f64]>>,
    /// Replayer-bound input slots, in binding order.
    pub inputs: Vec<Slot>,
    /// The loop-governing predicate slot, if recorded with one.
    pub loop_pred: Option<Slot>,
    /// `(init, updated)` carried-state slot pairs.
    pub carries: Vec<(Slot, Slot)>,
    /// Declared output slots.
    pub outputs: Vec<Slot>,
    /// Replay-time vector taps (read post-step by manual replayers).
    pub tap_v: Vec<Slot>,
    /// Replay-time predicate taps.
    pub tap_p: Vec<Slot>,
    /// Lazily built compiled engine (see [`crate::compile`]); the bulk
    /// drivers share it across calls.
    pub(crate) compiled: OnceLock<Arc<Compiled>>,
}

impl Clone for Trace {
    /// Clones the recording but *not* the compiled engine: a clone is
    /// usually about to be mutated (see [`Trace::mutated`]), so it must
    /// recompile from its own ops.
    fn clone(&self) -> Trace {
        Trace {
            vl: self.vl,
            setup: self.setup.clone(),
            body: self.body.clone(),
            n_v: self.n_v,
            n_p: self.n_p,
            tabs: self.tabs.clone(),
            inputs: self.inputs.clone(),
            loop_pred: self.loop_pred,
            carries: self.carries.clone(),
            outputs: self.outputs.clone(),
            tap_v: self.tap_v.clone(),
            tap_p: self.tap_p.clone(),
            compiled: OnceLock::new(),
        }
    }
}

/// Static-analysis view of a [`Trace`] for the `ookami_check` verifier:
/// the body as the lowered [`Instr`] stream plus the slot-wiring facts the
/// abstract interpretation needs (live-in/live-out register sets, the
/// loop predicate, setup constants with exact lanes, and per-instruction
/// gather/scatter table bounds).
///
/// Register numbering matches [`Trace::to_instrs`]: vector slot `k` is
/// register `k`, predicate slot `k` is register `n_vec_regs + k`.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    pub vl: usize,
    /// Vector register file size (`n_v`); predicate regs start here.
    pub n_vec_regs: usize,
    /// Predicate register file size.
    pub n_pred_regs: usize,
    /// The body as the `to_instrs` stream.
    pub body: Vec<Instr>,
    /// Vector registers defined before the body runs (setup defs and
    /// replayer-bound inputs).
    pub live_in_vec: Vec<Reg>,
    /// Predicate registers defined before the body runs (setup `ptrue`
    /// and compares, plus the loop predicate).
    pub live_in_pred: Vec<Reg>,
    /// The loop-governing predicate register (the trace-native
    /// `whilelt`), if the trace was recorded with one.
    pub loop_pred: Option<Reg>,
    /// Predicate registers known all-true (setup `ptrue`); the loop
    /// predicate is *not* here — `set_block` narrows it per block.
    pub ptrue_preds: Vec<Reg>,
    /// Setup constants with their exact record-time lane bits.
    pub const_lanes: Vec<(Reg, Vec<u64>)>,
    /// For each body instruction (aligned with `body`), the bound-buffer
    /// length a gather/scatter indexes into, `None` for non-table ops.
    pub table_len: Vec<Option<usize>>,
    /// Registers consumed after the body: declared outputs, carried
    /// next-iteration values, and replay-time taps.
    pub live_out: Vec<Reg>,
}

impl Trace {
    /// Record a one-input elementwise kernel (the `map_f64` shape):
    /// `f(ctx, loop_pred, x) -> y`.
    pub fn record1(vl: usize, f: impl FnOnce(&mut SveCtx, &Pred, &VVal) -> VVal) -> Trace {
        let mut b = TraceBuilder::new(vl);
        let pg = b.loop_pred();
        let x = b.input_f64();
        b.begin_body();
        let y = f(b.ctx(), &pg, &x);
        b.finish(&[&y])
    }

    /// Record a two-input elementwise kernel: `f(ctx, pg, x, y) -> z`.
    pub fn record2(vl: usize, f: impl FnOnce(&mut SveCtx, &Pred, &VVal, &VVal) -> VVal) -> Trace {
        let mut b = TraceBuilder::new(vl);
        let pg = b.loop_pred();
        let x = b.input_f64();
        let y = b.input_f64();
        b.begin_body();
        let z = f(b.ctx(), &pg, &x, &y);
        b.finish(&[&z])
    }

    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Body op count (one kernel iteration).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    pub fn output(&self, i: usize) -> VSlot {
        VSlot(self.outputs[i])
    }

    /// The captured gather/scatter tables, one per table index; indices
    /// captured from one unchanged slice share an allocation.
    pub fn tables(&self) -> &[Arc<[f64]>] {
        &self.tabs
    }

    /// Whether contiguous blocks may be fused into one wide replay step.
    /// True for purely lanewise bodies; loop-carried state serializes
    /// iterations and `compact` permutes across the whole vector, so
    /// either forces block-at-a-time replay.
    pub(crate) fn batchable(&self) -> bool {
        self.carries.is_empty() && !self.body.iter().any(|o| matches!(o, TOp::Compact { .. }))
    }

    /// Whether any recorded op writes a captured table. Only then does a
    /// [`Replayer`] need private working copies of `tabs`; pure-gather
    /// traces read the captured tables in place, shared across every
    /// replayer and worker.
    pub(crate) fn scatters(&self) -> bool {
        self.setup
            .iter()
            .chain(&self.body)
            .any(|o| matches!(o, TOp::Scatter { .. }))
    }

    /// Blocks fused per step for the bulk `map`/`par_map` drivers.
    pub(crate) fn auto_batch(&self) -> usize {
        if self.batchable() {
            (64 / self.vl).max(1)
        } else {
            1
        }
    }

    /// The lazily built compiled engine behind the bulk drivers.
    pub(crate) fn engine(&self) -> &Arc<Compiled> {
        self.compiled
            .get_or_init(|| Arc::new(Compiled::build(self)))
    }

    /// Compile the trace ahead of time and keep the artifact: the
    /// [`CompiledTrace`] drives the same bulk entry points without the
    /// first-call compile hit, and exposes the compile report.
    pub fn compile(&self) -> crate::compile::CompiledTrace {
        crate::compile::CompiledTrace::new(self.clone())
    }

    /// The trace after the compiler's SSA pass pipeline (constant folding,
    /// predicate simplification, dead-def elimination). Still a valid,
    /// replayable trace with bit-identical `map` output; its obs counters
    /// reflect the *optimized* op stream, so only the compiled engine —
    /// which accounts with the original body — preserves counter totals.
    pub fn optimized(&self) -> Trace {
        crate::compile::optimize(self).0
    }

    /// Map `xs` through the kernel (single-input, single-output traces) —
    /// bit-identical to `vecmath::map_f64` over the interpreter. Runs the
    /// compiled engine when the trace admits one, otherwise replays block
    /// by block.
    pub fn map(&self, xs: &[f64]) -> Vec<f64> {
        self.engine().clone().map(self, xs)
    }

    /// [`Trace::map`] with two input streams (`pow`-style kernels).
    pub fn map2(&self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        self.engine().clone().map2(self, xs, ys)
    }

    /// [`Trace::map`] parallelized over the PR-1 worker pool with a static
    /// schedule (deterministic block→thread assignment; lanes are
    /// independent, so results stay bit-identical to the serial replay).
    /// `threads == 0` means auto.
    pub fn par_map(&self, threads: usize, xs: &[f64]) -> Vec<f64> {
        self.engine().clone().par_map(self, threads, xs)
    }

    /// [`Trace::map2`] parallelized over the worker pool (static schedule,
    /// bit-identical to the serial replay). `threads == 0` means auto.
    pub fn par_map2(&self, threads: usize, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        self.engine().clone().par_map2(self, threads, xs, ys)
    }

    /// Replayer-only [`Trace::map`] (the compiled engine's fallback and
    /// tail path, and the `replay_elems_per_sec` baseline in the probes).
    pub fn replay_map(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0f64; xs.len()];
        self.replay_into(&[xs], &mut out, 0);
        out
    }

    /// Replayer-only [`Trace::map2`].
    pub fn replay_map2(&self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        assert_eq!(xs.len(), ys.len());
        let mut out = vec![0.0f64; xs.len()];
        self.replay_into(&[xs, ys], &mut out, 0);
        out
    }

    /// Replayer-only [`Trace::par_map`].
    pub fn replay_par_map(&self, threads: usize, xs: &[f64]) -> Vec<f64> {
        self.replay_par(threads, &[xs])
    }

    /// Replayer-only [`Trace::par_map2`].
    pub fn replay_par_map2(&self, threads: usize, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        assert_eq!(xs.len(), ys.len());
        self.replay_par(threads, &[xs, ys])
    }

    /// Replay elements `[start, n)` of the input streams `ins` into
    /// `out[start..]`, where `n = out.len()` and `start` is a multiple of
    /// the step width. The serial driver, and the compiled engine's
    /// fallback and ragged-tail path.
    pub(crate) fn replay_into(&self, ins: &[&[f64]], out: &mut [f64], start: usize) {
        let n = out.len();
        if start >= n {
            return;
        }
        let mut r = Replayer::with_batch(self, self.auto_batch());
        let w = r.width();
        debug_assert_eq!(start % w, 0);
        self.replay_blocks(&mut r, ins, &mut out[start..], start / w, n.div_ceil(w));
    }

    /// Replay the input streams `ins` over the worker pool with a static
    /// schedule (deterministic block→thread assignment; lanes are
    /// independent, so results stay bit-identical to [`Trace::replay_into`]).
    pub(crate) fn replay_par(&self, threads: usize, ins: &[&[f64]]) -> Vec<f64> {
        let batch = self.auto_batch();
        let w = batch * self.vl;
        let n = ins[0].len();
        let mut out = vec![0.0f64; n];
        let base = SendPtr::new(out.as_mut_ptr());
        par_for_with(threads, n.div_ceil(w), Schedule::Static, |_, s, e| {
            let mut r = Replayer::with_batch(self, batch);
            // SAFETY: block ranges are disjoint and claimed exactly once
            // per region; `out` outlives the region (par_for_with blocks).
            let chunk = unsafe { base.slice_mut(s * w, (e * w).min(n) - s * w) };
            self.replay_blocks(&mut r, ins, chunk, s, e);
        });
        out
    }

    /// The one block driver behind every bulk replay: replay blocks
    /// `[b0, b1)` of the input streams `ins` (one per bound input, all of
    /// one length), writing into `out`, which starts at element `b0 * w`
    /// of the logical output (`w` is the replayer's step width — `vl`
    /// times its batch factor).
    fn replay_blocks(
        &self,
        r: &mut Replayer,
        ins: &[&[f64]],
        out: &mut [f64],
        b0: usize,
        b1: usize,
    ) {
        assert_eq!(
            self.inputs.len(),
            ins.len(),
            "trace binds {} input streams, got {}",
            self.inputs.len(),
            ins.len()
        );
        let w = r.width();
        let n = ins[0].len();
        let o = self.output(0);
        for blk in b0..b1 {
            let i = blk * w;
            let m = w.min(n - i);
            r.set_block(i, n);
            for (k, xs) in ins.iter().enumerate() {
                r.bind_f64(k, &xs[i..i + m]);
            }
            r.step();
            let lo = i - b0 * w;
            for (l, slot) in out[lo..lo + m].iter_mut().enumerate() {
                *slot = r.lane_f64(o, l);
            }
        }
    }

    /// Fresh replay state for manual (loop-carried / multi-tap) replays.
    pub fn replayer(&self) -> Replayer<'_> {
        Replayer::new(self)
    }

    /// The body as the [`Instr`] stream the interpreter would have
    /// recorded for the same ops: vector slot `k` becomes register `k`,
    /// predicate slot `k` becomes register `n_v + k`, and each [`TOp`]
    /// expands to exactly the `(OpClass, dst, srcs, uops)` tuple the
    /// corresponding `SveCtx` method records. The satellite identity test
    /// checks this against a real interpreter recording modulo register
    /// renaming.
    pub fn to_instrs(&self) -> Vec<Instr> {
        let w = match self.vl {
            1 => Width::Scalar,
            2 => Width::V128,
            4 => Width::V256,
            _ => Width::V512,
        };
        let vr = |s: Slot| s as Reg;
        let pr = |s: Slot| self.n_v as Reg + s as Reg;
        let mut out = Vec::new();
        for op in &self.body {
            match *op {
                TOp::ConstV { .. } | TOp::Ptrue { .. } => {
                    unreachable!("constants always land in setup")
                }
                TOp::Bin { dst, pg, a, b, .. } => {
                    let class = top_class(op).expect("Bin has a class");
                    out.push(Instr::new(class, w, Some(vr(dst)), [pr(pg), vr(a), vr(b)]));
                }
                TOp::Un { dst, pg, a, .. } => {
                    let class = top_class(op).expect("Un has a class");
                    out.push(Instr::new(class, w, Some(vr(dst)), [pr(pg), vr(a)]));
                }
                TOp::Fmla {
                    dst, pg, c, a, b, ..
                } => out.push(Instr::new(
                    OpClass::Fma,
                    w,
                    Some(vr(dst)),
                    [pr(pg), vr(c), vr(a), vr(b)],
                )),
                TOp::Est { dst, a, .. } => {
                    let class = top_class(op).expect("Est has a class");
                    out.push(Instr::new(class, w, Some(vr(dst)), [vr(a)]));
                }
                TOp::NewtonStep { dst, pg, a, b, .. } => out.push(Instr::new(
                    OpClass::Fma,
                    w,
                    Some(vr(dst)),
                    [pr(pg), vr(a), vr(b)],
                )),
                TOp::Fexpa { dst, a } => {
                    out.push(Instr::new(OpClass::Fexpa, w, Some(vr(dst)), [vr(a)]));
                }
                TOp::Ftmad { dst, pg, a, b, .. } => out.push(Instr::new(
                    OpClass::Ftmad,
                    w,
                    Some(vr(dst)),
                    [pr(pg), vr(a), vr(b)],
                )),
                TOp::Cmp { dst, pg, a, b, .. } => out.push(Instr::new(
                    OpClass::FCmp,
                    w,
                    Some(pr(dst)),
                    [pr(pg), vr(a), vr(b)],
                )),
                TOp::CmpNeImm { dst, pg, a, .. } => {
                    out.push(Instr::new(OpClass::FCmp, w, Some(pr(dst)), [pr(pg), vr(a)]));
                }
                TOp::Pand { dst, a, b } => out.push(Instr::new(
                    OpClass::PredOp,
                    w,
                    Some(pr(dst)),
                    [pr(a), pr(b)],
                )),
                TOp::Sel { dst, pg, a, b } => out.push(Instr::new(
                    OpClass::Select,
                    w,
                    Some(vr(dst)),
                    [pr(pg), vr(a), vr(b)],
                )),
                TOp::Shift { dst, pg, a, .. } => out.push(Instr::new(
                    OpClass::VecIntOp,
                    w,
                    Some(vr(dst)),
                    [pr(pg), vr(a)],
                )),
                TOp::Cvt { dst, pg, a, .. } => {
                    out.push(Instr::new(OpClass::FCvt, w, Some(vr(dst)), [pr(pg), vr(a)]));
                }
                TOp::Compact { dst, pg, a } => out.push(Instr::new(
                    OpClass::Permute,
                    w,
                    Some(vr(dst)),
                    [pr(pg), vr(a)],
                )),
                TOp::Gather {
                    dst, pg, idx, uops, ..
                } => out.push(
                    Instr::new(OpClass::Gather, w, Some(vr(dst)), [pr(pg), vr(idx)])
                        .with_uops(uops),
                ),
                TOp::Scatter { pg, v, idx, .. } => out.push(Instr::new(
                    OpClass::Scatter,
                    w,
                    None,
                    [pr(pg), vr(v), vr(idx)],
                )),
                TOp::Overhead { int_ops } => {
                    for _ in 0..int_ops {
                        out.push(Instr::new(OpClass::IntAlu, w, None, Vec::<Reg>::new()));
                    }
                    out.push(Instr::new(OpClass::Branch, w, None, Vec::<Reg>::new()));
                }
                TOp::LibmCall => out.push(Instr::new(
                    OpClass::ScalarLibmCall,
                    w,
                    None,
                    Vec::<Reg>::new(),
                )),
            }
        }
        out
    }

    /// The static-analysis facts the `ookami_check` verifier consumes:
    /// the `to_instrs` stream plus live-in/live-out register sets, setup
    /// constants, and gather/scatter table bounds. See [`TraceInfo`].
    pub fn analysis(&self) -> TraceInfo {
        let vr = |s: Slot| Reg::from(s);
        let pr = |s: Slot| self.n_v as Reg + Reg::from(s);
        let mut live_in_vec = Vec::new();
        let mut live_in_pred = Vec::new();
        let mut ptrue_preds = Vec::new();
        let mut const_lanes = Vec::new();
        for op in &self.setup {
            match *op {
                TOp::ConstV { dst, ref lanes } => const_lanes.push((vr(dst), lanes.clone())),
                TOp::Ptrue { dst } => ptrue_preds.push(pr(dst)),
                _ => {}
            }
            match top_def(op) {
                (Some(v), None) => live_in_vec.push(vr(v)),
                (None, Some(p)) => live_in_pred.push(pr(p)),
                _ => {}
            }
        }
        live_in_vec.extend(self.inputs.iter().map(|&s| vr(s)));
        if let Some(lp) = self.loop_pred {
            live_in_pred.push(pr(lp));
        }
        let mut live_out: Vec<Reg> = self.outputs.iter().map(|&s| vr(s)).collect();
        live_out.extend(self.carries.iter().map(|&(_, upd)| vr(upd)));
        live_out.extend(self.tap_v.iter().map(|&s| vr(s)));
        live_out.extend(self.tap_p.iter().map(|&s| pr(s)));
        // Table bounds aligned with the `to_instrs` expansion: every TOp
        // lowers to one Instr except Overhead (int_ops IntAlu + a Branch).
        let mut table_len = Vec::new();
        for op in &self.body {
            match *op {
                TOp::Gather { tab, .. } | TOp::Scatter { tab, .. } => {
                    table_len.push(Some(self.tabs[tab as usize].len()));
                }
                TOp::Overhead { int_ops } => {
                    table_len.extend(std::iter::repeat_n(None, int_ops + 1));
                }
                _ => table_len.push(None),
            }
        }
        TraceInfo {
            vl: self.vl,
            n_vec_regs: self.n_v,
            n_pred_regs: self.n_p,
            body: self.to_instrs(),
            live_in_vec,
            live_in_pred,
            loop_pred: self.loop_pred.map(pr),
            ptrue_preds,
            const_lanes,
            table_len,
            live_out,
        }
    }

    /// The per-pass snapshot trail of the compiler's pipeline on this
    /// trace — see [`crate::tv`]. Each stage is a full replayable trace
    /// plus the slot-substitution witness the pass emitted, which is what
    /// the `ookami-check` translation validator proves equivalence over.
    pub fn pass_trail(&self) -> crate::tv::PassTrail {
        crate::tv::pass_trail(self)
    }

    /// Test support for the differential verifier tests: derive a mutant
    /// differing from `self` by one op. `seed % 4` picks the class:
    ///
    /// - `0` — a vector source redirected to a never-defined slot
    ///   (use-of-undefined; always verifier-rejected),
    /// - `1` — a body destination rewritten onto an earlier body def
    ///   (double def; always verifier-rejected; falls back to class 0
    ///   when the body has fewer than two vector defs),
    /// - `2` — a governing predicate swapped for a never-defined
    ///   predicate slot (always verifier-rejected; falls back to 0),
    /// - `3` — a semantic single-op change (FMLA sign flip, non-commutative
    ///   operand swap, or a perturbed setup-constant lane) that must alter
    ///   observable replay output on generic inputs.
    ///
    /// Classes 0–2 break the SSA slot-ordering invariant the [`Replayer`]
    /// asserts, so only verifier-accepted mutants (class 3 — which keeps
    /// slot wiring intact) may be replayed.
    pub fn mutated(&self, seed: u64) -> Trace {
        let mut t = self.clone();
        let pick = (seed >> 2) as usize;
        match seed % 4 {
            1 => {
                let defs: Vec<usize> = t
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| top_def(op).0.is_some())
                    .map(|(i, _)| i)
                    .collect();
                if defs.len() >= 2 {
                    let pj = 1 + pick % (defs.len() - 1);
                    let (i, j) = (defs[pick % pj], defs[pj]);
                    let dst = top_def(&t.body[i]).0.unwrap();
                    *vdst_mut(&mut t.body[j]).unwrap() = dst;
                    return t;
                }
            }
            2 => {
                let pgs: Vec<usize> = (0..t.body.len())
                    .filter(|&i| pg_mut(&mut t.body[i]).is_some())
                    .collect();
                if !pgs.is_empty() {
                    let k = pgs[pick % pgs.len()];
                    let fresh = t.n_p as Slot;
                    t.n_p += 1;
                    *pg_mut(&mut t.body[k]).unwrap() = fresh;
                    return t;
                }
            }
            3 => {
                for op in &mut t.body {
                    if let TOp::Fmla { neg, .. } = op {
                        *neg = !*neg;
                        return t;
                    }
                }
                for op in &mut t.body {
                    if let TOp::Bin { op: bo, a, b, .. } = op {
                        if matches!(bo, BinOp::FSub | BinOp::FDiv) && a != b {
                            std::mem::swap(a, b);
                            return t;
                        }
                    }
                }
                for op in &mut t.setup {
                    if let TOp::ConstV { lanes, .. } = op {
                        // Flip a high mantissa bit: a generic constant
                        // moves by ~2^-23 of its magnitude.
                        lanes[0] ^= 1 << 30;
                        return t;
                    }
                }
            }
            _ => {}
        }
        // Class 0 and every fallback: redirect a vector source of some
        // body op to a fresh never-defined slot.
        let cands: Vec<usize> = (0..t.body.len())
            .filter(|&i| !v_srcs_mut(&mut t.body[i]).is_empty())
            .collect();
        assert!(!cands.is_empty(), "trace body has no vector-source op");
        let k = cands[pick % cands.len()];
        let fresh = t.n_v as Slot;
        t.n_v += 1;
        let mut srcs = v_srcs_mut(&mut t.body[k]);
        let s = (pick / cands.len().max(1)) % srcs.len();
        *srcs[s] = fresh;
        t
    }
}

/// The [`OpClass`] a body [`TOp`] lowers to — the one dispatch table
/// behind [`Trace::to_instrs`], the replayer's counters, and the compiled
/// engine's accounting. `None` for setup constants (never counted or
/// lowered from a body) and `Overhead` (expands to several instrs).
pub fn top_class(op: &TOp) -> Option<OpClass> {
    Some(match op {
        TOp::ConstV { .. } | TOp::Ptrue { .. } | TOp::Overhead { .. } => return None,
        TOp::Bin { op, .. } => match op {
            BinOp::FAdd | BinOp::FSub => OpClass::FAdd,
            BinOp::FMul => OpClass::FMul,
            BinOp::FDiv => OpClass::FDiv,
            BinOp::FMax | BinOp::FMin => OpClass::FMinMax,
            _ => OpClass::VecIntOp,
        },
        TOp::Un { op, .. } => match op {
            UnOp::Sqrt => OpClass::FSqrt,
            UnOp::Neg | UnOp::Abs => OpClass::FAbsNeg,
            UnOp::Rintn => OpClass::FRound,
        },
        TOp::Fmla { .. } | TOp::NewtonStep { .. } => OpClass::Fma,
        TOp::Est { rsqrt: true, .. } => OpClass::FRsqrte,
        TOp::Est { rsqrt: false, .. } => OpClass::FRecpe,
        TOp::Fexpa { .. } => OpClass::Fexpa,
        TOp::Ftmad { .. } => OpClass::Ftmad,
        TOp::Cmp { .. } | TOp::CmpNeImm { .. } => OpClass::FCmp,
        TOp::Pand { .. } => OpClass::PredOp,
        TOp::Sel { .. } => OpClass::Select,
        TOp::Shift { .. } => OpClass::VecIntOp,
        TOp::Cvt { .. } => OpClass::FCvt,
        TOp::Compact { .. } => OpClass::Permute,
        TOp::Gather { .. } => OpClass::Gather,
        TOp::Scatter { .. } => OpClass::Scatter,
        TOp::LibmCall => OpClass::ScalarLibmCall,
    })
}

/// The governing predicate of a [`TOp`], if predicated.
pub fn top_pg(op: &TOp) -> Option<Slot> {
    match *op {
        TOp::Bin { pg, .. }
        | TOp::Un { pg, .. }
        | TOp::Fmla { pg, .. }
        | TOp::NewtonStep { pg, .. }
        | TOp::Ftmad { pg, .. }
        | TOp::Cmp { pg, .. }
        | TOp::CmpNeImm { pg, .. }
        | TOp::Sel { pg, .. }
        | TOp::Shift { pg, .. }
        | TOp::Cvt { pg, .. }
        | TOp::Compact { pg, .. }
        | TOp::Gather { pg, .. }
        | TOp::Scatter { pg, .. } => Some(pg),
        TOp::ConstV { .. }
        | TOp::Ptrue { .. }
        | TOp::Est { .. }
        | TOp::Fexpa { .. }
        | TOp::Pand { .. }
        | TOp::Overhead { .. }
        | TOp::LibmCall => None,
    }
}

/// The slot a [`TOp`] defines, as `(vector, predicate)` — at most one.
pub fn top_def(op: &TOp) -> (Option<Slot>, Option<Slot>) {
    match *op {
        TOp::ConstV { dst, .. }
        | TOp::Bin { dst, .. }
        | TOp::Un { dst, .. }
        | TOp::Fmla { dst, .. }
        | TOp::Est { dst, .. }
        | TOp::NewtonStep { dst, .. }
        | TOp::Fexpa { dst, .. }
        | TOp::Ftmad { dst, .. }
        | TOp::Sel { dst, .. }
        | TOp::Shift { dst, .. }
        | TOp::Cvt { dst, .. }
        | TOp::Compact { dst, .. }
        | TOp::Gather { dst, .. } => (Some(dst), None),
        TOp::Ptrue { dst }
        | TOp::Cmp { dst, .. }
        | TOp::CmpNeImm { dst, .. }
        | TOp::Pand { dst, .. } => (None, Some(dst)),
        TOp::Scatter { .. } | TOp::Overhead { .. } | TOp::LibmCall => (None, None),
    }
}

/// Mutable refs to a [`TOp`]'s vector-slot sources (mutation and
/// pass-rewrite support).
pub(crate) fn v_srcs_mut(op: &mut TOp) -> Vec<&mut Slot> {
    match op {
        TOp::Bin { a, b, .. }
        | TOp::NewtonStep { a, b, .. }
        | TOp::Ftmad { a, b, .. }
        | TOp::Cmp { a, b, .. }
        | TOp::Sel { a, b, .. } => vec![a, b],
        TOp::Un { a, .. }
        | TOp::Est { a, .. }
        | TOp::Fexpa { a, .. }
        | TOp::CmpNeImm { a, .. }
        | TOp::Shift { a, .. }
        | TOp::Cvt { a, .. }
        | TOp::Compact { a, .. } => vec![a],
        TOp::Fmla { c, a, b, .. } => vec![c, a, b],
        TOp::Gather { idx, .. } => vec![idx],
        TOp::Scatter { v, idx, .. } => vec![v, idx],
        TOp::ConstV { .. }
        | TOp::Ptrue { .. }
        | TOp::Pand { .. }
        | TOp::Overhead { .. }
        | TOp::LibmCall => Vec::new(),
    }
}

/// Mutable ref to a [`TOp`]'s governing predicate, if predicated.
pub(crate) fn pg_mut(op: &mut TOp) -> Option<&mut Slot> {
    match op {
        TOp::Bin { pg, .. }
        | TOp::Un { pg, .. }
        | TOp::Fmla { pg, .. }
        | TOp::NewtonStep { pg, .. }
        | TOp::Ftmad { pg, .. }
        | TOp::Cmp { pg, .. }
        | TOp::CmpNeImm { pg, .. }
        | TOp::Sel { pg, .. }
        | TOp::Shift { pg, .. }
        | TOp::Cvt { pg, .. }
        | TOp::Compact { pg, .. }
        | TOp::Gather { pg, .. }
        | TOp::Scatter { pg, .. } => Some(pg),
        TOp::ConstV { .. }
        | TOp::Ptrue { .. }
        | TOp::Est { .. }
        | TOp::Fexpa { .. }
        | TOp::Pand { .. }
        | TOp::Overhead { .. }
        | TOp::LibmCall => None,
    }
}

/// The vector destination of a body op, mutable (mutation support).
fn vdst_mut(op: &mut TOp) -> Option<&mut Slot> {
    match op {
        TOp::ConstV { dst, .. }
        | TOp::Bin { dst, .. }
        | TOp::Un { dst, .. }
        | TOp::Fmla { dst, .. }
        | TOp::Est { dst, .. }
        | TOp::NewtonStep { dst, .. }
        | TOp::Fexpa { dst, .. }
        | TOp::Ftmad { dst, .. }
        | TOp::Sel { dst, .. }
        | TOp::Shift { dst, .. }
        | TOp::Cvt { dst, .. }
        | TOp::Compact { dst, .. }
        | TOp::Gather { dst, .. } => Some(dst),
        _ => None,
    }
}

/// Replay arena for one [`Trace`]: a flat `u64` buffer of `n_v × w`
/// vector lanes, one bitmask per predicate slot, (for scattering traces)
/// working copies of the captured tables, and the body resolved against
/// that layout. SSA slot numbering guarantees an op's destination never
/// aliases its sources, so execution writes in place. Every replayer
/// allocates its own arena; a bulk call builds one per pool worker.
pub struct Replayer<'t> {
    t: &'t Trace,
    /// Lanes processed per step: `batch × vl`. Elementwise traces (no
    /// carries, no `compact`) replay several contiguous blocks per step —
    /// the `whilelt` mask `i + l < n` is linear in the lane index, so
    /// concatenating blocks is bit-identical while amortizing the per-op
    /// dispatch over up to 64 lanes.
    w: usize,
    /// How many `vl`-wide interpreter iterations the current step stands
    /// for: `ceil(active_block_lanes / vl)` after [`Replayer::set_block`],
    /// the full batch otherwise. Drives the obs counters so replay totals
    /// stay identical to interpreting the same range (ragged tails count
    /// one partial iteration, exactly as the interpreter would).
    blocks: usize,
    /// SoA vector arena: slot `s` owns the contiguous lane block
    /// `[s*w, (s+1)*w)`. All body addressing is via offsets precomputed
    /// into [`RProgram`], not per-step `slot × w` arithmetic.
    vbuf: Vec<u64>,
    /// One `w`-lane bitmask per predicate slot.
    pbuf: Vec<u64>,
    /// Private working copies of the captured tables — only populated
    /// when the trace scatters ([`Trace::scatters`]); gather-only traces
    /// read `Trace::tabs` shared, and this stays empty.
    tabs: Vec<Vec<f64>>,
    /// The body with operands resolved to arena offsets and per-op
    /// counter recipes resolved from the `ookami_uarch::meta` tables.
    prog: RProgram,
}

impl<'t> Replayer<'t> {
    pub fn new(t: &'t Trace) -> Self {
        Replayer::with_batch(t, 1)
    }

    pub(crate) fn with_batch(t: &'t Trace, batch: usize) -> Self {
        assert!(batch >= 1 && (batch == 1 || t.batchable()));
        let w = batch * t.vl;
        assert!(w <= 64, "predicate bitmasks hold at most 64 lanes");
        let mut r = Replayer {
            t,
            w,
            blocks: batch,
            vbuf: vec![0u64; t.n_v * w],
            pbuf: vec![0u64; t.n_p],
            // Scatter-visible tables start from the captured bits, one
            // private copy per table index.
            tabs: if t.scatters() {
                t.tabs.iter().map(|tab| tab.to_vec()).collect()
            } else {
                Vec::new()
            },
            prog: RProgram::build(t, w),
        };
        if let Some(lp) = t.loop_pred {
            r.pbuf[lp as usize] = r.full_mask();
        }
        // Setup ops replay once per replayer and are never counted: the
        // interpreter's constants/ptrue are setup too and equally uncounted.
        let setup: &'t [TOp] = &t.setup;
        for op in setup {
            r.exec_one(op);
        }
        r
    }

    /// Lanes consumed/produced per [`Replayer::step`].
    pub fn width(&self) -> usize {
        self.w
    }

    fn full_mask(&self) -> u64 {
        if self.w == 64 {
            u64::MAX
        } else {
            (1u64 << self.w) - 1
        }
    }

    /// Set the loop predicate for the block starting at element `i` of an
    /// `n`-element range: lane `l` active iff `i + l < n` (the `whilelt`
    /// semantics).
    pub fn set_block(&mut self, i: usize, n: usize) {
        let lp = self
            .t
            .loop_pred
            .expect("trace was recorded without a loop predicate");
        let mut m = 0u64;
        for l in 0..self.w {
            if i + l < n {
                m |= 1 << l;
            }
        }
        self.pbuf[lp as usize] = m;
        self.blocks = n.saturating_sub(i).min(self.w).div_ceil(self.t.vl);
    }

    /// Bind input `ord` to `lanes` (≤ `width`; the tail is zero-padded
    /// like the interpreter's `ld1d` of a short final block).
    pub fn bind_f64(&mut self, ord: usize, lanes: &[f64]) {
        let s = self.t.inputs[ord] as usize * self.w;
        assert!(lanes.len() <= self.w);
        obs::add(Counter::BytesLoaded, 8 * lanes.len() as u64);
        for (l, lane) in self.vbuf[s..s + self.w].iter_mut().enumerate() {
            *lane = lanes.get(l).map_or(0, |x| x.to_bits());
        }
    }

    /// Bind input `ord` to integer lanes.
    pub fn bind_i64(&mut self, ord: usize, lanes: &[i64]) {
        let s = self.t.inputs[ord] as usize * self.w;
        assert!(lanes.len() <= self.w);
        obs::add(Counter::BytesLoaded, 8 * lanes.len() as u64);
        for (l, lane) in self.vbuf[s..s + self.w].iter_mut().enumerate() {
            *lane = lanes.get(l).map_or(0, |&x| x as u64);
        }
    }

    /// Execute one body iteration through the resolved program: operand
    /// offsets were precomputed at [`RProgram::build`] time, and counter
    /// recipes resolved from the `ookami_uarch::meta` tables, so the hot
    /// loop does no slot arithmetic and no class lookups. Counting
    /// interleaves with execution per op — a recipe reads the predicate
    /// masks *current at that op's position*, exactly as the interpreter
    /// counts in program order.
    pub fn step(&mut self) {
        let w = self.w;
        let full = self.full_mask();
        let blocks = self.blocks as u64;
        let counting = obs::enabled() && blocks > 0;
        let full_lanes = blocks * self.t.vl as u64;
        let t = self.t;
        let Replayer {
            vbuf,
            pbuf,
            tabs,
            prog,
            ..
        } = self;
        for step in &prog.body {
            if counting {
                count_step(&step.count, pbuf, blocks, full_lanes);
            }
            exec_rop(&step.op, vbuf, pbuf, tabs, &t.tabs, w, full);
        }
    }

    /// Commit carried values: each `(init, updated)` pair copies the
    /// updated body slot onto the setup slot the next iteration reads.
    pub fn advance(&mut self) {
        let w = self.w;
        for &(init, updated) in &self.t.carries {
            let (di, si) = (init as usize * w, updated as usize * w);
            for l in 0..w {
                self.vbuf[di + l] = self.vbuf[si + l];
            }
        }
    }

    /// Restore every carry-init slot to its recorded setup value by
    /// re-running the setup ops (constants / `ptrue` / `index` — the only
    /// things that can define a carry init). Lets one replayer run many
    /// independent accumulation chains — e.g. SpMV row blocks — without
    /// building a fresh replayer per chain. Setup replay is
    /// uncounted on both executors, so obs totals are unaffected.
    pub fn reset_carries(&mut self) {
        let setup: &'t [TOp] = &self.t.setup;
        for op in setup {
            self.exec_one(op);
        }
    }

    pub fn lane_bits(&self, v: VSlot, l: usize) -> u64 {
        self.vbuf[v.0 as usize * self.w + l]
    }

    pub fn lane_f64(&self, v: VSlot, l: usize) -> f64 {
        f64::from_bits(self.lane_bits(v, l))
    }

    pub fn pred_lane(&self, p: PSlot, l: usize) -> bool {
        self.pbuf[p.0 as usize] >> l & 1 == 1
    }

    /// Active-lane count of a traced predicate (the `count_active` tap).
    pub fn count_active(&self, p: PSlot) -> usize {
        self.pbuf[p.0 as usize].count_ones() as usize
    }

    /// Horizontal sum of `v`'s active lanes in lane order — identical
    /// association to the interpreter's `faddv`.
    pub fn faddv(&self, p: PSlot, v: VSlot) -> f64 {
        let m = self.pbuf[p.0 as usize];
        (0..self.w)
            .filter(|&l| m >> l & 1 == 1)
            .map(|l| self.lane_f64(v, l))
            .sum()
    }

    /// The replayer's view of captured table `k` — read back scatter
    /// results from here. Scattering traces expose their private working
    /// copy; everything else reads the trace's captured table in place.
    pub fn table(&self, k: usize) -> &[f64] {
        if self.tabs.is_empty() {
            &self.t.tabs[k]
        } else {
            &self.tabs[k]
        }
    }

    /// Execute one op the slow TOp-walking way — the setup path (run once
    /// per replayer and per [`Replayer::reset_carries`], never counted). The body goes through the
    /// resolved [`RProgram`] in [`Replayer::step`] instead.
    fn exec_one(&mut self, op: &TOp) {
        let w = self.w;
        let full = self.full_mask();
        match *op {
            TOp::ConstV { dst, ref lanes } => {
                let d = dst as usize * w;
                // Broadcast the recorded block's constant lanes across
                // every batched block.
                for chunk in self.vbuf[d..d + w].chunks_exact_mut(lanes.len()) {
                    chunk.copy_from_slice(lanes);
                }
            }
            TOp::Ptrue { dst } => {
                self.pbuf[dst as usize] = full;
            }
            ref op => {
                let rop = resolve_op(op, w);
                let t = self.t;
                exec_rop(
                    &rop,
                    &mut self.vbuf,
                    &mut self.pbuf,
                    &mut self.tabs,
                    &t.tabs,
                    w,
                    full,
                );
            }
        }
    }
}

/// The replayer body with every operand resolved ahead of time: vector
/// slots become element offsets into the SoA arena (`slot × w`, computed
/// once per replayer instead of per step per op), and each op's obs
/// recipe ([`RCount`]) is resolved from `top_class` + the unified
/// `ookami_uarch::meta::lane_accounting` table at build time, so the hot
/// loop never consults the class tables. Built with every [`Replayer`].
struct RProgram {
    body: Vec<RStep>,
}

/// One resolved body op: how to execute it and how to count it.
struct RStep {
    op: ROp,
    count: RCount,
}

/// [`TOp`] with vector operands pre-resolved to arena element offsets.
/// Predicate operands stay slot-indexed (`pbuf` is one mask per slot, no
/// scaling to precompute). Setup-only ops (`ConstV`, `Ptrue`) have no
/// image here — constants always land in setup.
enum ROp {
    Bin {
        op: BinOp,
        d: u32,
        pg: Slot,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        d: u32,
        pg: Slot,
        a: u32,
    },
    Fmla {
        neg: bool,
        d: u32,
        pg: Slot,
        c: u32,
        a: u32,
        b: u32,
    },
    Est {
        rsqrt: bool,
        d: u32,
        a: u32,
    },
    NewtonStep {
        rsqrt: bool,
        d: u32,
        pg: Slot,
        a: u32,
        b: u32,
    },
    Fexpa {
        d: u32,
        a: u32,
    },
    Ftmad {
        d: u32,
        pg: Slot,
        a: u32,
        b: u32,
        coeff: f64,
    },
    Cmp {
        op: CmpOp,
        d: Slot,
        pg: Slot,
        a: u32,
        b: u32,
    },
    CmpNeImm {
        d: Slot,
        pg: Slot,
        a: u32,
        imm: i64,
    },
    Pand {
        d: Slot,
        a: Slot,
        b: Slot,
    },
    Sel {
        d: u32,
        pg: Slot,
        a: u32,
        b: u32,
    },
    Shift {
        op: ShiftOp,
        d: u32,
        pg: Slot,
        a: u32,
        sh: u32,
    },
    Cvt {
        op: CvtOp,
        d: u32,
        pg: Slot,
        a: u32,
    },
    Compact {
        d: u32,
        pg: Slot,
        a: u32,
    },
    Gather {
        d: u32,
        pg: Slot,
        idx: u32,
        tab: u16,
    },
    Scatter {
        pg: Slot,
        v: u32,
        idx: u32,
        tab: u16,
    },
    /// Ops that execute nothing but may still count (`Overhead`,
    /// `LibmCall`).
    Nop,
}

/// Lane-weight source for an [`RCount::Class`] recipe — the build-time
/// image of `ookami_uarch::meta::LaneAccounting` with predicate operands
/// already bound.
#[derive(Clone, Copy)]
enum RLanes {
    /// Popcount of the governing predicate at execution time.
    Governed(Slot),
    /// All `blocks × vl` lanes of the step.
    Full,
    /// Popcount of `a & b` (the `pand` result-population rule).
    AndPop(Slot, Slot),
    /// Scalar classes count no lanes.
    Zero,
}

/// Per-op counting recipe, resolved once at program build. Mirrors the
/// interpreter's accounting exactly: `n` instructions per step (one per
/// represented `vl`-wide iteration), lane weights per [`RLanes`], and the
/// bespoke side-counter classes get their own variants.
enum RCount {
    Class { class: OpClass, lanes: RLanes },
    Gather { pg: Slot, uops: u64 },
    Scatter { pg: Slot },
    Fexpa,
    Overhead { int_ops: u64 },
    None,
}

impl RProgram {
    fn build(t: &Trace, w: usize) -> RProgram {
        RProgram {
            body: t
                .body
                .iter()
                .map(|op| RStep {
                    op: resolve_op(op, w),
                    count: resolve_count(op),
                })
                .collect(),
        }
    }
}

/// Resolve one body [`TOp`] to its offset-addressed image. `w ≤ 64` and
/// slots are `u16`, so `slot × w` always fits a `u32`.
fn resolve_op(op: &TOp, w: usize) -> ROp {
    let o = |s: Slot| (s as usize * w) as u32;
    match *op {
        TOp::ConstV { .. } | TOp::Ptrue { .. } => {
            unreachable!("constants always land in setup")
        }
        TOp::Bin { op, dst, pg, a, b } => ROp::Bin {
            op,
            d: o(dst),
            pg,
            a: o(a),
            b: o(b),
        },
        TOp::Un { op, dst, pg, a } => ROp::Un {
            op,
            d: o(dst),
            pg,
            a: o(a),
        },
        TOp::Fmla {
            neg,
            dst,
            pg,
            c,
            a,
            b,
        } => ROp::Fmla {
            neg,
            d: o(dst),
            pg,
            c: o(c),
            a: o(a),
            b: o(b),
        },
        TOp::Est { rsqrt, dst, a } => ROp::Est {
            rsqrt,
            d: o(dst),
            a: o(a),
        },
        TOp::NewtonStep {
            rsqrt,
            dst,
            pg,
            a,
            b,
        } => ROp::NewtonStep {
            rsqrt,
            d: o(dst),
            pg,
            a: o(a),
            b: o(b),
        },
        TOp::Fexpa { dst, a } => ROp::Fexpa { d: o(dst), a: o(a) },
        TOp::Ftmad {
            dst,
            pg,
            a,
            b,
            coeff,
        } => ROp::Ftmad {
            d: o(dst),
            pg,
            a: o(a),
            b: o(b),
            coeff,
        },
        TOp::Cmp { op, dst, pg, a, b } => ROp::Cmp {
            op,
            d: dst,
            pg,
            a: o(a),
            b: o(b),
        },
        TOp::CmpNeImm { dst, pg, a, imm } => ROp::CmpNeImm {
            d: dst,
            pg,
            a: o(a),
            imm,
        },
        TOp::Pand { dst, a, b } => ROp::Pand { d: dst, a, b },
        TOp::Sel { dst, pg, a, b } => ROp::Sel {
            d: o(dst),
            pg,
            a: o(a),
            b: o(b),
        },
        TOp::Shift { op, dst, pg, a, sh } => ROp::Shift {
            op,
            d: o(dst),
            pg,
            a: o(a),
            sh,
        },
        TOp::Cvt { op, dst, pg, a } => ROp::Cvt {
            op,
            d: o(dst),
            pg,
            a: o(a),
        },
        TOp::Compact { dst, pg, a } => ROp::Compact {
            d: o(dst),
            pg,
            a: o(a),
        },
        TOp::Gather {
            dst, pg, idx, tab, ..
        } => ROp::Gather {
            d: o(dst),
            pg,
            idx: o(idx),
            tab,
        },
        TOp::Scatter { pg, v, idx, tab } => ROp::Scatter {
            pg,
            v: o(v),
            idx: o(idx),
            tab,
        },
        TOp::Overhead { .. } | TOp::LibmCall => ROp::Nop,
    }
}

/// Resolve one body op's counting recipe — the build-time half of what
/// `count_op` used to decide per step: class via [`top_class`] (shared
/// with [`Trace::to_instrs`] and the compiled engine), lane weight via
/// the unified `ookami_uarch::meta::lane_accounting` table.
fn resolve_count(op: &TOp) -> RCount {
    match *op {
        TOp::Gather { pg, uops, .. } => RCount::Gather {
            pg,
            uops: u64::from(uops.max(1)),
        },
        TOp::Scatter { pg, .. } => RCount::Scatter { pg },
        TOp::Fexpa { .. } => RCount::Fexpa,
        TOp::Overhead { int_ops } => RCount::Overhead {
            int_ops: int_ops as u64,
        },
        _ => {
            let Some(class) = top_class(op) else {
                return RCount::None; // setup constants are never counted
            };
            let lanes = match meta::lane_accounting(class) {
                LaneAccounting::Governed => {
                    RLanes::Governed(top_pg(op).expect("governed op has a predicate"))
                }
                LaneAccounting::FullVector => RLanes::Full,
                LaneAccounting::ResultPop => match *op {
                    TOp::Pand { a, b, .. } => RLanes::AndPop(a, b),
                    _ => unreachable!("PredOp lowers only from pand"),
                },
                LaneAccounting::Scalar => RLanes::Zero,
            };
            RCount::Class { class, lanes }
        }
    }
}

/// Count one resolved body op with exactly the totals the interpreter
/// produces for the same op over the same range: this step stands for
/// `n` `vl`-wide iterations, block masks concatenate lanewise under
/// batching (popcounts sum), and lane weights read the predicate masks
/// current at this op's position in the program.
fn count_step(c: &RCount, pbuf: &[u64], n: u64, full: u64) {
    let pc = |s: Slot| u64::from(pbuf[s as usize].count_ones());
    match *c {
        RCount::Class { class, lanes } => {
            let lanes = match lanes {
                RLanes::Governed(s) => pc(s),
                RLanes::Full => full,
                RLanes::AndPop(a, b) => {
                    u64::from((pbuf[a as usize] & pbuf[b as usize]).count_ones())
                }
                RLanes::Zero => 0,
            };
            counters::bump(class, n, lanes, 1);
        }
        RCount::Gather { pg, uops } => counters::bump_gather(n, pc(pg), uops),
        RCount::Scatter { pg } => counters::bump_scatter(n, pc(pg)),
        RCount::Fexpa => counters::bump_fexpa(n, full),
        RCount::Overhead { int_ops } => {
            counters::bump(OpClass::IntAlu, n * int_ops, 0, 1);
            counters::bump(OpClass::Branch, n, 0, 1);
        }
        RCount::None => {}
    }
}

/// Execute one resolved op against the SoA arena. `tabs` is the private
/// working-table set (non-empty only for scattering traces); `ttabs` the
/// trace's shared captured tables.
fn exec_rop(
    op: &ROp,
    vbuf: &mut [u64],
    pbuf: &mut [u64],
    tabs: &mut [Vec<f64>],
    ttabs: &[Arc<[f64]>],
    w: usize,
    full: u64,
) {
    match *op {
        ROp::Bin { op, d, pg, a, b } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            bin_rows(op, d, src_row(lo, w, a), src_row(lo, w, b), m, full);
        }
        ROp::Un { op, d, pg, a } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            un_rows(op, d, src_row(lo, w, a), m, full);
        }
        ROp::Fmla {
            neg,
            d,
            pg,
            c,
            a,
            b,
        } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            let (c, a, b) = (src_row(lo, w, c), src_row(lo, w, a), src_row(lo, w, b));
            if neg {
                fmla_rows::<true>(d, c, a, b, m, full);
            } else {
                fmla_rows::<false>(d, c, a, b, m, full);
            }
        }
        ROp::Est { rsqrt, d, a } => {
            let (d, lo) = dst_row(vbuf, w, d);
            let a = src_row(lo, w, a);
            if rsqrt {
                lanes1(d, a, full, full, lanes::rsqrte_lane);
            } else {
                lanes1(d, a, full, full, lanes::recpe_lane);
            }
        }
        ROp::NewtonStep { rsqrt, d, pg, a, b } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            let (a, b) = (src_row(lo, w, a), src_row(lo, w, b));
            if rsqrt {
                lanes2(d, a, b, m, full, |x, y| {
                    lanes::rsqrts_lane(f64::from_bits(x), f64::from_bits(y)).to_bits()
                });
            } else {
                lanes2(d, a, b, m, full, |x, y| {
                    lanes::recps_lane(f64::from_bits(x), f64::from_bits(y)).to_bits()
                });
            }
        }
        ROp::Fexpa { d, a } => {
            let (d, lo) = dst_row(vbuf, w, d);
            lanes1(d, src_row(lo, w, a), full, full, |x| {
                fexpa_lane(x).to_bits()
            });
        }
        ROp::Ftmad { d, pg, a, b, coeff } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            lanes2(d, src_row(lo, w, a), src_row(lo, w, b), m, full, |x, y| {
                lanes::dn(f64::from_bits(x).mul_add(f64::from_bits(y), coeff)).to_bits()
            });
        }
        ROp::Cmp { op, d, pg, a, b } => {
            let (ab, bb) = (a as usize, b as usize);
            let m = pbuf[pg as usize];
            let (a, b) = (&vbuf[ab..ab + w], &vbuf[bb..bb + w]);
            pbuf[d as usize] = match op {
                CmpOp::Gt => cmp_rows(a, b, m, |x, y| x > y),
                CmpOp::Ge => cmp_rows(a, b, m, |x, y| x >= y),
                CmpOp::Eq => cmp_rows(a, b, m, |x, y| x == y),
            };
        }
        ROp::CmpNeImm { d, pg, a, imm } => {
            let ab = a as usize;
            let m = pbuf[pg as usize];
            let mut r = 0u64;
            for (l, &x) in vbuf[ab..ab + w].iter().enumerate() {
                if m >> l & 1 == 1 && (x as i64) != imm {
                    r |= 1 << l;
                }
            }
            pbuf[d as usize] = r;
        }
        ROp::Pand { d, a, b } => {
            pbuf[d as usize] = pbuf[a as usize] & pbuf[b as usize];
        }
        ROp::Sel { d, pg, a, b } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            let (a, b) = (src_row(lo, w, a), src_row(lo, w, b));
            if m == full {
                d.copy_from_slice(a);
            } else {
                for (l, (dl, (&x, &y))) in d.iter_mut().zip(a.iter().zip(b)).enumerate() {
                    *dl = if m >> l & 1 == 1 { x } else { y };
                }
            }
        }
        ROp::Shift { op, d, pg, a, sh } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            let a = src_row(lo, w, a);
            match op {
                ShiftOp::Lsl => lanes1(d, a, m, full, |x| x << sh),
                ShiftOp::Lsr => lanes1(d, a, m, full, |x| x >> sh),
                ShiftOp::Asr => lanes1(d, a, m, full, |x| ((x as i64) >> sh) as u64),
            }
        }
        ROp::Cvt { op, d, pg, a } => {
            let m = pbuf[pg as usize];
            let (d, lo) = dst_row(vbuf, w, d);
            let a = src_row(lo, w, a);
            match op {
                CvtOp::Ucvtf => lanes1(d, a, m, full, lanes::ucvtf_lane),
                CvtOp::Fcvtns => lanes1(d, a, m, full, lanes::fcvtns_lane),
                CvtOp::Fcvtzs => lanes1(d, a, m, full, lanes::fcvtzs_lane),
                CvtOp::Scvtf => lanes1(d, a, m, full, lanes::scvtf_lane),
            }
        }
        ROp::Compact { d, pg, a } => {
            let (d, ab) = (d as usize, a as usize);
            let m = pbuf[pg as usize];
            let mut k = 0usize;
            for l in 0..w {
                if m >> l & 1 == 1 {
                    vbuf[d + k] = vbuf[ab + l];
                    k += 1;
                }
            }
            for slot in &mut vbuf[d + k..d + w] {
                *slot = 0;
            }
        }
        ROp::Gather { d, pg, idx, tab } => {
            let (d, ib) = (d as usize, idx as usize);
            let m = pbuf[pg as usize];
            let tr: &[f64] = if tabs.is_empty() {
                &ttabs[tab as usize]
            } else {
                &tabs[tab as usize]
            };
            for l in 0..w {
                let i = vbuf[ib + l] as usize;
                vbuf[d + l] = if m >> l & 1 == 1 && i < tr.len() {
                    tr[i].to_bits()
                } else {
                    0
                };
            }
        }
        ROp::Scatter { pg, v, idx, tab } => {
            let (vb, ib) = (v as usize, idx as usize);
            let m = pbuf[pg as usize];
            let tr = &mut tabs[tab as usize];
            for l in 0..w {
                let i = vbuf[ib + l] as usize;
                if m >> l & 1 == 1 && i < tr.len() {
                    tr[i] = f64::from_bits(vbuf[vb + l]);
                }
            }
        }
        ROp::Nop => {}
    }
}

/// Split the arena into the destination row and the region below it.
/// Sound because slots are SSA-numbered: an op's destination offset is
/// always higher than its source offsets, so every source row lives
/// strictly below the split. A source offset that somehow violated the
/// invariant would index past `lo` and panic rather than alias the
/// destination.
#[inline(always)]
fn dst_row(vbuf: &mut [u64], w: usize, d: u32) -> (&mut [u64], &[u64]) {
    let (lo, hi) = vbuf.split_at_mut(d as usize);
    (&mut hi[..w], lo)
}

#[inline(always)]
fn src_row(lo: &[u64], w: usize, o: u32) -> &[u64] {
    &lo[o as usize..o as usize + w]
}

/// Merging-predication lanewise loop over one source row: active lanes
/// get `f(x)`, inactive lanes pass the source through. The full-mask
/// fast path drops the per-lane mask test so LLVM can vectorize the body.
#[inline(always)]
fn lanes1(d: &mut [u64], a: &[u64], m: u64, full: u64, f: impl Fn(u64) -> u64) {
    if m == full {
        for (dl, &x) in d.iter_mut().zip(a) {
            *dl = f(x);
        }
    } else {
        for (l, (dl, &x)) in d.iter_mut().zip(a).enumerate() {
            *dl = if m >> l & 1 == 1 { f(x) } else { x };
        }
    }
}

/// [`lanes1`] over two source rows; inactive lanes pass `a` through.
#[inline(always)]
fn lanes2(d: &mut [u64], a: &[u64], b: &[u64], m: u64, full: u64, f: impl Fn(u64, u64) -> u64) {
    if m == full {
        for (dl, (&x, &y)) in d.iter_mut().zip(a.iter().zip(b)) {
            *dl = f(x, y);
        }
    } else {
        for (l, (dl, (&x, &y))) in d.iter_mut().zip(a.iter().zip(b)).enumerate() {
            *dl = if m >> l & 1 == 1 { f(x, y) } else { x };
        }
    }
}

/// One monomorphized loop per [`BinOp`] so the op dispatch is hoisted out
/// of the lane loop (`bin_lane` const-folds on the known variant).
fn bin_rows(op: BinOp, d: &mut [u64], a: &[u64], b: &[u64], m: u64, full: u64) {
    macro_rules! arm {
        ($v:expr) => {
            lanes2(d, a, b, m, full, |x, y| bin_lane($v, x, y))
        };
    }
    match op {
        BinOp::FAdd => arm!(BinOp::FAdd),
        BinOp::FSub => arm!(BinOp::FSub),
        BinOp::FMul => arm!(BinOp::FMul),
        BinOp::FDiv => arm!(BinOp::FDiv),
        BinOp::FMax => arm!(BinOp::FMax),
        BinOp::FMin => arm!(BinOp::FMin),
        BinOp::IAdd => arm!(BinOp::IAdd),
        BinOp::ISub => arm!(BinOp::ISub),
        BinOp::IMul => arm!(BinOp::IMul),
        BinOp::And => arm!(BinOp::And),
        BinOp::Orr => arm!(BinOp::Orr),
        BinOp::Eor => arm!(BinOp::Eor),
    }
}

/// [`bin_rows`] for the unary ops.
fn un_rows(op: UnOp, d: &mut [u64], a: &[u64], m: u64, full: u64) {
    match op {
        UnOp::Sqrt => lanes1(d, a, m, full, |x| un_lane(UnOp::Sqrt, x)),
        UnOp::Neg => lanes1(d, a, m, full, |x| un_lane(UnOp::Neg, x)),
        UnOp::Abs => lanes1(d, a, m, full, |x| un_lane(UnOp::Abs, x)),
        UnOp::Rintn => lanes1(d, a, m, full, |x| un_lane(UnOp::Rintn, x)),
    }
}

/// Fused multiply-add row; `NEG` selects `fmls`. Inactive lanes pass the
/// accumulator through (the interpreter's merging `fmla` semantics).
#[inline(always)]
fn fmla_rows<const NEG: bool>(d: &mut [u64], c: &[u64], a: &[u64], b: &[u64], m: u64, full: u64) {
    let f = |cv: u64, av: u64, bv: u64| {
        let av = f64::from_bits(av);
        let av = if NEG { -av } else { av };
        lanes::dn(av.mul_add(f64::from_bits(bv), f64::from_bits(cv))).to_bits()
    };
    if m == full {
        for (dl, ((&cv, &av), &bv)) in d.iter_mut().zip(c.iter().zip(a).zip(b)) {
            *dl = f(cv, av, bv);
        }
    } else {
        for (l, (dl, ((&cv, &av), &bv))) in d.iter_mut().zip(c.iter().zip(a).zip(b)).enumerate() {
            *dl = if m >> l & 1 == 1 { f(cv, av, bv) } else { cv };
        }
    }
}

#[inline(always)]
fn cmp_rows(a: &[u64], b: &[u64], m: u64, f: impl Fn(f64, f64) -> bool) -> u64 {
    let mut r = 0u64;
    for (l, (&x, &y)) in a.iter().zip(b).enumerate() {
        if m >> l & 1 == 1 && f(f64::from_bits(x), f64::from_bits(y)) {
            r |= 1 << l;
        }
    }
    r
}

#[inline(always)]
pub(crate) fn bin_lane(op: BinOp, x: u64, y: u64) -> u64 {
    match op {
        BinOp::FAdd => lanes::dn(f64::from_bits(x) + f64::from_bits(y)).to_bits(),
        BinOp::FSub => lanes::dn(f64::from_bits(x) - f64::from_bits(y)).to_bits(),
        BinOp::FMul => lanes::dn(f64::from_bits(x) * f64::from_bits(y)).to_bits(),
        BinOp::FDiv => lanes::dn(f64::from_bits(x) / f64::from_bits(y)).to_bits(),
        BinOp::FMax => lanes::fmax_lane(x, y),
        BinOp::FMin => lanes::fmin_lane(x, y),
        BinOp::IAdd => (x as i64).wrapping_add(y as i64) as u64,
        BinOp::ISub => (x as i64).wrapping_sub(y as i64) as u64,
        BinOp::IMul => (x as i64).wrapping_mul(y as i64) as u64,
        BinOp::And => x & y,
        BinOp::Orr => x | y,
        BinOp::Eor => x ^ y,
    }
}

#[inline(always)]
pub(crate) fn un_lane(op: UnOp, x: u64) -> u64 {
    match op {
        UnOp::Sqrt => lanes::dn(f64::from_bits(x).sqrt()).to_bits(),
        UnOp::Neg => (-f64::from_bits(x)).to_bits(),
        UnOp::Abs => f64::from_bits(x).abs().to_bits(),
        UnOp::Rintn => lanes::frintn_lane(f64::from_bits(x)).to_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_interpreter_blockwise_poly() {
        // y = (x + 0.5) * x  over an odd-length range with a ragged tail.
        let xs: Vec<f64> = (0..101).map(|i| i as f64 * 0.37 - 18.0).collect();
        let t = Trace::record1(8, |c, pg, x| {
            let half = c.dup_f64(0.5);
            let s = c.fadd(pg, x, &half);
            c.fmul(pg, &s, x)
        });
        let got = t.map(&xs);
        // interpreter reference
        let mut want = vec![0.0; xs.len()];
        for i in (0..xs.len()).step_by(8) {
            let mut c = SveCtx::new(8);
            let pg = c.whilelt(i, xs.len());
            let m = 8.min(xs.len() - i);
            let mut lanes = [0.0f64; 8];
            lanes[..m].copy_from_slice(&xs[i..i + m]);
            let x = c.input_f64(&lanes);
            let half = c.dup_f64(0.5);
            let s = c.fadd(&pg, &x, &half);
            let y = c.fmul(&pg, &s, &x);
            for l in 0..m {
                want[i + l] = y.f64_lane(l);
            }
        }
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_map_is_bit_identical_to_serial_map() {
        let xs: Vec<f64> = (0..10_007).map(|i| (i as f64).sin() * 3.0).collect();
        let t = Trace::record1(8, |c, pg, x| {
            let e = c.frecpe(x);
            let s = c.frecps(pg, x, &e);
            c.fmul(pg, &e, &s)
        });
        let serial = t.map(&xs);
        for threads in [1, 2, 7] {
            let par = t.par_map(threads, &xs);
            assert_eq!(
                serial.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn analysis_reports_slot_wiring() {
        // y = (x + 0.5) * x: setup = {const 0.5}, live-in = {const, x},
        // loop predicate present, two body instrs, output live-out.
        let t = Trace::record1(8, |c, pg, x| {
            let half = c.dup_f64(0.5);
            let s = c.fadd(pg, x, &half);
            c.fmul(pg, &s, x)
        });
        let info = t.analysis();
        assert_eq!(info.vl, 8);
        assert_eq!(info.body.len(), 2);
        assert_eq!(info.body.len(), info.table_len.len());
        assert!(info.table_len.iter().all(Option::is_none));
        assert_eq!(info.const_lanes.len(), 1);
        assert_eq!(info.const_lanes[0].1[0], 0.5f64.to_bits());
        assert_eq!(info.live_in_vec.len(), 2, "const + input");
        let lp = info.loop_pred.expect("record1 uses a loop predicate");
        assert_eq!(info.live_in_pred, vec![lp]);
        assert!(info.ptrue_preds.is_empty());
        // Every body instr leads with the loop predicate and defines a reg
        // that def-use metadata exposes.
        for i in &info.body {
            assert_eq!(i.use_regs()[0], lp);
            assert!(i.def_reg().is_some());
        }
        assert_eq!(info.live_out, vec![info.body[1].def_reg().unwrap()]);
    }

    #[test]
    fn analysis_taps_count_as_live_out() {
        let mut b = TraceBuilder::new(8);
        let pg = b.loop_pred();
        let x = b.input_f64();
        b.begin_body();
        let (p, y) = {
            let c = b.ctx();
            let zero = c.dup_f64(0.0);
            let p = c.fcmgt(&pg, &x, &zero);
            let y = c.fadd(&p, &x, &x);
            (p, y)
        };
        let _ps = b.pslot_of(&p);
        let _ys = b.slot_of(&y);
        let t = b.finish(&[]);
        let info = t.analysis();
        // No declared outputs, but both taps are live-out (one vector,
        // one predicate — the predicate is numbered above n_vec_regs).
        assert_eq!(info.live_out.len(), 2);
        assert!(info.live_out.iter().any(|&r| r >= info.n_vec_regs as u32));
    }

    #[test]
    fn mutated_classes_produce_replayable_mutants() {
        let t = Trace::record1(8, |c, pg, x| {
            let half = c.dup_f64(0.5);
            let s = c.fadd(pg, x, &half);
            c.fmul(pg, &s, x)
        });
        let xs: Vec<f64> = (0..17).map(|i| 1.0 + i as f64 * 0.061).collect();
        let base = t.map(&xs);
        for seed in 0..16u64 {
            let m = t.mutated(seed);
            if seed % 4 == 3 {
                // Semantic mutants keep slot wiring valid, so they replay —
                // and must actually change the output.
                let got = m.map(&xs);
                assert_ne!(
                    base.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "semantic mutant (seed {seed}) left output unchanged"
                );
            } else {
                // Structural mutants differ from the original by exactly
                // one op in the lowered stream (or a grown register file).
                let same_stream = m.to_instrs() == t.to_instrs();
                let same_files = m.analysis().n_vec_regs == t.analysis().n_vec_regs
                    && m.analysis().n_pred_regs == t.analysis().n_pred_regs;
                assert!(
                    !(same_stream && same_files),
                    "structural mutant (seed {seed}) is identical to the original"
                );
            }
        }
    }

    #[test]
    fn constants_inside_body_hoist_to_setup() {
        let t = Trace::record1(8, |c, pg, x| {
            let k = c.dup_f64(2.0); // recorded mid-body, still setup
            c.fmul(pg, x, &k)
        });
        assert_eq!(t.body_len(), 1, "body must hold only the fmul");
    }

    #[test]
    fn carried_state_advances() {
        // acc_{n+1} = acc_n + 1.0, three iterations.
        let mut b = TraceBuilder::new(4);
        let (acc0, one) = {
            let c = b.ctx();
            let acc0 = c.dup_f64(0.0);
            let one = c.dup_f64(1.0);
            (acc0, one)
        };
        let pg = {
            let c = b.ctx();
            c.ptrue()
        };
        b.begin_body();
        let acc1 = {
            let c = b.ctx();
            c.fadd(&pg, &acc0, &one)
        };
        b.carry(&acc0, &acc1);
        let t = b.finish(&[&acc1]);
        let mut r = t.replayer();
        for want in [1.0, 2.0, 3.0] {
            r.step();
            assert_eq!(r.lane_f64(t.output(0), 0), want);
            r.advance();
        }
    }

    #[test]
    fn gather_scatter_roundtrip_through_working_tables() {
        let src: Vec<f64> = (0..8).map(|i| i as f64 * 1.5).collect();
        let dst = vec![0.0f64; 8];
        let mut b = TraceBuilder::new(8);
        let pg = b.loop_pred();
        let idx = b.input_i64();
        b.begin_body();
        let (g, scat_tab) = {
            let c = b.ctx();
            let g = c.ld1d_gather(&pg, &src, &idx, 8);
            let mut d = dst.clone();
            c.st1d_scatter(&pg, &g, &mut d, &idx);
            (g, 1usize)
        };
        let t = b.finish(&[&g]);
        let mut r = t.replayer();
        let perm = [3i64, 1, 4, 0, 6, 2, 7, 5];
        r.set_block(0, 8);
        r.bind_i64(0, &perm);
        r.step();
        for (l, &p) in perm.iter().enumerate() {
            assert_eq!(r.lane_f64(t.output(0), l), src[p as usize]);
        }
        assert_eq!(r.table(scat_tab), &src[..]);
        drop(r);

        // A second replayer of the same trace, on the same thread, starts
        // from the captured table, not from the first one's scatters.
        let mut r2 = t.replayer();
        assert_eq!(r2.table(scat_tab), &dst[..]);
        r2.set_block(0, 2);
        r2.bind_i64(0, &perm);
        r2.step();
        let mut want = dst.clone();
        for &p in &perm[..2] {
            want[p as usize] = src[p as usize];
        }
        assert_eq!(r2.table(scat_tab), &want[..]);
    }

    #[test]
    fn regather_after_scatter_replays_like_the_interpreter() {
        // Gather from `a`, scatter into it, gather from it again. The
        // first two captures hold the same bits and share one allocation;
        // the third holds the scattered values and must not.
        let a: Vec<f64> = (0..16).map(|i| 0.25 + i as f64).collect();
        let body = |c: &mut SveCtx, a: &mut [f64]| {
            let pg = c.ptrue();
            let idx = c.index(3, 1);
            let g0 = c.ld1d_gather(&pg, a, &idx, 8);
            let two = c.dup_f64(-2.0);
            let v = c.fmul(&pg, &g0, &two);
            c.st1d_scatter(&pg, &v, a, &idx);
            // Even indices: some scattered, some untouched.
            let idx2 = c.index(0, 2);
            let g1 = c.ld1d_gather(&pg, a, &idx2, 8);
            (g0, g1)
        };
        let mut want_a = a.clone();
        let (w0, w1) = body(&mut SveCtx::new(8), &mut want_a);

        let mut b = TraceBuilder::new(8);
        b.begin_body();
        let mut rec_a = a.clone();
        let (g0, g1) = body(b.ctx(), &mut rec_a);
        let t = b.finish(&[&g0, &g1]);
        let tabs = t.tables();
        assert_eq!(tabs.len(), 3);
        assert!(Arc::ptr_eq(&tabs[0], &tabs[1]));
        assert!(!Arc::ptr_eq(&tabs[1], &tabs[2]));

        let mut r = t.replayer();
        r.step();
        for l in 0..8 {
            assert_eq!(r.lane_bits(t.output(0), l), w0.bits[l]);
            assert_eq!(r.lane_bits(t.output(1), l), w1.bits[l]);
        }
        // Each index keeps its own working copy: the scatter lands in
        // table 1 only, and table 0 still holds the gathered bits.
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(r.table(1)), bits(&want_a));
        assert_eq!(bits(r.table(0)), bits(&a));
    }

    #[test]
    fn to_instrs_covers_body_ops() {
        let t = Trace::record1(8, |c, pg, x| {
            let two = c.dup_f64(2.0);
            let s = c.fadd(pg, x, &two);
            let p = c.fcmgt(pg, &s, &two);
            c.sel(&p, &s, x)
        });
        let ins = t.to_instrs();
        assert_eq!(ins.len(), 3);
        assert_eq!(ins[0].op, OpClass::FAdd);
        assert_eq!(ins[1].op, OpClass::FCmp);
        assert_eq!(ins[2].op, OpClass::Select);
        // select reads the compare's destination
        assert!(ins[2].srcs.contains(&ins[1].dst.unwrap()));
    }

    #[test]
    #[should_panic(expected = "cannot be recorded into a trace")]
    fn harness_ops_panic_under_tracing() {
        let mut b = TraceBuilder::new(8);
        b.begin_body();
        let c = b.ctx();
        let _ = c.whilelt(0, 100);
    }
}
