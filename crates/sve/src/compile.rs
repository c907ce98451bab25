//! AOT trace compilation: SSA passes + fused native closures.
//!
//! The replayer in [`crate::trace`] interprets one [`TOp`] at a time over a
//! ≤64-lane arena — a dispatch, a predicate-mask test, and a bounds-checked
//! slice walk per op per step. This module compiles a recorded [`Trace`]
//! once and replays the compiled form many times:
//!
//! 1. **Pass pipeline** ([`optimize`]) — constant folding of ops whose
//!    vector inputs are setup constants and whose governing predicate is
//!    statically all-true, predicate simplification (`pand` with an
//!    all-true operand and `sel` under an all-true predicate dissolve into
//!    substitutions), and backward dead-def elimination. The predicate
//!    facts reuse the `{Bounded, Wide}` lattice the `ookami-check`
//!    verifier proves through [`ookami_uarch::meta::pred_transfer`]: a
//!    substitution only ever replaces a predicate with one of identical
//!    lattice value, so a verified trace stays verified (the satellite
//!    `ookamicheck` run re-proves every optimized family trace).
//! 2. **Kernel emission** — the optimized body becomes a straight line of
//!    monomorphized kernels ([`K`]) over 512-lane register-cached rows
//!    (`[u64; 512]`, SoA per SSA slot): splat constants become immediate
//!    operands, adjacent `fmul`→`fcvtns` and `fmul`→`fmla` pairs fuse when
//!    the intermediate is single-use, and all-true predicates drop their
//!    mask tests entirely. Ops under a genuinely narrow predicate compute
//!    unmasked and then merge (`(new & m) | (first_src & !m)`) — bitwise
//!    identical to the replayer's merging predication.
//! 3. **Block-scaled accounting** — obs counters are bumped once per
//!    512-lane block from the *original* (pre-pass) body, with lane counts
//!    resolved per [`ookami_uarch::meta::lane_accounting`]; on full blocks
//!    every per-`vl`-iteration count the interpreter or replayer would
//!    produce is a linear function of blocks × active lanes, so one
//!    aggregated bump per op yields bit-equal totals (see
//!    DESIGN.md §4.7 for the argument).
//!
//! Ragged tails (the final `n mod 512` elements) and traces the native
//! plan cannot express (loop-carried state, `compact`, gather/scatter)
//! fall back to the replayer on the **original** trace, preserving both
//! bits and counters exactly.

use std::collections::{HashMap, HashSet};

use crate::counters;
use crate::fexpa::{fexpa_lane, mantissa_table};
use crate::lanes;
use crate::trace::{
    bin_lane, pg_mut, top_class, top_def, top_pg, un_lane, v_srcs_mut, BinOp, CmpOp, CvtOp, PSlot,
    Replayer, ShiftOp, Slot, TOp, Trace, UnOp, VSlot,
};
use ookami_core::obs::{self, Counter, Snapshot};
use ookami_core::pool::Schedule;
use ookami_core::runtime::{par_for_with, SendPtr};
use ookami_uarch::meta::{self, LaneAccounting, PredDom};
use ookami_uarch::OpClass;

/// Lanes per compiled block: two replayer-width (64-lane) steps' worth.
/// Large enough to amortize kernel dispatch, small enough that a real
/// body's row set (~20 SSA slots × 1 KiB) stays L1-resident — the block
/// size is the dominant lever here, measured on the corrected-Estrin
/// chain: 128 ⇒ 380 M elems/s, 256 ⇒ 311 M, 512 ⇒ 252 M (80 KiB of rows
/// thrashes L1 between kernels).
pub(crate) const W: usize = 128;

/// One SSA slot's lane storage: a fixed-size row so LLVM knows the trip
/// count and autovectorizes the kernel loops (slice-length rows defeat
/// that and cost ~4x, measured).
type Row = [u64; W];

const SIGN: u64 = 1u64 << 63;

/// What the pass pipeline did to one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileReport {
    /// Whether a native plan was built (false ⇒ every call replays).
    pub native: bool,
    /// Body ops in the recorded trace.
    pub body_ops: usize,
    /// Body ops after the pass pipeline.
    pub opt_ops: usize,
    /// Emitted native kernels (≤ `opt_ops`; fusion shrinks it).
    pub kernels: usize,
    /// Kernel pairs fused (`fmul→fcvtns`, `fmul→fmla`).
    pub fused: usize,
    /// Ops folded to setup constants.
    pub folded: usize,
    /// `pand`/`sel` ops dissolved into substitutions.
    pub pred_simplified: usize,
    /// Dead defs removed (body + setup).
    pub dead_removed: usize,
}

/// An ahead-of-time compiled trace: same bulk entry points as
/// [`Trace::map`] and friends (which lazily build the identical engine),
/// but the compile cost is paid at [`Trace::compile`] time and the
/// [`CompileReport`] is exposed.
pub struct CompiledTrace {
    t: Trace,
}

impl CompiledTrace {
    pub(crate) fn new(t: Trace) -> CompiledTrace {
        let ct = CompiledTrace { t };
        ct.t.engine(); // force the build now, not on first map
        ct
    }

    /// What the pass pipeline and kernel emitter did.
    pub fn report(&self) -> CompileReport {
        self.t.engine().report.clone()
    }

    /// Whether calls run the fused native path (vs. replayer fallback).
    pub fn is_native(&self) -> bool {
        self.t.engine().plan.is_some()
    }

    /// See [`Trace::map`].
    pub fn map(&self, xs: &[f64]) -> Vec<f64> {
        self.t.map(xs)
    }

    /// See [`Trace::map2`].
    pub fn map2(&self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        self.t.map2(xs, ys)
    }

    /// See [`Trace::par_map`].
    pub fn par_map(&self, threads: usize, xs: &[f64]) -> Vec<f64> {
        self.t.par_map(threads, xs)
    }

    /// See [`Trace::par_map2`].
    pub fn par_map2(&self, threads: usize, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        self.t.par_map2(threads, xs, ys)
    }
}

// ---------------------------------------------------------------------------
// Pass pipeline
// ---------------------------------------------------------------------------

/// Everything the passes learned, for the engine builder.
pub(crate) struct PassOut {
    pub(crate) t: Trace,
    /// Predicate substitutions from dissolved `pand`s (fully resolved).
    pub(crate) psubst: HashMap<Slot, Slot>,
    /// Predicate slots statically all-true by construction (`ptrue`
    /// closure) — *not* the loop predicate, which narrows on tails.
    pub(crate) full: HashSet<Slot>,
    pub(crate) stats: CompileReport,
}

/// Run the pass pipeline. Public wrapper for [`Trace::optimized`].
pub(crate) fn optimize(t: &Trace) -> (Trace, CompileReport) {
    let out = run_passes(t, false);
    let stats = out.stats.clone();
    (out.t, stats)
}

fn resolve(map: &HashMap<Slot, Slot>, mut s: Slot) -> Slot {
    while let Some(&n) = map.get(&s) {
        s = n;
    }
    s
}

/// Const fold → predicate simplify → dead-def eliminate, on a clone.
///
/// `keep_acct_preds` retains every predicate the *original* body's
/// counter accounting will read at runtime (the compiled engine counts
/// the pre-pass stream), so DCE cannot strip a mask the accounting needs.
pub(crate) fn run_passes(t: &Trace, keep_acct_preds: bool) -> PassOut {
    let mut st = PassState::new(t);
    st.fold();
    st.simplify();
    st.dce(if keep_acct_preds { Some(t) } else { None });
    st.into_out()
}

/// The pass pipeline as an explicit three-step state machine, so the
/// translation-validation surface ([`crate::tv`]) can snapshot the trace
/// *between* passes. [`run_passes`] drives the steps back to back and is
/// behavior-identical to the former monolithic function.
pub(crate) struct PassState {
    /// The working clone, rewritten in place by each pass.
    pub(crate) o: Trace,
    /// Statically all-true predicates: setup ptrue, closed under pand.
    full: HashSet<Slot>,
    /// {Bounded, Wide} facts, maintained with the verifier's own transfer
    /// function so substitutions provably preserve what OC0006 proves.
    dom: HashMap<Slot, PredDom>,
    /// Predicate substitutions from dissolved `pand`s.
    pub(crate) psubst: HashMap<Slot, Slot>,
    /// Vector substitutions from dissolved full-mask `sel`s.
    pub(crate) vsubst: HashMap<Slot, Slot>,
    pub(crate) stats: CompileReport,
}

impl PassState {
    pub(crate) fn new(t: &Trace) -> PassState {
        let o = t.clone();
        let stats = CompileReport {
            body_ops: t.body.len(),
            ..CompileReport::default()
        };
        let mut full: HashSet<Slot> = HashSet::new();
        for op in &o.setup {
            if let TOp::Ptrue { dst } = *op {
                full.insert(dst);
            }
        }
        let mut dom: HashMap<Slot, PredDom> = full.iter().map(|&s| (s, PredDom::Wide)).collect();
        if let Some(lp) = o.loop_pred {
            dom.insert(lp, PredDom::Bounded);
        }
        PassState {
            o,
            full,
            dom,
            psubst: HashMap::new(),
            vsubst: HashMap::new(),
            stats,
        }
    }

    /// Pass 1: constant folding. Ops whose vector inputs are setup
    /// constants and whose governing predicate is statically all-true
    /// evaluate at compile time and move to setup as `ConstV`.
    pub(crate) fn fold(&mut self) {
        let o = &mut self.o;
        // Setup constant lanes by slot.
        let mut consts: HashMap<Slot, Vec<u64>> = HashMap::new();
        for op in &o.setup {
            if let TOp::ConstV { dst, ref lanes } = *op {
                consts.insert(dst, lanes.clone());
            }
        }
        let vl = o.vl;
        let mut kept = Vec::with_capacity(o.body.len());
        for op in std::mem::take(&mut o.body) {
            let foldable = top_pg(&op).is_none_or(|pg| self.full.contains(&pg));
            match fold_op(&op, &consts, vl) {
                Some(lanes) if foldable => {
                    let dst = top_def(&op).0.expect("folded ops define a vector");
                    consts.insert(dst, lanes.clone());
                    o.setup.push(TOp::ConstV { dst, lanes });
                    self.stats.folded += 1;
                }
                _ => kept.push(op),
            }
        }
        o.body = kept;
    }

    /// Pass 2: predicate simplification. `pand` with an all-true operand
    /// and `sel` under an all-true predicate dissolve into slot
    /// substitutions, recorded in `psubst`/`vsubst` (the witness the
    /// translation validator checks).
    pub(crate) fn simplify(&mut self) {
        let mut n_simpl = 0usize;
        let mut setup = std::mem::take(&mut self.o.setup);
        simplify_ops(
            &mut setup,
            &mut self.full,
            &mut self.dom,
            &mut self.psubst,
            &mut self.vsubst,
            &mut n_simpl,
        );
        self.o.setup = setup;
        let mut body = std::mem::take(&mut self.o.body);
        simplify_ops(
            &mut body,
            &mut self.full,
            &mut self.dom,
            &mut self.psubst,
            &mut self.vsubst,
            &mut n_simpl,
        );
        self.o.body = body;
        self.stats.pred_simplified = n_simpl;
        // Rewire the trace-level slot references through the substitutions.
        let o = &mut self.o;
        for s in o
            .outputs
            .iter_mut()
            .chain(o.tap_v.iter_mut())
            .chain(o.carries.iter_mut().flat_map(|(a, b)| [a, b]))
        {
            *s = resolve(&self.vsubst, *s);
        }
        for s in &mut o.tap_p {
            *s = resolve(&self.psubst, *s);
        }
    }

    /// Pass 3: backward dead-def elimination. `keep_acct` is the original
    /// trace whose body's accounting predicates must survive (the native
    /// engine counts the pre-pass stream), `None` for a pure optimize.
    pub(crate) fn dce(&mut self, keep_acct: Option<&Trace>) {
        let o = &mut self.o;
        let mut live_v: HashSet<Slot> = o.outputs.iter().copied().collect();
        live_v.extend(o.tap_v.iter().copied());
        live_v.extend(o.carries.iter().flat_map(|&(a, b)| [a, b]));
        let mut live_p: HashSet<Slot> = o.tap_p.iter().copied().collect();
        if let Some(t) = keep_acct {
            // The runtime accounting pops masks of the ORIGINAL body's ops
            // (post-substitution); those defs must survive.
            for op in &t.body {
                if let Some(pg) = top_pg(op) {
                    live_p.insert(resolve(&self.psubst, pg));
                }
                if let TOp::Pand { a, b, .. } = *op {
                    live_p.insert(resolve(&self.psubst, a));
                    live_p.insert(resolve(&self.psubst, b));
                }
            }
        }
        let dce = |ops: &mut Vec<TOp>,
                   live_v: &mut HashSet<Slot>,
                   live_p: &mut HashSet<Slot>,
                   removed: &mut usize| {
            let mut kept_rev = Vec::with_capacity(ops.len());
            for mut op in ops.drain(..).rev() {
                let effectful = matches!(
                    op,
                    TOp::Scatter { .. } | TOp::Overhead { .. } | TOp::LibmCall
                );
                let live = match top_def(&op) {
                    (Some(v), _) => live_v.contains(&v),
                    (_, Some(p)) => live_p.contains(&p),
                    _ => false,
                };
                if !(live || effectful) {
                    *removed += 1;
                    continue;
                }
                if let Some(pg) = pg_mut(&mut op) {
                    live_p.insert(*pg);
                }
                if let TOp::Pand { a, b, .. } = op {
                    live_p.insert(a);
                    live_p.insert(b);
                }
                for s in v_srcs_mut(&mut op) {
                    live_v.insert(*s);
                }
                kept_rev.push(op);
            }
            kept_rev.reverse();
            *ops = kept_rev;
        };
        let mut removed = 0usize;
        let mut body = std::mem::take(&mut o.body);
        dce(&mut body, &mut live_v, &mut live_p, &mut removed);
        o.body = body;
        let mut setup = std::mem::take(&mut o.setup);
        dce(&mut setup, &mut live_v, &mut live_p, &mut removed);
        o.setup = setup;
        self.stats.dead_removed = removed;
        self.stats.opt_ops = self.o.body.len();
    }

    pub(crate) fn into_out(self) -> PassOut {
        PassOut {
            t: self.o,
            psubst: self.psubst,
            full: self.full,
            stats: self.stats,
        }
    }
}

/// One `simplify` sweep over an op list (setup or body), threading the
/// lattice facts and substitution maps.
fn simplify_ops(
    ops: &mut Vec<TOp>,
    full: &mut HashSet<Slot>,
    dom: &mut HashMap<Slot, PredDom>,
    psubst: &mut HashMap<Slot, Slot>,
    vsubst: &mut HashMap<Slot, Slot>,
    n: &mut usize,
) {
    let mut kept = Vec::with_capacity(ops.len());
    for mut op in ops.drain(..) {
        // Apply accumulated substitutions first.
        if let Some(pg) = pg_mut(&mut op) {
            *pg = resolve(psubst, *pg);
        }
        for s in v_srcs_mut(&mut op) {
            *s = resolve(vsubst, *s);
        }
        match op {
            TOp::Pand { dst, mut a, mut b } => {
                a = resolve(psubst, a);
                b = resolve(psubst, b);
                let d = meta::pred_transfer(
                    OpClass::PredOp,
                    &[
                        dom.get(&a).copied().unwrap_or(PredDom::Wide),
                        dom.get(&b).copied().unwrap_or(PredDom::Wide),
                    ],
                );
                dom.insert(dst, d);
                let rep = if full.contains(&a) && full.contains(&b) {
                    full.insert(dst);
                    Some(a)
                } else if full.contains(&a) {
                    // all-true ∧ b ≡ b, and Wide ∧ dom(b) = dom(b):
                    // the substitution carries the lattice fact along.
                    Some(b)
                } else if full.contains(&b) {
                    Some(a)
                } else {
                    None
                };
                if let Some(r) = rep {
                    debug_assert_eq!(
                        d,
                        dom.get(&r).copied().unwrap_or(PredDom::Wide),
                        "pand substitution must preserve the verifier's lattice fact"
                    );
                    psubst.insert(dst, r);
                    *n += 1;
                } else {
                    kept.push(TOp::Pand { dst, a, b });
                }
            }
            TOp::Sel { dst, pg, a, .. } if full.contains(&resolve(psubst, pg)) => {
                vsubst.insert(dst, a);
                *n += 1;
            }
            TOp::Cmp { dst, .. } | TOp::CmpNeImm { dst, .. } => {
                dom.insert(dst, meta::pred_transfer(OpClass::FCmp, &[]));
                kept.push(op);
            }
            _ => kept.push(op),
        }
    }
    *ops = kept;
}

/// Evaluate one op over `vl` constant lanes, if every vector source is a
/// known setup constant and the op is a pure lanewise vector op. The
/// evaluation calls the same lane functions the replayer does, so a
/// folded constant is bit-identical to the lanes replay would compute.
pub(crate) fn fold_op(op: &TOp, consts: &HashMap<Slot, Vec<u64>>, vl: usize) -> Option<Vec<u64>> {
    let c = |s: Slot| consts.get(&s);
    let lanes1 =
        |a: &Vec<u64>, f: &dyn Fn(u64) -> u64| -> Vec<u64> { a.iter().map(|&x| f(x)).collect() };
    Some(match *op {
        TOp::Bin { op, a, b, .. } => {
            let (a, b) = (c(a)?, c(b)?);
            (0..vl).map(|l| bin_lane(op, a[l], b[l])).collect()
        }
        TOp::Un { op, a, .. } => lanes1(c(a)?, &|x| un_lane(op, x)),
        TOp::Fmla {
            neg, c: cc, a, b, ..
        } => {
            let (cc, a, b) = (c(cc)?, c(a)?, c(b)?);
            (0..vl)
                .map(|l| {
                    let av = f64::from_bits(a[l]);
                    let av = if neg { -av } else { av };
                    lanes::dn(av.mul_add(f64::from_bits(b[l]), f64::from_bits(cc[l]))).to_bits()
                })
                .collect()
        }
        TOp::Est { rsqrt, a, .. } => {
            let f: fn(u64) -> u64 = if rsqrt {
                lanes::rsqrte_lane
            } else {
                lanes::recpe_lane
            };
            lanes1(c(a)?, &f)
        }
        TOp::NewtonStep { rsqrt, a, b, .. } => {
            let (a, b) = (c(a)?, c(b)?);
            (0..vl)
                .map(|l| {
                    let (x, y) = (f64::from_bits(a[l]), f64::from_bits(b[l]));
                    if rsqrt {
                        lanes::rsqrts_lane(x, y).to_bits()
                    } else {
                        lanes::recps_lane(x, y).to_bits()
                    }
                })
                .collect()
        }
        TOp::Fexpa { a, .. } => lanes1(c(a)?, &|x| fexpa_lane(x).to_bits()),
        TOp::Ftmad { a, b, coeff, .. } => {
            let (a, b) = (c(a)?, c(b)?);
            (0..vl)
                .map(|l| {
                    lanes::dn(f64::from_bits(a[l]).mul_add(f64::from_bits(b[l]), coeff)).to_bits()
                })
                .collect()
        }
        TOp::Shift { op, a, sh, .. } => {
            let f = move |x: u64| match op {
                ShiftOp::Lsl => x << sh,
                ShiftOp::Lsr => x >> sh,
                ShiftOp::Asr => ((x as i64) >> sh) as u64,
            };
            lanes1(c(a)?, &f)
        }
        TOp::Cvt { op, a, .. } => {
            let f: fn(u64) -> u64 = match op {
                CvtOp::Ucvtf => lanes::ucvtf_lane,
                CvtOp::Fcvtns => lanes::fcvtns_lane,
                CvtOp::Fcvtzs => lanes::fcvtzs_lane,
                CvtOp::Scvtf => lanes::scvtf_lane,
            };
            lanes1(c(a)?, &f)
        }
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Native plan
// ---------------------------------------------------------------------------

/// One fused native kernel over 512-lane rows. `RI` forms carry a splat
/// constant as an immediate (normalized onto the second operand through
/// bitwise-safe commutativity; `fmls` folds its sign into the immediate).
/// Predication is handled outside the kernel: an op under a narrow mask
/// computes unmasked and a [`K::Merge`] restores the inactive lanes.
// The `K` suffix reads as "kernel" and disambiguates from the `TOp`/`UnOp`
// names these variants lower from; renaming would only lose that link.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy)]
enum K {
    BinRR {
        op: BinOp,
        d: Slot,
        a: Slot,
        b: Slot,
    },
    BinRI {
        op: BinOp,
        d: Slot,
        a: Slot,
        imm: u64,
    },
    UnK {
        op: UnOp,
        d: Slot,
        a: Slot,
    },
    MlaRRR {
        neg: bool,
        d: Slot,
        c: Slot,
        a: Slot,
        b: Slot,
    },
    /// `dn(a*imm + c)` — sign of a negated multiplicand lives in `imm`.
    MlaRRI {
        d: Slot,
        c: Slot,
        a: Slot,
        imm: u64,
    },
    /// `dn(a*a_imm + c_imm)` (polynomial steps on two constants).
    MlaIRI {
        d: Slot,
        a: Slot,
        a_imm: u64,
        c_imm: u64,
    },
    EstK {
        rsqrt: bool,
        d: Slot,
        a: Slot,
    },
    NewtonK {
        rsqrt: bool,
        d: Slot,
        a: Slot,
        b: Slot,
    },
    /// Table-hoisted FEXPA: the 64-entry mantissa LUT is a plan field, so
    /// the lane loop is two shifts, a mask, and a load.
    FexpaK {
        d: Slot,
        a: Slot,
    },
    FtmadK {
        d: Slot,
        a: Slot,
        b: Slot,
        coeff: f64,
    },
    CvtK {
        op: CvtOp,
        d: Slot,
        a: Slot,
    },
    ShiftK {
        op: ShiftOp,
        d: Slot,
        a: Slot,
        sh: u32,
    },
    CmpK {
        op: CmpOp,
        d: Slot,
        m: Option<Slot>,
        a: Slot,
        b: Slot,
    },
    CmpNeImmK {
        d: Slot,
        m: Option<Slot>,
        a: Slot,
        imm: i64,
    },
    PandK {
        d: Slot,
        a: Slot,
        b: Slot,
    },
    SelK {
        d: Slot,
        m: Slot,
        a: Slot,
        b: Slot,
    },
    /// Merging predication: `d = (d & m) | (src & !m)` lanewise.
    Merge {
        d: Slot,
        m: Slot,
        src: Slot,
    },
    /// Fused `fmul`→`fcvtns`: round-to-nearest via the 1.5·2⁵² magic-add
    /// trick on the fast path (exact for |x| < 2⁵¹, ties-to-even).
    MulCvtnsRI {
        d: Slot,
        a: Slot,
        imm: u64,
    },
    MulCvtnsRR {
        d: Slot,
        a: Slot,
        b: Slot,
    },
    /// Fused `fmul`→`fmla`: `dn(dn(x*y)*o + c)`, inner `dn` kept so the
    /// value chain is bit-for-bit the unfused pair's.
    FMulMla {
        d: Slot,
        x: Slot,
        y: Slot,
        o: Slot,
        c: Slot,
    },
    /// Fused `fmul`→`fmla` where the product feeds the *addend* slot:
    /// `dn(a2*b2 + dn(x*y))` — the shape the corrected-Estrin tail uses.
    FMulMlaC {
        d: Slot,
        x: Slot,
        y: Slot,
        a2: Slot,
        b2: Slot,
    },
}

/// How many active lanes one original-body op contributes per block.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    /// Statically all-true governance: `W` lanes per block.
    Full,
    /// Popcount of a mask row at runtime.
    Row(Slot),
    /// Popcount of the AND of two mask rows (`pand` result population).
    RowAnd(Slot, Slot),
    Zero,
}

/// One obs-counter bump per original-body op per full block.
#[derive(Debug, Clone, Copy)]
enum Acct {
    Bump { class: OpClass, lanes: Lanes },
    FexpaA,
    OverheadA { int_ops: u64 },
    LibmA,
}

/// Everything needed to run full 512-lane blocks without touching the
/// [`Trace`]: initial row images, the kernel line, and the accounting
/// program derived from the *original* body.
#[derive(Debug)]
pub(crate) struct Plan {
    vl: usize,
    n_v: usize,
    n_p: usize,
    inputs: Vec<Slot>,
    out: Slot,
    /// Uniform setup rows: fill with one bit pattern.
    splats: Vec<(Slot, u64)>,
    /// Non-uniform setup rows: `vl` record lanes tiled across the block.
    tiles: Vec<(Slot, Vec<u64>)>,
    /// Statically all-true mask rows (loop predicate, ptrue closure).
    pfull: Vec<Slot>,
    /// Non-uniform setup masks, tiled like [`Plan::tiles`].
    ptiles: Vec<(Slot, Vec<bool>)>,
    kernels: Vec<K>,
    /// Runtime-varying accounting only: ops whose lane count popcounts a
    /// mask row the kernels compute per block. Everything static is
    /// pre-folded into `acct_static` at build time.
    acct: Vec<Acct>,
    /// One full block's statically-known counter increments, flushed once
    /// per bulk call scaled by the block count (per-block bumps would
    /// cost more in thread-local atomics than the kernels themselves).
    acct_static: Snapshot,
    tab: [u64; 64],
}

/// The compiled engine cached on a [`Trace`]. `plan: None` means every
/// call replays the original trace (non-batchable shapes, gather/scatter,
/// non-power-of-two vector lengths).
#[derive(Debug)]
pub(crate) struct Compiled {
    plan: Option<Plan>,
    pub(crate) report: CompileReport,
}

/// One chunk loop's lane rows: every serial call and every pool worker of
/// a parallel region builds its own.
struct State {
    rows: Vec<Row>,
    prows: Vec<Row>,
}

/// The native-plan admission gate: batchable elementwise shapes with a
/// loop predicate, 1–2 inputs, power-of-two vector length ≤ 64, and no
/// gather/scatter/compact (those families replay the recorded trace).
pub(crate) fn native_gate(t: &Trace) -> bool {
    t.batchable()
        && t.loop_pred.is_some()
        && !t.outputs.is_empty()
        && !t.inputs.is_empty()
        && t.inputs.len() <= 2
        && t.vl.is_power_of_two()
        && t.vl <= 64
        && !t.body.iter().any(|o| {
            matches!(
                o,
                TOp::Gather { .. } | TOp::Scatter { .. } | TOp::Compact { .. }
            )
        })
}

/// The emission-plan facts the translation validator cross-checks,
/// decoupled from the private [`Plan`] internals.
pub(crate) struct PlanFacts {
    pub(crate) blocks: u64,
    pub(crate) kernels: usize,
    pub(crate) fused: usize,
    /// Statically-full predicate slots: pass closure ∪ loop predicate ∪
    /// setup masks that materialize all-true.
    pub(crate) full: HashSet<Slot>,
    pub(crate) acct_static: Snapshot,
}

/// Build the native emission plan for a gated trace: materialize the
/// optimized setup, lower the body to the kernel line, and pre-fold the
/// static accounting. Returns the plan plus the facts [`crate::tv`]
/// re-derives independently; `None` if a body op has no native lowering.
pub(crate) fn build_plan(t: &Trace, passes: &PassOut) -> Option<(Plan, PlanFacts)> {
    let opt = &passes.t;

    // Materialize setup values once at record width: a throwaway
    // replayer runs the (uncounted) setup ops, and its arena is read
    // back into splat/tile row images.
    let vl = opt.vl;
    let mut splats = Vec::new();
    let mut tiles = Vec::new();
    let mut imm: HashMap<Slot, u64> = HashMap::new();
    let mut pfull = Vec::new();
    let mut ptiles = Vec::new();
    let mut full_native: HashSet<Slot> = passes.full.clone();
    let lp = opt
        .loop_pred
        .expect("native plan is gated on a loop predicate");
    full_native.insert(lp);
    pfull.push(lp);
    {
        let r = Replayer::with_batch(opt, 1);
        for op in &opt.setup {
            match top_def(op) {
                (Some(v), _) => {
                    let lanes: Vec<u64> = (0..vl).map(|l| r.lane_bits(VSlot(v), l)).collect();
                    if lanes.iter().all(|&x| x == lanes[0]) {
                        imm.insert(v, lanes[0]);
                        splats.push((v, lanes[0]));
                    } else {
                        tiles.push((v, lanes));
                    }
                }
                (_, Some(p)) => {
                    let mask: Vec<bool> = (0..vl).map(|l| r.pred_lane(PSlot(p), l)).collect();
                    if mask.iter().all(|&m| m) {
                        full_native.insert(p);
                        pfull.push(p);
                    } else {
                        ptiles.push((p, mask));
                    }
                }
                _ => {}
            }
        }
    }

    let (kernels, fused) = emit_kernels(opt, &full_native, &imm)?;
    let all = build_acct(t, &passes.psubst, &full_native);
    let blocks = (W / vl) as u64;
    let mut acct_static = Snapshot::zero();
    // Tiling the inputs into lane rows is the plan's only data load.
    acct_static.set(Counter::BytesLoaded, (opt.inputs.len() * 8 * W) as u64);
    let mut acct = Vec::new();
    for a in all {
        match a {
            Acct::Bump {
                class,
                lanes: Lanes::Full,
            } => counters::bump_into(&mut acct_static, class, blocks, W as u64, 1),
            Acct::Bump {
                class,
                lanes: Lanes::Zero,
            } => counters::bump_into(&mut acct_static, class, blocks, 0, 1),
            Acct::FexpaA => counters::bump_fexpa_into(&mut acct_static, blocks, W as u64),
            Acct::OverheadA { int_ops } => {
                counters::bump_into(&mut acct_static, OpClass::IntAlu, blocks * int_ops, 0, 1);
                counters::bump_into(&mut acct_static, OpClass::Branch, blocks, 0, 1);
            }
            Acct::LibmA => {
                counters::bump_into(&mut acct_static, OpClass::ScalarLibmCall, blocks, 0, 1);
            }
            dynamic @ Acct::Bump { .. } => acct.push(dynamic),
        }
    }
    let facts = PlanFacts {
        blocks,
        kernels: kernels.len(),
        fused,
        full: full_native,
        acct_static: acct_static.clone(),
    };
    let plan = Plan {
        vl,
        n_v: opt.n_v,
        n_p: opt.n_p,
        inputs: opt.inputs.clone(),
        out: opt.outputs[0],
        splats,
        tiles,
        pfull,
        ptiles,
        kernels,
        acct,
        acct_static,
        tab: mantissa_table(),
    };
    Some((plan, facts))
}

impl Compiled {
    pub(crate) fn build(t: &Trace) -> Compiled {
        let report = CompileReport {
            body_ops: t.body.len(),
            ..CompileReport::default()
        };
        if !native_gate(t) {
            return Compiled { plan: None, report };
        }
        let passes = run_passes(t, true);
        let mut report = passes.stats.clone();
        let Some((plan, facts)) = build_plan(t, &passes) else {
            return Compiled { plan: None, report };
        };
        report.fused = facts.fused;
        report.kernels = facts.kernels;
        report.native = true;
        Compiled {
            plan: Some(plan),
            report,
        }
    }

    pub(crate) fn map(&self, t: &Trace, xs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0f64; xs.len()];
        self.run_serial(t, &[xs], &mut out);
        out
    }

    pub(crate) fn map2(&self, t: &Trace, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        assert_eq!(xs.len(), ys.len());
        let mut out = vec![0.0f64; xs.len()];
        self.run_serial(t, &[xs, ys], &mut out);
        out
    }

    pub(crate) fn par_map(&self, t: &Trace, threads: usize, xs: &[f64]) -> Vec<f64> {
        self.run_par(t, threads, &[xs])
    }

    pub(crate) fn par_map2(&self, t: &Trace, threads: usize, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        assert_eq!(xs.len(), ys.len());
        self.run_par(t, threads, &[xs, ys])
    }

    fn run_serial(&self, t: &Trace, ins: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let plan = match &self.plan {
            Some(p) if p.inputs.len() == ins.len() && n >= W => p,
            _ => return t.replay_into(ins, out, 0),
        };
        let nfull = n / W;
        let mut st = plan.new_state();
        for c in 0..nfull {
            plan.run_chunk(&mut st, ins, &mut out[c * W..(c + 1) * W], c * W);
        }
        counters::flush(&plan.acct_static, nfull as u64);
        t.replay_into(ins, out, nfull * W);
    }

    fn run_par(&self, t: &Trace, threads: usize, ins: &[&[f64]]) -> Vec<f64> {
        let n = ins[0].len();
        let plan = match &self.plan {
            Some(p) if p.inputs.len() == ins.len() && n >= W => p,
            _ => return t.replay_par(threads, ins),
        };
        let nfull = n / W;
        let mut out = vec![0.0f64; n];
        let base = SendPtr::new(out.as_mut_ptr());
        par_for_with(threads, nfull, Schedule::Static, |_, s, e| {
            let mut st = plan.new_state();
            for c in s..e {
                // SAFETY: chunk ranges are disjoint and claimed exactly
                // once; `out` outlives the region (par_for_with blocks).
                let chunk = unsafe { base.slice_mut(c * W, W) };
                plan.run_chunk(&mut st, ins, chunk, c * W);
            }
        });
        counters::flush(&plan.acct_static, nfull as u64);
        t.replay_into(ins, &mut out, nfull * W);
        out
    }
}

/// Lower the optimized body to the kernel line. `None` if an op has no
/// native lowering (defensive — the build gate screens these earlier).
fn emit_kernels(
    opt: &Trace,
    full: &HashSet<Slot>,
    imm: &HashMap<Slot, u64>,
) -> Option<(Vec<K>, usize)> {
    // Use counts + loop-exit reads decide fusion legality: the fused
    // intermediate must die inside the pair.
    let mut uses: HashMap<Slot, usize> = HashMap::new();
    let mut body = opt.body.clone();
    for op in &mut body {
        for s in v_srcs_mut(op) {
            *uses.entry(*s).or_insert(0) += 1;
        }
    }
    let mut roots: HashSet<Slot> = opt.outputs.iter().copied().collect();
    roots.extend(opt.tap_v.iter().copied());
    roots.extend(opt.carries.iter().flat_map(|&(a, b)| [a, b]));

    let is_full = |pg: Slot| full.contains(&pg);
    let mut ks = Vec::new();
    let mut fused = 0usize;
    let mut skip = false;
    let b = &opt.body;
    for i in 0..b.len() {
        if skip {
            skip = false;
            continue;
        }
        let op = &b[i];
        let masked = top_pg(op).filter(|pg| !is_full(*pg));
        match *op {
            TOp::ConstV { .. } | TOp::Ptrue { .. } => unreachable!("constants live in setup"),
            TOp::Gather { .. } | TOp::Scatter { .. } | TOp::Compact { .. } => return None,
            TOp::Overhead { .. } | TOp::LibmCall => {}
            TOp::Bin {
                op: bo,
                dst,
                a,
                b: bb,
                ..
            } => {
                if bo == BinOp::FMul
                    && masked.is_none()
                    && uses.get(&dst) == Some(&1)
                    && !roots.contains(&dst)
                {
                    if let Some(next) = b.get(i + 1) {
                        match *next {
                            TOp::Cvt {
                                op: CvtOp::Fcvtns,
                                dst: d2,
                                pg,
                                a: ca,
                            } if ca == dst && is_full(pg) => {
                                ks.push(match (imm.get(&bb), imm.get(&a)) {
                                    (Some(&ib), _) => K::MulCvtnsRI { d: d2, a, imm: ib },
                                    (None, Some(&ia)) => K::MulCvtnsRI {
                                        d: d2,
                                        a: bb,
                                        imm: ia,
                                    },
                                    _ => K::MulCvtnsRR { d: d2, a, b: bb },
                                });
                                fused += 1;
                                skip = true;
                                continue;
                            }
                            TOp::Fmla {
                                neg: false,
                                dst: d2,
                                pg,
                                c,
                                a: fa,
                                b: fb,
                            } if is_full(pg) && c != dst && (fa == dst) != (fb == dst) => {
                                let o = if fa == dst { fb } else { fa };
                                ks.push(K::FMulMla {
                                    d: d2,
                                    x: a,
                                    y: bb,
                                    o,
                                    c,
                                });
                                fused += 1;
                                skip = true;
                                continue;
                            }
                            TOp::Fmla {
                                neg: false,
                                dst: d2,
                                pg,
                                c,
                                a: fa,
                                b: fb,
                            } if is_full(pg) && c == dst && fa != dst && fb != dst => {
                                ks.push(K::FMulMlaC {
                                    d: d2,
                                    x: a,
                                    y: bb,
                                    a2: fa,
                                    b2: fb,
                                });
                                fused += 1;
                                skip = true;
                                continue;
                            }
                            _ => {}
                        }
                    }
                }
                ks.push(match (imm.get(&bb), imm.get(&a)) {
                    (Some(&ib), _) => K::BinRI {
                        op: bo,
                        d: dst,
                        a,
                        imm: ib,
                    },
                    (None, Some(&ia)) if commutes(bo) => K::BinRI {
                        op: bo,
                        d: dst,
                        a: bb,
                        imm: ia,
                    },
                    _ => K::BinRR {
                        op: bo,
                        d: dst,
                        a,
                        b: bb,
                    },
                });
                if let Some(m) = masked {
                    ks.push(K::Merge { d: dst, m, src: a });
                }
            }
            TOp::Un { op: uo, dst, a, .. } => {
                ks.push(K::UnK { op: uo, d: dst, a });
                if let Some(m) = masked {
                    ks.push(K::Merge { d: dst, m, src: a });
                }
            }
            TOp::Fmla {
                neg,
                dst,
                c,
                a,
                b: fb,
                ..
            } => {
                let flip = |v: u64| if neg { v ^ SIGN } else { v };
                ks.push(match (imm.get(&c), imm.get(&a), imm.get(&fb)) {
                    (Some(&ic), Some(&ia), None) => K::MlaIRI {
                        d: dst,
                        a: fb,
                        a_imm: flip(ia),
                        c_imm: ic,
                    },
                    (Some(&ic), None, Some(&ib)) => K::MlaIRI {
                        d: dst,
                        a,
                        a_imm: flip(ib),
                        c_imm: ic,
                    },
                    (None, Some(&ia), None) => K::MlaRRI {
                        d: dst,
                        c,
                        a: fb,
                        imm: flip(ia),
                    },
                    (None, None, Some(&ib)) => K::MlaRRI {
                        d: dst,
                        c,
                        a,
                        imm: flip(ib),
                    },
                    _ => K::MlaRRR {
                        neg,
                        d: dst,
                        c,
                        a,
                        b: fb,
                    },
                });
                if let Some(m) = masked {
                    ks.push(K::Merge { d: dst, m, src: c });
                }
            }
            TOp::Est { rsqrt, dst, a } => ks.push(K::EstK { rsqrt, d: dst, a }),
            TOp::NewtonStep {
                rsqrt,
                dst,
                a,
                b: nb,
                ..
            } => {
                ks.push(K::NewtonK {
                    rsqrt,
                    d: dst,
                    a,
                    b: nb,
                });
                if let Some(m) = masked {
                    ks.push(K::Merge { d: dst, m, src: a });
                }
            }
            TOp::Fexpa { dst, a } => ks.push(K::FexpaK { d: dst, a }),
            TOp::Ftmad {
                dst,
                a,
                b: tb,
                coeff,
                ..
            } => {
                ks.push(K::FtmadK {
                    d: dst,
                    a,
                    b: tb,
                    coeff,
                });
                if let Some(m) = masked {
                    ks.push(K::Merge { d: dst, m, src: a });
                }
            }
            TOp::Cmp {
                op: co,
                dst,
                pg,
                a,
                b: cb,
            } => ks.push(K::CmpK {
                op: co,
                d: dst,
                m: (!is_full(pg)).then_some(pg),
                a,
                b: cb,
            }),
            TOp::CmpNeImm {
                dst,
                pg,
                a,
                imm: iv,
            } => ks.push(K::CmpNeImmK {
                d: dst,
                m: (!is_full(pg)).then_some(pg),
                a,
                imm: iv,
            }),
            TOp::Pand { dst, a, b: pb } => ks.push(K::PandK { d: dst, a, b: pb }),
            TOp::Sel { dst, pg, a, b: sb } => ks.push(K::SelK {
                d: dst,
                m: pg,
                a,
                b: sb,
            }),
            TOp::Shift {
                op: so, dst, a, sh, ..
            } => {
                ks.push(K::ShiftK {
                    op: so,
                    d: dst,
                    a,
                    sh,
                });
                if let Some(m) = masked {
                    ks.push(K::Merge { d: dst, m, src: a });
                }
            }
            TOp::Cvt { op: vo, dst, a, .. } => {
                ks.push(K::CvtK { op: vo, d: dst, a });
                if let Some(m) = masked {
                    ks.push(K::Merge { d: dst, m, src: a });
                }
            }
        }
    }
    Some((ks, fused))
}

/// Bitwise-safe commutativity: `dn` canonicalizes NaN payloads, so these
/// ops produce identical bits with swapped operands (FMAX/FMIN's ±0 tie
/// rules and NaN handling are symmetric too).
fn commutes(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::FAdd
            | BinOp::FMul
            | BinOp::FMax
            | BinOp::FMin
            | BinOp::IAdd
            | BinOp::IMul
            | BinOp::And
            | BinOp::Orr
            | BinOp::Eor
    )
}

/// The per-block accounting program from the **original** body: one entry
/// per recorded op, with lane counts resolved statically where the mask
/// is provably all-true on full blocks and by runtime mask-row popcount
/// otherwise. See [`crate::counters`] for why linearity makes one scaled
/// bump per block exactly equal to per-iteration counting.
fn build_acct(t: &Trace, psubst: &HashMap<Slot, Slot>, full: &HashSet<Slot>) -> Vec<Acct> {
    t.body
        .iter()
        .map(|op| match *op {
            TOp::Fexpa { .. } => Acct::FexpaA,
            TOp::Overhead { int_ops } => Acct::OverheadA {
                int_ops: int_ops as u64,
            },
            TOp::LibmCall => Acct::LibmA,
            TOp::Gather { .. } | TOp::Scatter { .. } => {
                unreachable!("gated out of the native plan")
            }
            _ => {
                let class = top_class(op).expect("body op lowers to a class");
                let lanes = match meta::lane_accounting(class) {
                    LaneAccounting::Governed => {
                        let pg = resolve(psubst, top_pg(op).expect("governed op has a predicate"));
                        if full.contains(&pg) {
                            Lanes::Full
                        } else {
                            Lanes::Row(pg)
                        }
                    }
                    LaneAccounting::FullVector => Lanes::Full,
                    LaneAccounting::ResultPop => match *op {
                        TOp::Pand { a, b, .. } => {
                            let (a, b) = (resolve(psubst, a), resolve(psubst, b));
                            match (full.contains(&a), full.contains(&b)) {
                                (true, true) => Lanes::Full,
                                (true, false) => Lanes::Row(b),
                                (false, true) => Lanes::Row(a),
                                (false, false) => Lanes::RowAnd(a, b),
                            }
                        }
                        _ => unreachable!("ResultPop lowers only from pand"),
                    },
                    LaneAccounting::Scalar => Lanes::Zero,
                };
                Acct::Bump { class, lanes }
            }
        })
        .collect()
}

impl Plan {
    /// A fresh [`State`] with the setup row images applied. Nothing else
    /// needs initializing: every other row a chunk reads is written earlier
    /// in the same chunk (inputs re-tile, kernel destinations are SSA), so
    /// one state serves every chunk of a chunk loop.
    fn new_state(&self) -> State {
        let mut st = State {
            rows: vec![[0u64; W]; self.n_v],
            prows: vec![[0u64; W]; self.n_p],
        };
        for &(s, v) in &self.splats {
            st.rows[s as usize] = [v; W];
        }
        for (s, lanes) in &self.tiles {
            let r = &mut st.rows[*s as usize];
            for (l, slot) in r.iter_mut().enumerate() {
                *slot = lanes[l % lanes.len()];
            }
        }
        for &s in &self.pfull {
            st.prows[s as usize] = [u64::MAX; W];
        }
        for (s, mask) in &self.ptiles {
            let r = &mut st.prows[*s as usize];
            for (l, slot) in r.iter_mut().enumerate() {
                *slot = if mask[l % mask.len()] { u64::MAX } else { 0 };
            }
        }
        st
    }

    /// Execute one full 512-lane block starting at element `i`.
    fn run_chunk(&self, st: &mut State, ins: &[&[f64]], out: &mut [f64], i: usize) {
        for (k, &slot) in self.inputs.iter().enumerate() {
            let row = &mut st.rows[slot as usize];
            let src = &ins[k][i..i + W];
            for (l, r) in row.iter_mut().enumerate() {
                *r = src[l].to_bits();
            }
        }
        for k in &self.kernels {
            exec_k(k, st, &self.tab);
        }
        if obs::enabled() && !self.acct.is_empty() {
            self.account(&st.prows);
        }
        let o = &st.rows[self.out as usize];
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = f64::from_bits(o[l]);
        }
    }

    /// Per-chunk accounting for the runtime-varying entries only (mask-row
    /// popcounts); the static remainder was pre-folded at build time.
    fn account(&self, prows: &[Row]) {
        let blocks = (W / self.vl) as u64;
        let popr = |p: Slot| prows[p as usize].iter().filter(|&&m| m != 0).count() as u64;
        for a in &self.acct {
            match *a {
                Acct::Bump { class, lanes } => {
                    let l = match lanes {
                        Lanes::Row(p) => popr(p),
                        Lanes::RowAnd(p, q) => prows[p as usize]
                            .iter()
                            .zip(&prows[q as usize])
                            .filter(|(&x, &y)| x & y != 0)
                            .count() as u64,
                        Lanes::Full | Lanes::Zero => {
                            unreachable!("static accounting is pre-folded at build")
                        }
                    };
                    counters::bump(class, blocks, l, 1);
                }
                _ => unreachable!("static accounting is pre-folded at build"),
            }
        }
    }
}

/// Split one mutable destination row from `N` shared source rows. Sound
/// because slots are SSA-numbered: a destination never aliases a source
/// (asserted); sources may alias each other, which shared refs allow.
#[inline(always)]
fn dsts<const N: usize>(rows: &mut [Row], d: Slot, srcs: [Slot; N]) -> (&mut Row, [&Row; N]) {
    let n = rows.len();
    assert!((d as usize) < n);
    for &s in &srcs {
        assert!((s as usize) < n && s != d, "SSA: dst aliases a source");
    }
    let p = rows.as_mut_ptr();
    // SAFETY: all indices in bounds; `d` differs from every source, so the
    // one `&mut` is disjoint from the shared refs.
    unsafe { (&mut *p.add(d as usize), srcs.map(|s| &*p.add(s as usize))) }
}

#[inline(always)]
fn zip1(d: &mut Row, a: &Row, f: impl Fn(u64) -> u64) {
    for l in 0..W {
        d[l] = f(a[l]);
    }
}

#[inline(always)]
fn zip2(d: &mut Row, a: &Row, b: &Row, f: impl Fn(u64, u64) -> u64) {
    for l in 0..W {
        d[l] = f(a[l], b[l]);
    }
}

/// 1.5 × 2⁵²: `(x + MAGIC) - MAGIC` rounds to the nearest integer with
/// ties to even — precisely `FCVTNS`'s rounding — because the sum lands
/// in [2⁵², 2⁵³) where the ulp is exactly 1.
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// Fast-path bound (2⁵¹): comfortably inside the magic trick's exact
/// range; NaN/inf/huge inputs fall back to the shared lane function.
const MAGIC_SAFE: f64 = 2_251_799_813_685_248.0;

/// `FCVTNS` over one lane block, `src(l)` producing the lane value. The
/// main loop is branchless (a per-lane branch to the libm-grade fallback
/// would keep LLVM from vectorizing it) and cast-free: for `|x| < 2⁵¹`
/// the sum `x + MAGIC` has a fixed exponent, so its low mantissa bits
/// *are* the rounded integer in offset form — `bits(x+MAGIC) -
/// bits(MAGIC)` as a wrapping integer subtract recovers it (two's
/// complement for negatives) without a float→int conversion. NaN/huge
/// lanes make the speculative result garbage-but-defined, and a second
/// pass rewrites exactly those lanes through the shared
/// [`lanes::fcvtns_lane`] semantics when any exist.
#[inline(always)]
fn cvtns_rows(d: &mut Row, src: impl Fn(usize) -> f64) {
    let mut all_fast = true;
    let mbits = MAGIC.to_bits();
    for l in 0..W {
        let x = src(l);
        d[l] = (x + MAGIC).to_bits().wrapping_sub(mbits);
        all_fast &= x.abs() < MAGIC_SAFE;
    }
    if !all_fast {
        for l in 0..W {
            let x = src(l);
            // `<` is false for NaN, so NaN lanes land on the slow path too.
            let fast = x.abs() < MAGIC_SAFE;
            if !fast {
                d[l] = lanes::fcvtns_lane(x.to_bits());
            }
        }
    }
}

/// Monomorphized per-[`BinOp`] row loop ([`bin_lane`] const-folds on the
/// known variant, hoisting the dispatch out of the lane loop).
fn bin_kernel(op: BinOp, d: &mut Row, a: &Row, b: &Row) {
    macro_rules! arm {
        ($v:expr) => {
            zip2(d, a, b, |x, y| bin_lane($v, x, y))
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

/// [`bin_kernel`] with the second operand splatted to an immediate.
fn bin_kernel_imm(op: BinOp, d: &mut Row, a: &Row, imm: u64) {
    macro_rules! arm {
        ($v:expr) => {
            zip1(d, a, |x| bin_lane($v, x, imm))
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

fn un_kernel(op: UnOp, d: &mut Row, a: &Row) {
    match op {
        UnOp::Sqrt => zip1(d, a, |x| un_lane(UnOp::Sqrt, x)),
        UnOp::Neg => zip1(d, a, |x| un_lane(UnOp::Neg, x)),
        UnOp::Abs => zip1(d, a, |x| un_lane(UnOp::Abs, x)),
        UnOp::Rintn => zip1(d, a, |x| un_lane(UnOp::Rintn, x)),
    }
}

#[inline(always)]
fn mla_rows<const NEG: bool>(d: &mut Row, c: &Row, a: &Row, b: &Row) {
    for l in 0..W {
        let av = f64::from_bits(a[l]);
        let av = if NEG { -av } else { av };
        d[l] = lanes::dn(av.mul_add(f64::from_bits(b[l]), f64::from_bits(c[l]))).to_bits();
    }
}

fn exec_k(k: &K, st: &mut State, tab: &[u64; 64]) {
    match *k {
        K::BinRR { op, d, a, b } => {
            let (d, [a, b]) = dsts(&mut st.rows, d, [a, b]);
            bin_kernel(op, d, a, b);
        }
        K::BinRI { op, d, a, imm } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            bin_kernel_imm(op, d, a, imm);
        }
        K::UnK { op, d, a } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            un_kernel(op, d, a);
        }
        K::MlaRRR { neg, d, c, a, b } => {
            let (d, [c, a, b]) = dsts(&mut st.rows, d, [c, a, b]);
            if neg {
                mla_rows::<true>(d, c, a, b);
            } else {
                mla_rows::<false>(d, c, a, b);
            }
        }
        K::MlaRRI { d, c, a, imm } => {
            let (d, [c, a]) = dsts(&mut st.rows, d, [c, a]);
            let y = f64::from_bits(imm);
            for l in 0..W {
                d[l] = lanes::dn(f64::from_bits(a[l]).mul_add(y, f64::from_bits(c[l]))).to_bits();
            }
        }
        K::MlaIRI { d, a, a_imm, c_imm } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            let (y, cc) = (f64::from_bits(a_imm), f64::from_bits(c_imm));
            zip1(d, a, |x| {
                lanes::dn(f64::from_bits(x).mul_add(y, cc)).to_bits()
            });
        }
        K::EstK { rsqrt, d, a } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            if rsqrt {
                zip1(d, a, lanes::rsqrte_lane);
            } else {
                zip1(d, a, lanes::recpe_lane);
            }
        }
        K::NewtonK { rsqrt, d, a, b } => {
            let (d, [a, b]) = dsts(&mut st.rows, d, [a, b]);
            if rsqrt {
                zip2(d, a, b, |x, y| {
                    lanes::rsqrts_lane(f64::from_bits(x), f64::from_bits(y)).to_bits()
                });
            } else {
                zip2(d, a, b, |x, y| {
                    lanes::recps_lane(f64::from_bits(x), f64::from_bits(y)).to_bits()
                });
            }
        }
        K::FexpaK { d, a } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            zip1(d, a, |x| {
                ((x >> 6) & 0x7ff) << 52 | tab[(x & 0x3f) as usize]
            });
        }
        K::FtmadK { d, a, b, coeff } => {
            let (d, [a, b]) = dsts(&mut st.rows, d, [a, b]);
            zip2(d, a, b, |x, y| {
                lanes::dn(f64::from_bits(x).mul_add(f64::from_bits(y), coeff)).to_bits()
            });
        }
        K::CvtK { op, d, a } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            match op {
                CvtOp::Ucvtf => zip1(d, a, lanes::ucvtf_lane),
                CvtOp::Fcvtns => cvtns_rows(d, |l| f64::from_bits(a[l])),
                CvtOp::Fcvtzs => zip1(d, a, lanes::fcvtzs_lane),
                CvtOp::Scvtf => zip1(d, a, lanes::scvtf_lane),
            }
        }
        K::ShiftK { op, d, a, sh } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            match op {
                ShiftOp::Lsl => zip1(d, a, |x| x << sh),
                ShiftOp::Lsr => zip1(d, a, |x| x >> sh),
                ShiftOp::Asr => zip1(d, a, |x| ((x as i64) >> sh) as u64),
            }
        }
        K::CmpK { op, d, m, a, b } => {
            let (a, b) = {
                let p = st.rows.as_ptr();
                assert!((a as usize) < st.rows.len() && (b as usize) < st.rows.len());
                // SAFETY: shared reads of the vector arena; the write below
                // goes to the disjoint predicate arena.
                unsafe { (&*p.add(a as usize), &*p.add(b as usize)) }
            };
            let (dm, mrow) = match m {
                Some(m) => {
                    let (dm, [mr]) = dsts(&mut st.prows, d, [m]);
                    (dm, Some(mr))
                }
                None => (&mut st.prows[d as usize], None),
            };
            macro_rules! cmp {
                ($f:expr) => {
                    match mrow {
                        None => zip2(dm, a, b, |x, y| {
                            if $f(f64::from_bits(x), f64::from_bits(y)) {
                                u64::MAX
                            } else {
                                0
                            }
                        }),
                        Some(mr) => {
                            for l in 0..W {
                                dm[l] = mr[l]
                                    & if $f(f64::from_bits(a[l]), f64::from_bits(b[l])) {
                                        u64::MAX
                                    } else {
                                        0
                                    };
                            }
                        }
                    }
                };
            }
            match op {
                CmpOp::Gt => cmp!(|x, y| x > y),
                CmpOp::Ge => cmp!(|x, y| x >= y),
                CmpOp::Eq => cmp!(|x, y| x == y),
            }
        }
        K::CmpNeImmK { d, m, a, imm } => {
            let av = &raw const st.rows[a as usize];
            // SAFETY: shared read of the vector arena, write goes to the
            // predicate arena.
            let a = unsafe { &*av };
            if let Some(m) = m {
                let (dm, [mr]) = dsts(&mut st.prows, d, [m]);
                for l in 0..W {
                    dm[l] = mr[l] & if (a[l] as i64) != imm { u64::MAX } else { 0 };
                }
            } else {
                let dm = &mut st.prows[d as usize];
                zip1(dm, a, |x| if (x as i64) != imm { u64::MAX } else { 0 });
            }
        }
        K::PandK { d, a, b } => {
            let (dm, [a, b]) = dsts(&mut st.prows, d, [a, b]);
            zip2(dm, a, b, |x, y| x & y);
        }
        K::SelK { d, m, a, b } => {
            let mr = &raw const st.prows[m as usize];
            let (d, [a, b]) = dsts(&mut st.rows, d, [a, b]);
            // SAFETY: the mask lives in the predicate arena, disjoint from
            // the vector arena rows above.
            let mr = unsafe { &*mr };
            for l in 0..W {
                d[l] = (a[l] & mr[l]) | (b[l] & !mr[l]);
            }
        }
        K::Merge { d, m, src } => {
            let mr = &raw const st.prows[m as usize];
            let (d, [s]) = dsts(&mut st.rows, d, [src]);
            // SAFETY: as for SelK — arenas are disjoint allocations.
            let mr = unsafe { &*mr };
            for l in 0..W {
                d[l] = (d[l] & mr[l]) | (s[l] & !mr[l]);
            }
        }
        K::MulCvtnsRI { d, a, imm } => {
            let (d, [a]) = dsts(&mut st.rows, d, [a]);
            let y = f64::from_bits(imm);
            cvtns_rows(d, |l| f64::from_bits(a[l]) * y);
        }
        K::MulCvtnsRR { d, a, b } => {
            let (d, [a, b]) = dsts(&mut st.rows, d, [a, b]);
            cvtns_rows(d, |l| f64::from_bits(a[l]) * f64::from_bits(b[l]));
        }
        K::FMulMla { d, x, y, o, c } => {
            let (d, [x, y, o, c]) = dsts(&mut st.rows, d, [x, y, o, c]);
            for l in 0..W {
                let t = lanes::dn(f64::from_bits(x[l]) * f64::from_bits(y[l]));
                d[l] = lanes::dn(t.mul_add(f64::from_bits(o[l]), f64::from_bits(c[l]))).to_bits();
            }
        }
        K::FMulMlaC { d, x, y, a2, b2 } => {
            let (d, [x, y, a2, b2]) = dsts(&mut st.rows, d, [x, y, a2, b2]);
            for l in 0..W {
                let t = lanes::dn(f64::from_bits(x[l]) * f64::from_bits(y[l]));
                d[l] = lanes::dn(f64::from_bits(a2[l]).mul_add(f64::from_bits(b2[l]), t)).to_bits();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::SveCtx;
    use crate::value::{Pred, VVal};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The paper's FEXPA exp kernel shape: range reduction (fmul +
    /// fcvtns + scvtf + fmls), exponent assembly (integer add + fexpa),
    /// and a short polynomial — the body `ookami_sve::compile` exists to
    /// accelerate.
    fn exp_like(c: &mut SveCtx, pg: &Pred, x: &VVal) -> VVal {
        let ln2e = c.dup_f64(std::f64::consts::LOG2_E * 64.0);
        let ln2hi = c.dup_f64(std::f64::consts::LN_2 / 64.0);
        let half = c.dup_f64(0.5);
        let bias = c.dup_i64(1023 << 6);
        let z = c.fmul(pg, x, &ln2e);
        let n = c.fcvtns(pg, &z);
        let nf = c.scvtf(pg, &n);
        let r = c.fmls(pg, x, &nf, &ln2hi);
        let u = c.add_i(pg, &n, &bias);
        let s = c.fexpa(&u);
        let r2 = c.fmul(pg, &r, &r);
        let q = c.fmla(pg, &r, &r2, &half);
        c.fmul(pg, &q, &s)
    }

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.61 - 350.0) % 700.0).collect()
    }

    #[test]
    fn exp_like_body_compiles_native_and_fuses() {
        let t = Trace::record1(8, exp_like);
        let ct = t.compile();
        let rep = ct.report();
        assert!(ct.is_native(), "gate rejected a straight-line f64 body");
        assert!(rep.native);
        assert_eq!(rep.body_ops, 9);
        assert!(rep.fused >= 1, "fmul+fcvtns must fuse: {rep:?}");
        assert!(
            rep.kernels < rep.opt_ops,
            "fusion must shrink the kernel chain: {rep:?}"
        );
    }

    #[test]
    fn compiled_map_is_bit_identical_to_replay_incl_ragged_tail() {
        let t = Trace::record1(8, exp_like);
        let ct = t.compile();
        assert!(ct.is_native());
        // Below one block (pure fallback), one exact block, block+ragged
        // tail, and several blocks + tail.
        for n in [37usize, 512, 513, 1024 + 101, 3 * 512 + 7] {
            let xs = sample(n);
            assert_eq!(bits(&ct.map(&xs)), bits(&t.replay_map(&xs)), "n={n}");
        }
    }

    #[test]
    fn compiled_par_map_is_bit_identical_to_serial() {
        let t = Trace::record1(8, exp_like);
        let ct = t.compile();
        let xs = sample(4 * 512 + 33);
        let serial = ct.map(&xs);
        for threads in [1usize, 2, 5] {
            assert_eq!(
                bits(&ct.par_map(threads, &xs)),
                bits(&serial),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn compiled_map2_is_bit_identical_to_replay() {
        let t = Trace::record2(8, |c, pg, x, y| {
            let k = c.dup_f64(1.25);
            let s = c.fmul(pg, x, &k);
            let d = c.fadd(pg, &s, y);
            c.fmax(pg, &d, x)
        });
        let ct = t.compile();
        assert!(ct.is_native());
        let n = 2 * 512 + 19;
        let xs = sample(n);
        let ys: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 40.0).collect();
        assert_eq!(bits(&ct.map2(&xs, &ys)), bits(&t.replay_map2(&xs, &ys)));
        assert_eq!(
            bits(&ct.par_map2(3, &xs, &ys)),
            bits(&t.replay_map2(&xs, &ys))
        );
    }

    #[test]
    fn trace_map_routes_through_compiled_engine() {
        // The public entry points must produce compiled-engine bits (which
        // the previous tests pin to replay bits) without any explicit
        // compile() call.
        let t = Trace::record1(8, exp_like);
        let xs = sample(2000);
        assert_eq!(bits(&t.map(&xs)), bits(&t.replay_map(&xs)));
        assert_eq!(bits(&t.par_map(4, &xs)), bits(&t.replay_map(&xs)));
    }

    #[test]
    fn const_folding_collapses_full_mask_constant_chains() {
        let t = Trace::record1(8, |c, pg, x| {
            let all = c.ptrue();
            let a = c.dup_f64(3.0);
            let b = c.dup_f64(4.0);
            // Constant under a full mask: folds to a setup constant.
            let ab = c.fmul(&all, &a, &b);
            // Unpredicated estimate of a constant: also folds.
            let e = c.frecpe(&ab);
            let s = c.fadd(pg, x, &ab);
            c.fmul(pg, &s, &e)
        });
        let (opt, rep) = optimize(&t);
        assert_eq!(rep.folded, 2, "{rep:?}");
        assert_eq!(rep.opt_ops, 2, "only the two x-dependent ops remain");
        // The optimized trace is still a plain replayable trace.
        let xs = sample(101);
        assert_eq!(bits(&opt.replay_map(&xs)), bits(&t.replay_map(&xs)));
    }

    #[test]
    fn predicate_simplification_drops_full_pand_and_sel() {
        let t = Trace::record1(8, |c, pg, x| {
            let all = c.ptrue();
            let zero = c.dup_f64(0.0);
            let q = c.fcmgt(pg, x, &zero);
            // AND with an all-true mask is the identity on q.
            let q2 = c.pand(&q, &all);
            let neg = c.fneg(pg, x);
            let picked = c.sel(&q2, x, &neg);
            // Select under a full mask always takes the first operand.
            c.sel(&all, &picked, &neg)
        });
        let (opt, rep) = optimize(&t);
        assert_eq!(rep.pred_simplified, 2, "{rep:?}");
        assert!(opt.body_len() < t.body_len());
        let xs = sample(77);
        assert_eq!(bits(&opt.replay_map(&xs)), bits(&t.replay_map(&xs)));
    }

    #[test]
    fn dead_defs_are_eliminated() {
        let t = Trace::record1(8, |c, pg, x| {
            let k = c.dup_f64(2.0);
            let _dead = c.fdiv(pg, x, &k); // never used
            c.fmul(pg, x, &k)
        });
        let (opt, rep) = optimize(&t);
        assert_eq!(rep.dead_removed, 1, "{rep:?}");
        assert_eq!(opt.body_len(), 1);
        let xs = sample(64);
        assert_eq!(bits(&opt.replay_map(&xs)), bits(&t.replay_map(&xs)));
    }

    #[test]
    fn gather_bodies_fall_back_to_replay() {
        const TAB: [f64; 8] = [0.5, -1.0, 2.0, 4.0, -8.0, 0.25, 9.0, -3.5];
        let t = Trace::record1(8, |c, pg, x| {
            let m = c.dup_i64(TAB.len() as i64 - 1);
            let i = c.and_u(pg, x, &m);
            c.ld1d_gather(pg, &TAB, &i, 4)
        });
        let ct = t.compile();
        assert!(!ct.is_native());
        assert!(!ct.report().native);
        let xs: Vec<f64> = (0..700).map(|i| f64::from_bits(i as u64 % 8)).collect();
        assert_eq!(bits(&ct.map(&xs)), bits(&t.replay_map(&xs)));
    }

    #[test]
    fn non_power_of_two_vl_falls_back() {
        let t = Trace::record1(5, |c, pg, x| {
            let k = c.dup_f64(1.5);
            c.fmul(pg, x, &k)
        });
        let ct = t.compile();
        assert!(!ct.is_native());
        let xs = sample(777);
        assert_eq!(bits(&ct.map(&xs)), bits(&t.replay_map(&xs)));
    }

    #[test]
    fn masked_ops_merge_bit_exactly() {
        // A body whose arithmetic runs under a compare-derived partial
        // mask: compiled kernels compute unmasked then Merge, which must
        // reproduce the replayer's merging predication bit for bit
        // (inactive lanes keep the first vector operand).
        let t = Trace::record1(8, |c, pg, x| {
            let zero = c.dup_f64(0.0);
            let p = c.fcmgt(pg, x, &zero);
            let sq = c.fsqrt(&p, x);
            let k = c.dup_f64(-2.0);
            let scaled = c.fmul(&p, &sq, &k);
            c.sel(&p, &scaled, x)
        });
        let ct = t.compile();
        assert!(ct.is_native());
        let xs: Vec<f64> = (0..1500).map(|i| (i as f64 - 750.0) * 0.31).collect();
        assert_eq!(bits(&ct.map(&xs)), bits(&t.replay_map(&xs)));
    }

    #[test]
    fn mutated_traces_stay_bit_identical_under_compilation() {
        // Pass-pipeline robustness over the mutation corpus: every
        // replayable mutant must compile (natively or via fallback) to the
        // same bits as its own replay.
        let t = Trace::record1(8, exp_like);
        let xs = sample(600);
        // Only semantic mutants (seed % 4 == 3) are guaranteed replayable;
        // structural ones may break the SSA wiring on purpose.
        for seed in (0..64u64).filter(|s| s % 4 == 3) {
            let m = t.mutated(seed);
            let ct = m.compile();
            assert_eq!(bits(&ct.map(&xs)), bits(&m.replay_map(&xs)), "seed={seed}");
        }
    }

    #[test]
    fn cvtns_rows_matches_lane_semantics() {
        let cases = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            -2.5,
            1e15,
            -1e15,
            MAGIC_SAFE,
            MAGIC_SAFE - 1.0,
            -MAGIC_SAFE,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // One row mixing slow-path lanes in (forces the rewrite pass) and
        // one per-case all-fast/all-slow row (covers the branchless-only
        // path for in-range data).
        let mut d = [0u64; W];
        cvtns_rows(&mut d, |l| cases[l % cases.len()]);
        for (l, &got) in d.iter().enumerate() {
            let x = cases[l % cases.len()];
            assert_eq!(got, lanes::fcvtns_lane(x.to_bits()), "lane {l}: x={x:e}");
        }
        for x in cases {
            cvtns_rows(&mut d, |_| x);
            assert_eq!(d[0], lanes::fcvtns_lane(x.to_bits()), "x={x:e}");
            assert_eq!(d[W - 1], d[0]);
        }
    }
}
