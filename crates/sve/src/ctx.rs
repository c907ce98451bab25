//! The SVE execution context: emulated instructions + optional recording.

use crate::counters::{self, popcount};
use crate::fexpa::fexpa_lane;
use crate::lanes;
use crate::trace::{BinOp, CmpOp, CvtOp, ShiftOp, TOp, TraceSink, UnOp};
use crate::value::{Pred, VVal};
use ookami_core::obs::{self, Counter};
use ookami_uarch::meta::{self, LaneAccounting};
use ookami_uarch::{Instr, OpClass, Reg, Width};

/// Emulated SVE machine state: a vector length and an instruction recorder.
///
/// Every op both computes its result lanes (merging predication: inactive
/// lanes pass through the *first* vector operand) and, when recording is on,
/// appends an [`Instr`] carrying def/use register ids, so the exact code
/// that was numerically validated is also what the cycle analyzer sees.
///
/// A third mode, installed by [`crate::trace::TraceBuilder`], additionally
/// captures each op into a compact replayable [`crate::trace::Trace`].
pub struct SveCtx {
    vl: usize,
    next_reg: Reg,
    recording: Option<Vec<Instr>>,
    trace: Option<Box<TraceSink>>,
}

impl SveCtx {
    /// New context with `vl` 64-bit lanes (8 on A64FX).
    pub fn new(vl: usize) -> Self {
        assert!((1..=64).contains(&vl), "unreasonable vector length {vl}");
        SveCtx {
            vl,
            next_reg: 0,
            recording: None,
            trace: None,
        }
    }

    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Width implied by this context's vector length (for recording).
    pub fn width(&self) -> Width {
        match self.vl {
            1 => Width::Scalar,
            2 => Width::V128,
            4 => Width::V256,
            _ => Width::V512,
        }
    }

    pub fn start_recording(&mut self) {
        self.recording = Some(Vec::new());
    }

    pub fn take_recording(&mut self) -> Vec<Instr> {
        self.recording.take().unwrap_or_default()
    }

    pub(crate) fn install_trace(&mut self, sink: TraceSink) {
        self.trace = Some(Box::new(sink));
    }

    pub(crate) fn take_trace(&mut self) -> Box<TraceSink> {
        self.trace.take().expect("no trace sink installed")
    }

    pub(crate) fn trace_sink(&mut self) -> &mut TraceSink {
        self.trace.as_deref_mut().expect("no trace sink installed")
    }

    pub(crate) fn fresh_id(&mut self) -> Reg {
        self.fresh()
    }

    /// Jump the register counter (wraparound regression tests only).
    #[doc(hidden)]
    pub fn force_next_reg(&mut self, r: Reg) {
        self.next_reg = r;
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        // Ids must stay unique while a recording or trace is open (they
        // drive def-use analysis and trace slot allocation) — exhausting
        // the space there is a hard error, never a silent wrap. Outside,
        // long numerical runs may legitimately burn through ids; saturate
        // so the counter still cannot wrap back into live low ids, and a
        // subsequently opened recording trips the panic above on its
        // first op.
        if self.recording.is_some() || self.trace.is_some() {
            self.next_reg = self
                .next_reg
                .checked_add(1)
                .expect("SVE register ids exhausted while a recording is open");
        } else {
            self.next_reg = self.next_reg.saturating_add(1);
        }
        r
    }

    fn rec(&mut self, op: OpClass, dst: Option<Reg>, srcs: &[Reg]) {
        let w = self.width();
        if let Some(log) = &mut self.recording {
            log.push(Instr::new(op, w, dst, srcs));
        }
    }

    fn rec_hint(&mut self, op: OpClass, dst: Option<Reg>, srcs: &[Reg], uops: u32) {
        let w = self.width();
        if let Some(log) = &mut self.recording {
            log.push(Instr::new(op, w, dst, srcs).with_uops(uops));
        }
    }

    /// Count one retired op against the obs registry. Suppressed while a
    /// trace sink is installed: record-time execution is re-counted by the
    /// replay that re-runs it, which keeps interpreter and replay totals
    /// identical for a kernel (see [`crate::counters`]).
    ///
    /// `governed` is the active-lane count of the governing (or result)
    /// predicate; the shared [`meta::lane_accounting`] table decides
    /// whether the class retires that, the full vector, or nothing — the
    /// same classification the replayer and the trace compiler apply, so
    /// all executors agree by construction.
    #[inline]
    fn count(&self, class: OpClass, governed: u64) {
        if self.trace.is_none() {
            let lanes = match meta::lane_accounting(class) {
                LaneAccounting::Governed | LaneAccounting::ResultPop => governed,
                LaneAccounting::FullVector => self.vl as u64,
                LaneAccounting::Scalar => 0,
            };
            counters::bump(class, 1, lanes, 1);
        }
    }

    /// Harness-level ops (`whilelt`, loads/stores, reductions, raw inputs)
    /// have no trace representation — the replay harness owns them.
    fn no_trace(&self, what: &str) {
        assert!(
            self.trace.is_none(),
            "{what} cannot be recorded into a trace; use the TraceBuilder \
             harness (loop_pred / input_* / taps) instead"
        );
    }

    // ---------------- constants and setup (not recorded: hoisted) --------

    /// Broadcast an `f64` constant (loop-invariant; not recorded).
    pub fn dup_f64(&mut self, c: f64) -> VVal {
        let bits = vec![c.to_bits(); self.vl];
        let id = self.fresh();
        if let Some(tr) = &mut self.trace {
            let dst = tr.new_v(id);
            tr.push_setup(TOp::ConstV {
                dst,
                lanes: bits.clone(),
            });
        }
        VVal { bits, id }
    }

    /// Broadcast an `i64` constant (loop-invariant; not recorded).
    pub fn dup_i64(&mut self, c: i64) -> VVal {
        let bits = vec![c as u64; self.vl];
        let id = self.fresh();
        if let Some(tr) = &mut self.trace {
            let dst = tr.new_v(id);
            tr.push_setup(TOp::ConstV {
                dst,
                lanes: bits.clone(),
            });
        }
        VVal { bits, id }
    }

    /// `INDEX z, #start, #step` (not recorded: setup). Wrapping arithmetic,
    /// as the hardware's lane counters wrap.
    pub fn index(&mut self, start: i64, step: i64) -> VVal {
        let bits: Vec<u64> = (0..self.vl)
            .map(|l| start.wrapping_add(step.wrapping_mul(l as i64)) as u64)
            .collect();
        let id = self.fresh();
        if let Some(tr) = &mut self.trace {
            let dst = tr.new_v(id);
            tr.push_setup(TOp::ConstV {
                dst,
                lanes: bits.clone(),
            });
        }
        VVal { bits, id }
    }

    /// All-true predicate (not recorded: setup).
    pub fn ptrue(&mut self) -> Pred {
        let id = self.fresh();
        if let Some(tr) = &mut self.trace {
            let dst = tr.new_p(id);
            tr.push_setup(TOp::Ptrue { dst });
        }
        Pred {
            mask: vec![true; self.vl],
            id,
        }
    }

    /// An uninitialized-id wrapper for external inputs (tests/kernels).
    pub fn input_f64(&mut self, lanes: &[f64]) -> VVal {
        self.no_trace("input_f64");
        assert_eq!(lanes.len(), self.vl);
        VVal {
            bits: lanes.iter().map(|x| x.to_bits()).collect(),
            id: self.fresh(),
        }
    }

    /// Integer-lane input (e.g. an index vector loaded by a kernel).
    pub fn input_i64(&mut self, lanes: &[i64]) -> VVal {
        self.no_trace("input_i64");
        assert_eq!(lanes.len(), self.vl);
        VVal {
            bits: lanes.iter().map(|&x| x as u64).collect(),
            id: self.fresh(),
        }
    }

    // ---------------- predicates -----------------------------------------

    /// `WHILELT`: lanes `[i, i+vl)` active while `< n`. Recorded (this is
    /// the per-iteration cost of the vector-length-agnostic loop structure
    /// that Section IV measures at +0.2 cycles/element).
    pub fn whilelt(&mut self, i: usize, n: usize) -> Pred {
        self.no_trace("whilelt");
        let mask = (0..self.vl).map(|l| i + l < n).collect();
        let id = self.fresh();
        self.rec(OpClass::PredOp, Some(id), &[]);
        Pred { mask, id }
    }

    /// `PTEST`-style continuation check (recorded as predicate work).
    pub fn ptest(&mut self, p: &Pred) -> bool {
        self.no_trace("ptest");
        self.rec(OpClass::PredOp, None, &[p.id]);
        p.any()
    }

    /// Logical AND of predicates.
    pub fn pand(&mut self, a: &Pred, b: &Pred) -> Pred {
        let mask: Vec<bool> = a.mask.iter().zip(&b.mask).map(|(&x, &y)| x && y).collect();
        let id = self.fresh();
        // Predicate ops count the *result* population (both executors can
        // derive it without re-deciding what "active" means for an AND).
        self.count(OpClass::PredOp, popcount(&mask));
        self.rec(OpClass::PredOp, Some(id), &[a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sa, sb) = (tr.ps(a.id), tr.ps(b.id));
            let dst = tr.new_p(id);
            tr.push(TOp::Pand { dst, a: sa, b: sb });
        }
        Pred { mask, id }
    }

    // ---------------- elementwise float ops ------------------------------

    fn map2f(
        &mut self,
        op: OpClass,
        top: BinOp,
        pg: &Pred,
        a: &VVal,
        b: &VVal,
        f: impl Fn(f64, f64) -> f64,
    ) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    f(f64::from_bits(a.bits[l]), f64::from_bits(b.bits[l])).to_bits()
                } else {
                    a.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(op, popcount(&pg.mask));
        self.rec(op, Some(id), &[pg.id, a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa, sb) = (tr.ps(pg.id), tr.vs(a.id), tr.vs(b.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Bin {
                op: top,
                dst,
                pg: sp,
                a: sa,
                b: sb,
            });
        }
        VVal { bits, id }
    }

    fn map1f(
        &mut self,
        op: OpClass,
        top: UnOp,
        pg: &Pred,
        a: &VVal,
        f: impl Fn(f64) -> f64,
    ) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    f(f64::from_bits(a.bits[l])).to_bits()
                } else {
                    a.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(op, popcount(&pg.mask));
        self.rec(op, Some(id), &[pg.id, a.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa) = (tr.ps(pg.id), tr.vs(a.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Un {
                op: top,
                dst,
                pg: sp,
                a: sa,
            });
        }
        VVal { bits, id }
    }

    pub fn fadd(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2f(OpClass::FAdd, BinOp::FAdd, pg, a, b, |x, y| {
            lanes::dn(x + y)
        })
    }

    pub fn fsub(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2f(OpClass::FAdd, BinOp::FSub, pg, a, b, |x, y| {
            lanes::dn(x - y)
        })
    }

    pub fn fmul(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2f(OpClass::FMul, BinOp::FMul, pg, a, b, |x, y| {
            lanes::dn(x * y)
        })
    }

    pub fn fdiv(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2f(OpClass::FDiv, BinOp::FDiv, pg, a, b, |x, y| {
            lanes::dn(x / y)
        })
    }

    pub fn fsqrt(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.map1f(OpClass::FSqrt, UnOp::Sqrt, pg, a, |x| lanes::dn(x.sqrt()))
    }

    pub fn fneg(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.map1f(OpClass::FAbsNeg, UnOp::Neg, pg, a, |x| -x)
    }

    pub fn fabs(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.map1f(OpClass::FAbsNeg, UnOp::Abs, pg, a, f64::abs)
    }

    pub fn fmax(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2f(OpClass::FMinMax, BinOp::FMax, pg, a, b, |x, y| {
            f64::from_bits(lanes::fmax_lane(x.to_bits(), y.to_bits()))
        })
    }

    pub fn fmin(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2f(OpClass::FMinMax, BinOp::FMin, pg, a, b, |x, y| {
            f64::from_bits(lanes::fmin_lane(x.to_bits(), y.to_bits()))
        })
    }

    fn fused_mla(&mut self, neg: bool, pg: &Pred, c: &VVal, a: &VVal, b: &VVal) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    let av = f64::from_bits(a.bits[l]);
                    let av = if neg { -av } else { av };
                    lanes::dn(av.mul_add(f64::from_bits(b.bits[l]), f64::from_bits(c.bits[l])))
                        .to_bits()
                } else {
                    c.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(OpClass::Fma, popcount(&pg.mask));
        self.rec(OpClass::Fma, Some(id), &[pg.id, c.id, a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sc, sa, sb) = (tr.ps(pg.id), tr.vs(c.id), tr.vs(a.id), tr.vs(b.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Fmla {
                neg,
                dst,
                pg: sp,
                c: sc,
                a: sa,
                b: sb,
            });
        }
        VVal { bits, id }
    }

    /// Fused multiply-add `a*b + c` (`FMLA` with the accumulator third).
    pub fn fmla(&mut self, pg: &Pred, c: &VVal, a: &VVal, b: &VVal) -> VVal {
        self.fused_mla(false, pg, c, a, b)
    }

    /// Fused multiply-subtract `c - a*b` (`FMLS`).
    pub fn fmls(&mut self, pg: &Pred, c: &VVal, a: &VVal, b: &VVal) -> VVal {
        self.fused_mla(true, pg, c, a, b)
    }

    fn estimate(&mut self, rsqrt: bool, a: &VVal) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if rsqrt {
                    lanes::rsqrte_lane(a.bits[l])
                } else {
                    lanes::recpe_lane(a.bits[l])
                }
            })
            .collect();
        let id = self.fresh();
        let op = if rsqrt {
            OpClass::FRsqrte
        } else {
            OpClass::FRecpe
        };
        // Estimates are unpredicated: lane accounting derives `vl`.
        self.count(op, 0);
        self.rec(op, Some(id), &[a.id]);
        if let Some(tr) = &mut self.trace {
            let sa = tr.vs(a.id);
            let dst = tr.new_v(id);
            tr.push(TOp::Est { rsqrt, dst, a: sa });
        }
        VVal { bits, id }
    }

    /// Reciprocal estimate (`FRECPE`): ~8 significant bits, like hardware.
    pub fn frecpe(&mut self, a: &VVal) -> VVal {
        self.estimate(false, a)
    }

    /// Reciprocal square-root estimate (`FRSQRTE`): ~8 significant bits.
    pub fn frsqrte(&mut self, a: &VVal) -> VVal {
        self.estimate(true, a)
    }

    fn newton_step(&mut self, rsqrt: bool, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    let x = f64::from_bits(a.bits[l]);
                    let y = f64::from_bits(b.bits[l]);
                    if rsqrt {
                        lanes::rsqrts_lane(x, y).to_bits()
                    } else {
                        lanes::recps_lane(x, y).to_bits()
                    }
                } else {
                    a.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(OpClass::Fma, popcount(&pg.mask));
        self.rec(OpClass::Fma, Some(id), &[pg.id, a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa, sb) = (tr.ps(pg.id), tr.vs(a.id), tr.vs(b.id));
            let dst = tr.new_v(id);
            tr.push(TOp::NewtonStep {
                rsqrt,
                dst,
                pg: sp,
                a: sa,
                b: sb,
            });
        }
        VVal { bits, id }
    }

    /// Newton refinement step for reciprocal (`FRECPS`): `2 - a*b`.
    pub fn frecps(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.newton_step(false, pg, a, b)
    }

    /// Newton refinement step for rsqrt (`FRSQRTS`): `(3 - a*b) / 2`.
    pub fn frsqrts(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.newton_step(true, pg, a, b)
    }

    /// `FEXPA` (bit-exact; see [`crate::fexpa`]).
    pub fn fexpa(&mut self, a: &VVal) -> VVal {
        let bits = (0..self.vl)
            .map(|l| fexpa_lane(a.bits[l]).to_bits())
            .collect();
        let id = self.fresh();
        if self.trace.is_none() {
            counters::bump_fexpa(1, self.vl as u64);
        }
        self.rec(OpClass::Fexpa, Some(id), &[a.id]);
        if let Some(tr) = &mut self.trace {
            let sa = tr.vs(a.id);
            let dst = tr.new_v(id);
            tr.push(TOp::Fexpa { dst, a: sa });
        }
        VVal { bits, id }
    }

    /// `FTMAD`-style trig step: `a*b + coeff` with a hardware coefficient,
    /// recorded to the FTMAD cost class (FLA pipe only on A64FX).
    pub fn ftmad(&mut self, pg: &Pred, a: &VVal, b: &VVal, coeff: f64) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    lanes::dn(f64::from_bits(a.bits[l]).mul_add(f64::from_bits(b.bits[l]), coeff))
                        .to_bits()
                } else {
                    a.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(OpClass::Ftmad, popcount(&pg.mask));
        self.rec(OpClass::Ftmad, Some(id), &[pg.id, a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa, sb) = (tr.ps(pg.id), tr.vs(a.id), tr.vs(b.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Ftmad {
                dst,
                pg: sp,
                a: sa,
                b: sb,
                coeff,
            });
        }
        VVal { bits, id }
    }

    /// Round to nearest integral value (`FRINTN`).
    pub fn frintn(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.map1f(OpClass::FRound, UnOp::Rintn, pg, a, lanes::frintn_lane)
    }

    fn fcmp(&mut self, op: CmpOp, pg: &Pred, a: &VVal, b: &VVal) -> Pred {
        let mask = (0..self.vl)
            .map(|l| {
                pg.mask[l] && {
                    let x = f64::from_bits(a.bits[l]);
                    let y = f64::from_bits(b.bits[l]);
                    match op {
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                        CmpOp::Eq => x == y,
                    }
                }
            })
            .collect();
        let id = self.fresh();
        self.count(OpClass::FCmp, popcount(&pg.mask));
        self.rec(OpClass::FCmp, Some(id), &[pg.id, a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa, sb) = (tr.ps(pg.id), tr.vs(a.id), tr.vs(b.id));
            let dst = tr.new_p(id);
            tr.push(TOp::Cmp {
                op,
                dst,
                pg: sp,
                a: sa,
                b: sb,
            });
        }
        Pred { mask, id }
    }

    /// Float compare greater-than, producing a predicate (`FCMGT`).
    pub fn fcmgt(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> Pred {
        self.fcmp(CmpOp::Gt, pg, a, b)
    }

    /// Float compare greater-or-equal (`FCMGE`).
    pub fn fcmge(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> Pred {
        self.fcmp(CmpOp::Ge, pg, a, b)
    }

    /// Float compare equal (`FCMEQ`).
    pub fn fcmeq(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> Pred {
        self.fcmp(CmpOp::Eq, pg, a, b)
    }

    /// Integer compare-not-equal against an immediate (`CMPNE`), producing
    /// a predicate — used for quadrant selection in the sin kernel.
    pub fn cmpne_imm(&mut self, pg: &Pred, a: &VVal, imm: i64) -> Pred {
        let mask = (0..self.vl)
            .map(|l| pg.mask[l] && (a.bits[l] as i64) != imm)
            .collect();
        let id = self.fresh();
        self.count(OpClass::FCmp, popcount(&pg.mask));
        self.rec(OpClass::FCmp, Some(id), &[pg.id, a.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa) = (tr.ps(pg.id), tr.vs(a.id));
            let dst = tr.new_p(id);
            tr.push(TOp::CmpNeImm {
                dst,
                pg: sp,
                a: sa,
                imm,
            });
        }
        Pred { mask, id }
    }

    /// Select lanes: active → `a`, inactive → `b` (`SEL`).
    pub fn sel(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        let bits = (0..self.vl)
            .map(|l| if pg.mask[l] { a.bits[l] } else { b.bits[l] })
            .collect();
        let id = self.fresh();
        self.count(OpClass::Select, popcount(&pg.mask));
        self.rec(OpClass::Select, Some(id), &[pg.id, a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa, sb) = (tr.ps(pg.id), tr.vs(a.id), tr.vs(b.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Sel {
                dst,
                pg: sp,
                a: sa,
                b: sb,
            });
        }
        VVal { bits, id }
    }

    /// Horizontal sum of active lanes (`FADDA`-style, returned as scalar).
    pub fn faddv(&mut self, pg: &Pred, a: &VVal) -> f64 {
        self.no_trace("faddv");
        self.rec(OpClass::FAdd, None, &[pg.id, a.id]);
        (0..self.vl)
            .filter(|&l| pg.mask[l])
            .map(|l| f64::from_bits(a.bits[l]))
            .sum()
    }

    // ---------------- int / bit ops on lanes ------------------------------

    fn map2i(
        &mut self,
        top: BinOp,
        pg: &Pred,
        a: &VVal,
        b: &VVal,
        f: impl Fn(i64, i64) -> i64,
    ) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    f(a.bits[l] as i64, b.bits[l] as i64) as u64
                } else {
                    a.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(OpClass::VecIntOp, popcount(&pg.mask));
        self.rec(OpClass::VecIntOp, Some(id), &[pg.id, a.id, b.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa, sb) = (tr.ps(pg.id), tr.vs(a.id), tr.vs(b.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Bin {
                op: top,
                dst,
                pg: sp,
                a: sa,
                b: sb,
            });
        }
        VVal { bits, id }
    }

    pub fn add_i(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2i(BinOp::IAdd, pg, a, b, i64::wrapping_add)
    }

    pub fn sub_i(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2i(BinOp::ISub, pg, a, b, i64::wrapping_sub)
    }

    pub fn mul_i(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2i(BinOp::IMul, pg, a, b, i64::wrapping_mul)
    }

    pub fn and_u(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2i(BinOp::And, pg, a, b, |x, y| {
            ((x as u64) & (y as u64)) as i64
        })
    }

    pub fn orr_u(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2i(BinOp::Orr, pg, a, b, |x, y| {
            ((x as u64) | (y as u64)) as i64
        })
    }

    /// Bitwise XOR (`EOR`).
    pub fn eor_u(&mut self, pg: &Pred, a: &VVal, b: &VVal) -> VVal {
        self.map2i(BinOp::Eor, pg, a, b, |x, y| {
            ((x as u64) ^ (y as u64)) as i64
        })
    }

    fn shift(&mut self, op: ShiftOp, pg: &Pred, a: &VVal, sh: u32) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    match op {
                        ShiftOp::Lsl => a.bits[l] << sh,
                        ShiftOp::Lsr => a.bits[l] >> sh,
                        ShiftOp::Asr => ((a.bits[l] as i64) >> sh) as u64,
                    }
                } else {
                    a.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(OpClass::VecIntOp, popcount(&pg.mask));
        self.rec(OpClass::VecIntOp, Some(id), &[pg.id, a.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa) = (tr.ps(pg.id), tr.vs(a.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Shift {
                op,
                dst,
                pg: sp,
                a: sa,
                sh,
            });
        }
        VVal { bits, id }
    }

    pub fn lsl(&mut self, pg: &Pred, a: &VVal, sh: u32) -> VVal {
        self.shift(ShiftOp::Lsl, pg, a, sh)
    }

    /// Logical (unsigned) shift right.
    pub fn lsr(&mut self, pg: &Pred, a: &VVal, sh: u32) -> VVal {
        self.shift(ShiftOp::Lsr, pg, a, sh)
    }

    pub fn asr(&mut self, pg: &Pred, a: &VVal, sh: u32) -> VVal {
        self.shift(ShiftOp::Asr, pg, a, sh)
    }

    fn convert(&mut self, op: CvtOp, pg: &Pred, a: &VVal) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] {
                    match op {
                        CvtOp::Ucvtf => lanes::ucvtf_lane(a.bits[l]),
                        CvtOp::Fcvtns => lanes::fcvtns_lane(a.bits[l]),
                        CvtOp::Fcvtzs => lanes::fcvtzs_lane(a.bits[l]),
                        CvtOp::Scvtf => lanes::scvtf_lane(a.bits[l]),
                    }
                } else {
                    a.bits[l]
                }
            })
            .collect();
        let id = self.fresh();
        self.count(OpClass::FCvt, popcount(&pg.mask));
        self.rec(OpClass::FCvt, Some(id), &[pg.id, a.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa) = (tr.ps(pg.id), tr.vs(a.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Cvt {
                op,
                dst,
                pg: sp,
                a: sa,
            });
        }
        VVal { bits, id }
    }

    /// Unsigned int → float (`UCVTF`).
    pub fn ucvtf(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.convert(CvtOp::Ucvtf, pg, a)
    }

    /// Float → int, round to nearest (`FCVTNS`-like).
    pub fn fcvtns(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.convert(CvtOp::Fcvtns, pg, a)
    }

    /// Float → int, truncate toward zero (`FCVTZS`).
    pub fn fcvtzs(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.convert(CvtOp::Fcvtzs, pg, a)
    }

    /// Int → float (`SCVTF`).
    pub fn scvtf(&mut self, pg: &Pred, a: &VVal) -> VVal {
        self.convert(CvtOp::Scvtf, pg, a)
    }

    /// `COMPACT`: pack the active lanes to the front (inactive lanes fill
    /// with zero) — the "splitting/merging vectors to avoid divergent
    /// execution paths" primitive the paper's §III mentions.
    pub fn compact(&mut self, pg: &Pred, a: &VVal) -> VVal {
        let mut bits: Vec<u64> = Vec::with_capacity(self.vl);
        for l in 0..self.vl {
            if pg.mask[l] {
                bits.push(a.bits[l]);
            }
        }
        bits.resize(self.vl, 0);
        let id = self.fresh();
        self.count(OpClass::Permute, popcount(&pg.mask));
        self.rec(OpClass::Permute, Some(id), &[pg.id, a.id]);
        if let Some(tr) = &mut self.trace {
            let (sp, sa) = (tr.ps(pg.id), tr.vs(a.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Compact { dst, pg: sp, a: sa });
        }
        VVal { bits, id }
    }

    // ---------------- memory ---------------------------------------------

    /// Contiguous load of up to `vl` doubles from `data[offset..]`
    /// (`LD1D`). Inactive or out-of-bounds lanes load 0.
    pub fn ld1d(&mut self, pg: &Pred, data: &[f64], offset: usize) -> VVal {
        self.no_trace("ld1d");
        let bits = (0..self.vl)
            .map(|l| {
                if pg.mask[l] && offset + l < data.len() {
                    data[offset + l].to_bits()
                } else {
                    0u64
                }
            })
            .collect();
        let id = self.fresh();
        obs::add(Counter::BytesLoaded, 8 * popcount(&pg.mask));
        self.rec(OpClass::Load, Some(id), &[pg.id]);
        VVal { bits, id }
    }

    /// Contiguous store (`ST1D`).
    pub fn st1d(&mut self, pg: &Pred, v: &VVal, data: &mut [f64], offset: usize) {
        self.no_trace("st1d");
        for l in 0..self.vl {
            if pg.mask[l] && offset + l < data.len() {
                data[offset + l] = f64::from_bits(v.bits[l]);
            }
        }
        obs::add(Counter::BytesStored, 8 * popcount(&pg.mask));
        self.rec(OpClass::Store, None, &[pg.id, v.id]);
    }

    /// Gather load `data[idx[l]]` (`LD1D (gather)`); `uops` lets callers
    /// attach the 128-byte-window pairing analysis from `ookami-mem`.
    /// Under tracing the table is captured by value: replays read a
    /// record-time copy.
    pub fn ld1d_gather(&mut self, pg: &Pred, data: &[f64], idx: &VVal, uops: u32) -> VVal {
        let bits = (0..self.vl)
            .map(|l| {
                let i = idx.bits[l] as usize;
                if pg.mask[l] && i < data.len() {
                    data[i].to_bits()
                } else {
                    0u64
                }
            })
            .collect();
        let id = self.fresh();
        if self.trace.is_none() {
            counters::bump_gather(1, popcount(&pg.mask), uops.max(1) as u64);
        }
        self.rec_hint(OpClass::Gather, Some(id), &[pg.id, idx.id], uops);
        if let Some(tr) = &mut self.trace {
            let tab = tr.capture_tab(data);
            let (sp, si) = (tr.ps(pg.id), tr.vs(idx.id));
            let dst = tr.new_v(id);
            tr.push(TOp::Gather {
                dst,
                pg: sp,
                idx: si,
                tab,
                uops,
            });
        }
        VVal { bits, id }
    }

    /// Scatter store `data[idx[l]] = v[l]` (`ST1D (scatter)`).
    /// Under tracing the *pre-write* table contents are captured; replays
    /// scatter into the replayer's working copy ([`crate::trace::Replayer::table`]).
    pub fn st1d_scatter(&mut self, pg: &Pred, v: &VVal, data: &mut [f64], idx: &VVal) {
        let tab = self.trace.as_mut().map(|tr| tr.capture_tab(data));
        for l in 0..self.vl {
            let i = idx.bits[l] as usize;
            if pg.mask[l] && i < data.len() {
                data[i] = f64::from_bits(v.bits[l]);
            }
        }
        if self.trace.is_none() {
            counters::bump_scatter(1, popcount(&pg.mask));
        }
        self.rec(OpClass::Scatter, None, &[pg.id, v.id, idx.id]);
        if let Some(tr) = &mut self.trace {
            let op = TOp::Scatter {
                pg: tr.ps(pg.id),
                v: tr.vs(v.id),
                idx: tr.vs(idx.id),
                tab: tab.expect("table captured above when tracing"),
            };
            tr.push(op);
        }
    }

    // ---------------- loop bookkeeping ------------------------------------

    /// Record the scalar overhead of one loop iteration: `int_ops` address/
    /// counter updates plus the back-edge branch.
    pub fn loop_overhead(&mut self, int_ops: usize) {
        if self.trace.is_none() {
            counters::bump(OpClass::IntAlu, int_ops as u64, 0, 1);
            counters::bump(OpClass::Branch, 1, 0, 1);
        }
        for _ in 0..int_ops {
            self.rec(OpClass::IntAlu, None, &[]);
        }
        self.rec(OpClass::Branch, None, &[]);
        if let Some(tr) = &mut self.trace {
            tr.push(TOp::Overhead { int_ops });
        }
    }

    /// Record a scalar libm call retiring one element (the GNU-on-A64FX
    /// fallback path for exp/sin/pow).
    pub fn scalar_libm_call(&mut self) {
        self.count(OpClass::ScalarLibmCall, 0);
        self.rec(OpClass::ScalarLibmCall, None, &[]);
        if let Some(tr) = &mut self.trace {
            tr.push(TOp::LibmCall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SveCtx {
        SveCtx::new(8)
    }

    #[test]
    fn arithmetic_matches_scalar() {
        let mut c = ctx();
        let pg = c.ptrue();
        let a = c.input_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = c.dup_f64(0.5);
        let s = c.fadd(&pg, &a, &b);
        let m = c.fmul(&pg, &a, &b);
        let f = c.fmla(&pg, &s, &a, &b);
        for l in 0..8 {
            let x = (l + 1) as f64;
            assert_eq!(s.f64_lane(l), x + 0.5);
            assert_eq!(m.f64_lane(l), x * 0.5);
            assert_eq!(f.f64_lane(l), x.mul_add(0.5, x + 0.5));
        }
    }

    #[test]
    fn predication_merges_first_operand() {
        let mut c = ctx();
        let a = c.input_f64(&[1.0; 8]);
        let b = c.dup_f64(10.0);
        let zero = c.dup_f64(0.0);
        let all = c.ptrue();
        let pg = c.fcmgt(&all, &a, &zero); // all true
        let half = Pred {
            mask: (0..8).map(|l| l % 2 == 0).collect(),
            id: pg.id,
        };
        let r = c.fadd(&half, &a, &b);
        for l in 0..8 {
            let want = if l % 2 == 0 { 11.0 } else { 1.0 };
            assert_eq!(r.f64_lane(l), want, "lane {l}");
        }
    }

    #[test]
    fn whilelt_tail_handling() {
        let mut c = ctx();
        let p = c.whilelt(16, 19);
        assert_eq!(p.count_active(), 3);
        assert!(p.any());
        let p2 = c.whilelt(24, 19);
        assert!(!p2.any());
    }

    #[test]
    fn load_store_roundtrip() {
        let mut c = ctx();
        let pg = c.ptrue();
        let src: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let mut dst = vec![0.0; 32];
        for off in (0..32).step_by(8) {
            let v = c.ld1d(&pg, &src, off);
            c.st1d(&pg, &v, &mut dst, off);
        }
        assert_eq!(src, dst);
    }

    #[test]
    fn gather_scatter_permutation_roundtrip() {
        let mut c = ctx();
        let pg = c.ptrue();
        let src: Vec<f64> = (0..8).map(|i| i as f64 * 1.5).collect();
        let mut dst = vec![0.0; 8];
        let perm = [3i64, 1, 4, 0, 6, 2, 7, 5];
        let idxbits: Vec<u64> = perm.iter().map(|&i| i as u64).collect();
        let idx = VVal {
            bits: idxbits,
            id: 99,
        };
        let g = c.ld1d_gather(&pg, &src, &idx, 8);
        for l in 0..8 {
            assert_eq!(g.f64_lane(l), src[perm[l] as usize]);
        }
        c.st1d_scatter(&pg, &g, &mut dst, &idx);
        // scatter(gather(x, p), p) restores the original
        assert_eq!(dst, src);
    }

    #[test]
    fn newton_reciprocal_converges() {
        let mut c = ctx();
        let pg = c.ptrue();
        let x = c.input_f64(&[0.1, 0.5, 1.0, 2.0, 3.0, 7.0, 100.0, 12345.0]);
        let mut y = c.frecpe(&x);
        for _ in 0..3 {
            let corr = c.frecps(&pg, &x, &y); // 2 - x*y
            y = c.fmul(&pg, &y, &corr);
        }
        for l in 0..8 {
            let want = 1.0 / x.f64_lane(l);
            let got = y.f64_lane(l);
            assert!(
                (got / want - 1.0).abs() < 1e-14,
                "lane {l}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn newton_rsqrt_converges() {
        let mut c = ctx();
        let pg = c.ptrue();
        let x = c.input_f64(&[0.25, 1.0, 2.0, 4.0, 9.0, 100.0, 0.01, 64.0]);
        let mut y = c.frsqrte(&x);
        for _ in 0..3 {
            let xy = c.fmul(&pg, &x, &y);
            let corr = c.frsqrts(&pg, &xy, &y); // (3 - x*y*y)/2
            y = c.fmul(&pg, &y, &corr);
        }
        for l in 0..8 {
            let want = 1.0 / x.f64_lane(l).sqrt();
            let got = y.f64_lane(l);
            assert!(
                (got / want - 1.0).abs() < 1e-13,
                "lane {l}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn recording_captures_def_use() {
        let mut c = ctx();
        let pg = c.ptrue();
        let a = c.dup_f64(1.0);
        let b = c.dup_f64(2.0);
        c.start_recording();
        let s = c.fadd(&pg, &a, &b);
        let _t = c.fmul(&pg, &s, &b);
        c.loop_overhead(2);
        let log = c.take_recording();
        assert_eq!(log.len(), 5); // fadd, fmul, 2×IntAlu, branch
        assert_eq!(log[0].op, OpClass::FAdd);
        assert_eq!(log[1].op, OpClass::FMul);
        // fmul's sources include fadd's destination
        assert!(log[1].srcs.contains(&log[0].dst.unwrap()));
        assert_eq!(log[4].op, OpClass::Branch);
    }

    #[test]
    fn gather_uops_hint_recorded() {
        let mut c = ctx();
        let pg = c.ptrue();
        let idx = c.index(0, 1);
        c.start_recording();
        let _ = c.ld1d_gather(&pg, &[1.0; 8], &idx, 4);
        let log = c.take_recording();
        assert_eq!(log[0].uops_hint, Some(4));
    }

    #[test]
    fn faddv_sums_active_lanes() {
        let mut c = ctx();
        let a = c.input_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let pg = c.whilelt(0, 4);
        let s = c.faddv(&pg, &a);
        assert_eq!(s, 10.0);
    }

    #[test]
    fn int_ops_and_conversions() {
        let mut c = ctx();
        let pg = c.ptrue();
        let x = c.input_f64(&[1.4, 2.5, -3.5, 7.9, 0.0, -0.4, 100.6, -1.5]);
        let n = c.fcvtns(&pg, &x);
        assert_eq!(n.to_i64_vec(), vec![1, 2, -4, 8, 0, 0, 101, -2]);
        let back = c.scvtf(&pg, &n);
        assert_eq!(back.f64_lane(3), 8.0);
        let one = c.dup_i64(1);
        let shifted = c.lsl(&pg, &one, 6);
        assert_eq!(shifted.i64_lane(0), 64);
        let neg = c.dup_i64(-128);
        let a = c.asr(&pg, &neg, 6);
        assert_eq!(a.i64_lane(0), -2);
    }

    #[test]
    fn smaller_vector_lengths() {
        for vl in [1usize, 2, 4] {
            let mut c = SveCtx::new(vl);
            let pg = c.ptrue();
            let a = c.dup_f64(3.0);
            let b = c.dup_f64(4.0);
            let s = c.fadd(&pg, &a, &b);
            assert_eq!(s.vl(), vl);
            assert_eq!(s.f64_lane(vl - 1), 7.0);
        }
    }

    // --- register-id wraparound (satellite regression tests) ---

    #[test]
    fn ids_saturate_instead_of_wrapping_outside_recording() {
        let mut c = ctx();
        c.force_next_reg(Reg::MAX - 1);
        let a = c.dup_f64(1.0); // takes MAX-1
        let b = c.dup_f64(2.0); // takes MAX, saturates
        let d = c.dup_f64(3.0); // stays at MAX — never wraps to collide with a
        assert_eq!(a.id, Reg::MAX - 1);
        assert_eq!(b.id, Reg::MAX);
        assert_eq!(d.id, Reg::MAX);
    }

    #[test]
    #[should_panic(expected = "register ids exhausted")]
    fn ids_panic_instead_of_colliding_under_recording() {
        let mut c = ctx();
        let pg = c.ptrue();
        let a = c.dup_f64(1.0);
        c.force_next_reg(Reg::MAX);
        c.start_recording();
        // first op takes id MAX; incrementing past it must panic, not wrap
        // back over `pg`/`a`'s live low ids.
        let _ = c.fadd(&pg, &a, &a);
    }
}
