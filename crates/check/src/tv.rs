//! Translation validation for the trace compiler (DESIGN.md §8.2).
//!
//! The compiler in `ookami_sve::compile` runs three passes (constant
//! fold, predicate simplification, dead-def elimination) and then folds
//! a static counter recipe into the emission plan. Each pass is
//! correct-by-construction in the compiler's head; this module makes it
//! correct-by-proof per run: [`validate_trail`] takes the per-pass
//! snapshot trail ([`ookami_sve::tv::pass_trail`]) and proves every
//! adjacent stage pair observationally equivalent by abstract
//! interpretation, trusting nothing the compiler claims beyond the
//! substitution witness — which it re-justifies from the source stage.
//!
//! Per transition the prover discharges:
//!
//! * **constant folds** — a target-stage setup constant replacing a
//!   source body op must re-evaluate bit-for-bit through the same lane
//!   functions, and the op's governing predicate must be provably
//!   all-true (`TV0002` otherwise);
//! * **witness legality** — every `psubst` entry needs a dissolving
//!   `pand` with an all-true operand, every `vsubst` entry a full-mask
//!   `sel`, in the source stage (`TV0002`);
//! * **definition matching** — every target definition must equal a
//!   source definition rewritten through the witness (`TV0001`);
//! * **effects and observables** — scatters, overhead, libm calls,
//!   outputs, taps and carries must be preserved exactly (`TV0001`,
//!   `TV0006`, `TV0007`);
//! * **lattice facts** — a store predicate must not widen from
//!   `Bounded` to `Wide` and an output's NaN class must not weaken from
//!   canonical-quiet to arbitrary (`TV0005`);
//! * **index bounds** — a gather/scatter bounds proof (`OC0004`) that
//!   held before the pass must still hold after it (`TV0003`);
//! * **counter recipe** — the plan's statically pre-folded [`Snapshot`]
//!   must match an independent re-derivation from the recorded body
//!   (`TV0004`).
//!
//! Each transition also runs the full static verifier on the
//! target-stage program, so a pass that manufactures an undefined use
//! or a double definition is caught by the existing `OCxxxx` checks;
//! intermediate stages keep only verifier *errors* (lints like dead
//! defs are transient by design until DCE runs).

use std::collections::{HashMap, HashSet};

use crate::diag::{Code, Diag};
use crate::program::Program;
use crate::verify::verify;
use ookami_core::obs::{Counter, Snapshot, COUNTERS};
use ookami_sve::fexpa::fexpa_lane;
use ookami_sve::lanes;
use ookami_sve::trace::{top_class, top_def, top_pg, CvtOp, ShiftOp, Slot, TOp, Trace};
use ookami_sve::tv::{self, PassStage, PassTrail, BLOCK_LANES};
use ookami_sve::TraceBuilder;
use ookami_uarch::meta::{
    lane_accounting, nan_class_transfer, pred_transfer, LaneAccounting, NanClass, PredDom,
};
use ookami_uarch::OpClass;

// ---------------------------------------------------------------------------
// Witness
// ---------------------------------------------------------------------------

/// The pass's slot-substitution witness, resolvable to fixpoint. Slots
/// are never renumbered by any pass, so both sides of a pair live in one
/// shared slot space and chasing is idempotent on already-resolved
/// operands.
struct Witness {
    p: HashMap<Slot, Slot>,
    v: HashMap<Slot, Slot>,
}

impl Witness {
    fn from_stage(stage: &PassStage) -> Witness {
        Witness {
            p: stage.psubst.iter().copied().collect(),
            v: stage.vsubst.iter().copied().collect(),
        }
    }

    fn chase(map: &HashMap<Slot, Slot>, mut s: Slot) -> Slot {
        // The compiler cannot produce substitution cycles, but the
        // witness under validation is untrusted — bound the walk.
        for _ in 0..=map.len() {
            match map.get(&s) {
                Some(&n) => s = n,
                None => break,
            }
        }
        s
    }

    fn rp(&self, s: Slot) -> Slot {
        Self::chase(&self.p, s)
    }

    fn rv(&self, s: Slot) -> Slot {
        Self::chase(&self.v, s)
    }
}

// ---------------------------------------------------------------------------
// Independent constant-fold evaluation
// ---------------------------------------------------------------------------

/// Evaluate one op over known constant lanes, mirroring the compiler's
/// fold through the same lane functions the replayer uses — a verified
/// fold is bit-identical to what replay would have computed.
fn eval_fold(op: &TOp, consts: &HashMap<Slot, Vec<u64>>, vl: usize) -> Option<Vec<u64>> {
    let k = |s: Slot| consts.get(&s);
    let lanes1 =
        |a: &Vec<u64>, f: &dyn Fn(u64) -> u64| -> Vec<u64> { a.iter().map(|&x| f(x)).collect() };
    Some(match *op {
        TOp::Bin { op, a, b, .. } => {
            let (a, b) = (k(a)?, k(b)?);
            (0..vl).map(|l| tv::eval_bin(op, a[l], b[l])).collect()
        }
        TOp::Un { op, a, .. } => lanes1(k(a)?, &|x| tv::eval_un(op, x)),
        TOp::Fmla { neg, c, a, b, .. } => {
            let (c, a, b) = (k(c)?, k(a)?, k(b)?);
            (0..vl)
                .map(|l| {
                    let av = f64::from_bits(a[l]);
                    let av = if neg { -av } else { av };
                    lanes::dn(av.mul_add(f64::from_bits(b[l]), f64::from_bits(c[l]))).to_bits()
                })
                .collect()
        }
        TOp::Est { rsqrt, a, .. } => {
            let f: fn(u64) -> u64 = if rsqrt {
                lanes::rsqrte_lane
            } else {
                lanes::recpe_lane
            };
            lanes1(k(a)?, &f)
        }
        TOp::NewtonStep { rsqrt, a, b, .. } => {
            let (a, b) = (k(a)?, k(b)?);
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
        TOp::Fexpa { a, .. } => lanes1(k(a)?, &|x| fexpa_lane(x).to_bits()),
        TOp::Ftmad { a, b, coeff, .. } => {
            let (a, b) = (k(a)?, k(b)?);
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
            lanes1(k(a)?, &f)
        }
        TOp::Cvt { op, a, .. } => {
            let f: fn(u64) -> u64 = match op {
                CvtOp::Ucvtf => lanes::ucvtf_lane,
                CvtOp::Fcvtns => lanes::fcvtns_lane,
                CvtOp::Fcvtzs => lanes::fcvtzs_lane,
                CvtOp::Scvtf => lanes::scvtf_lane,
            };
            lanes1(k(a)?, &f)
        }
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Abstract-domain walks
// ---------------------------------------------------------------------------

/// `{Bounded, Wide}` facts for every predicate defined in a stage, via
/// the shared transfer function. Unlike the compiler's internal pass
/// bookkeeping, compares resolve through the *verifier's* semantics: a
/// compare inherits its governing predicate's domain.
fn pred_doms(t: &Trace) -> HashMap<Slot, PredDom> {
    let mut dom: HashMap<Slot, PredDom> = HashMap::new();
    if let Some(lp) = t.loop_pred {
        dom.insert(lp, PredDom::Bounded);
    }
    let get = |dom: &HashMap<Slot, PredDom>, s: Slot| dom.get(&s).copied().unwrap_or(PredDom::Wide);
    for op in t.setup.iter().chain(t.body.iter()) {
        if let (None, Some(d)) = top_def(op) {
            let v = match *op {
                TOp::Pand { a, b, .. } => {
                    pred_transfer(OpClass::PredOp, &[get(&dom, a), get(&dom, b)])
                }
                TOp::Cmp { pg, .. } | TOp::CmpNeImm { pg, .. } => {
                    pred_transfer(OpClass::FCmp, &[get(&dom, pg)])
                }
                _ => PredDom::Wide,
            };
            dom.insert(d, v);
        }
    }
    dom
}

/// NaN-class facts for every vector slot in a stage. Inputs and carry
/// initials are `Arbitrary` (lanes arrive from memory / a previous
/// iteration); exact constants classify by their literal lanes; ops go
/// through the shared transfer.
fn nan_classes(t: &Trace) -> HashMap<Slot, NanClass> {
    let mut cls: HashMap<Slot, NanClass> = HashMap::new();
    let mut pinned: HashSet<Slot> = t.inputs.iter().copied().collect();
    for &(init, _) in &t.carries {
        pinned.insert(init);
    }
    for &s in &pinned {
        cls.insert(s, NanClass::Arbitrary);
    }
    let get = |cls: &HashMap<Slot, NanClass>, s: Slot| {
        cls.get(&s).copied().unwrap_or(NanClass::Arbitrary)
    };
    for op in t.setup.iter().chain(t.body.iter()) {
        let (vdef, _) = top_def(op);
        let Some(d) = vdef else { continue };
        if pinned.contains(&d) {
            continue;
        }
        let v = match op {
            TOp::ConstV { lanes, .. } => {
                if lanes
                    .iter()
                    .all(|&x| !f64::from_bits(x).is_nan() || x == lanes::DEFAULT_NAN)
                {
                    NanClass::CanonicalQuiet
                } else {
                    NanClass::Arbitrary
                }
            }
            _ => match top_class(op) {
                Some(class) => {
                    let srcs: Vec<NanClass> = tv::op_v_srcs(op)
                        .into_iter()
                        .map(|s| get(&cls, s))
                        .collect();
                    nan_class_transfer(class, &srcs)
                }
                None => NanClass::Arbitrary,
            },
        };
        cls.insert(d, v);
    }
    cls
}

// ---------------------------------------------------------------------------
// Diag anchoring
// ---------------------------------------------------------------------------

/// Body-op index → instruction index in the lowered stream (`Overhead`
/// expands to `int_ops` IntAlu plus one Branch; everything else is one
/// instruction). The second return is the stream length.
fn body_anchors(t: &Trace) -> (Vec<usize>, usize) {
    let mut anchors = Vec::with_capacity(t.body.len());
    let mut i = 0usize;
    for op in &t.body {
        anchors.push(i);
        i += match op {
            TOp::Overhead { int_ops } => int_ops + 1,
            _ => 1,
        };
    }
    (anchors, i)
}

fn clamp(i: usize, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        i.min(len - 1)
    }
}

fn slot_name(vdef: Option<Slot>, pdef: Option<Slot>) -> String {
    match (vdef, pdef) {
        (Some(v), _) => format!("v{v}"),
        (_, Some(p)) => format!("p{p}"),
        _ => "<effect>".into(),
    }
}

fn op_kind(op: &TOp) -> &'static str {
    match op {
        TOp::Scatter { .. } => "scatter",
        TOp::Overhead { .. } => "overhead",
        TOp::LibmCall => "libm call",
        _ => "op",
    }
}

// ---------------------------------------------------------------------------
// Pair validation
// ---------------------------------------------------------------------------

/// Prove target stage `t` observationally equivalent to source stage `s`
/// under `t`'s witness. Returns only TV diagnostics; [`validate_pair_full`]
/// merges in the target-stage verifier run.
pub fn validate_pair(s: &PassStage, t: &PassStage) -> Vec<Diag> {
    let mut diags = Vec::new();
    let st = &s.trace;
    let tt = &t.trace;
    let w = Witness::from_stage(t);
    let (anchors, n_instrs) = body_anchors(tt);
    let last = clamp(n_instrs.saturating_sub(1), n_instrs);

    // Source-stage definition map and the fold-time "provably all-true"
    // predicate set (setup ptrues; the loop predicate is Bounded, not
    // full — its last block is partial).
    let mut s_def: HashMap<(bool, Slot), &TOp> = HashMap::new();
    let mut s_ptrues: HashSet<Slot> = HashSet::new();
    for op in st.setup.iter().chain(st.body.iter()) {
        let (vd, pd) = top_def(op);
        if let Some(v) = vd {
            s_def.insert((false, v), op);
        }
        if let Some(p) = pd {
            s_def.insert((true, p), op);
        }
        if let TOp::Ptrue { dst } = *op {
            s_ptrues.insert(dst);
        }
    }
    let is_full = |slot: Slot| s_ptrues.contains(&w.rp(slot));

    // --- Constant-fold claims: a target setup constant whose slot the
    // source defines with a body op is the fold pass asserting that op
    // evaluates to these lanes. Re-derive independently, in source body
    // order so chained folds see earlier verified results.
    let t_setup_consts: HashMap<Slot, &Vec<u64>> = tt
        .setup
        .iter()
        .filter_map(|op| match op {
            TOp::ConstV { dst, lanes } => Some((*dst, lanes)),
            _ => None,
        })
        .collect();
    let mut known: HashMap<Slot, Vec<u64>> = st
        .setup
        .iter()
        .filter_map(|op| match op {
            TOp::ConstV { dst, lanes } => Some((*dst, lanes.clone())),
            _ => None,
        })
        .collect();
    let mut claimed: HashSet<Slot> = HashSet::new();
    for op in &st.body {
        let Some(d) = top_def(op).0 else { continue };
        let Some(&lanes) = t_setup_consts.get(&d) else {
            continue;
        };
        claimed.insert(d);
        if let Some(pg) = top_pg(op) {
            if !s_ptrues.contains(&pg) {
                diags.push(Diag::new(
                    Code::WitnessBroken,
                    0,
                    None,
                    format!(
                        "v{d} folded to a constant under p{pg}, which is not provably all-true"
                    ),
                ));
            }
        }
        match eval_fold(op, &known, st.vl) {
            Some(ev) if ev == *lanes => {}
            Some(_) => diags.push(Diag::new(
                Code::WitnessBroken,
                0,
                None,
                format!("folded constant for v{d} does not match independent re-evaluation"),
            )),
            None => diags.push(Diag::new(
                Code::WitnessBroken,
                0,
                None,
                format!("v{d} folded to a constant but its sources are not all setup constants"),
            )),
        }
        known.insert(d, lanes.clone());
    }

    // --- Witness legality: only substitutions *introduced* by this
    // transition need justification (a carried-over witness was already
    // proved against the stage that introduced it).
    let prior_p: HashSet<(Slot, Slot)> = s.psubst.iter().copied().collect();
    for &(x, _) in t.psubst.iter().filter(|e| !prior_p.contains(e)) {
        let ok = st.setup.iter().chain(st.body.iter()).any(|op| match *op {
            TOp::Pand { dst, a, b } if dst == x => {
                (is_full(a) && w.rp(b) == w.rp(x)) || (is_full(b) && w.rp(a) == w.rp(x))
            }
            _ => false,
        });
        if !ok {
            diags.push(Diag::new(
                Code::WitnessBroken,
                0,
                None,
                format!(
                    "substitution p{x} -> p{} has no justifying pand dissolution in the source",
                    w.rp(x)
                ),
            ));
        }
    }
    let prior_v: HashSet<(Slot, Slot)> = s.vsubst.iter().copied().collect();
    for &(x, _) in t.vsubst.iter().filter(|e| !prior_v.contains(e)) {
        let ok = st.setup.iter().chain(st.body.iter()).any(|op| match *op {
            TOp::Sel { dst, pg, a, .. } if dst == x => is_full(pg) && w.rv(a) == w.rv(x),
            _ => false,
        });
        if !ok {
            diags.push(Diag::new(
                Code::WitnessBroken,
                0,
                None,
                format!(
                    "substitution v{x} -> v{} has no justifying full-mask sel in the source",
                    w.rv(x)
                ),
            ));
        }
    }

    // --- Definition matching: every target def must be a source def
    // rewritten through the witness (fold claims were handled above;
    // dropped source defs are fine — deadness is safe once effects and
    // observables are proved below).
    let rv = |s: Slot| w.rv(s);
    let rp = |s: Slot| w.rp(s);
    for (op, anchor) in tt.setup.iter().map(|op| (op, 0usize)).chain(
        tt.body
            .iter()
            .enumerate()
            .map(|(k, op)| (op, clamp(anchors[k], n_instrs))),
    ) {
        let (vd, pd) = top_def(op);
        if vd.is_none() && pd.is_none() {
            continue;
        }
        if let Some(v) = vd {
            if claimed.contains(&v) {
                continue;
            }
        }
        let key = match (vd, pd) {
            (Some(v), _) => (false, v),
            (_, Some(p)) => (true, p),
            _ => unreachable!(),
        };
        match s_def.get(&key) {
            None => diags.push(Diag::new(
                Code::ObservableMismatch,
                anchor,
                None,
                format!(
                    "target defines {} but the source stage has no matching definition",
                    slot_name(vd, pd)
                ),
            )),
            Some(sop) => {
                if tv::rewrite_op(sop, &rv, &rp) != *op {
                    diags.push(Diag::new(
                        Code::ObservableMismatch,
                        anchor,
                        None,
                        format!(
                            "definition of {} does not match the source op under the witness",
                            slot_name(vd, pd)
                        ),
                    ));
                }
            }
        }
    }

    // --- Effects: matched positionally — passes may drop or rewrite
    // defs but never reorder, drop or invent a scatter/overhead/libm
    // effect.
    fn effects(t: &Trace) -> Vec<(usize, &TOp)> {
        t.body
            .iter()
            .enumerate()
            .filter(|(_, op)| top_def(op) == (None, None))
            .collect()
    }
    let s_eff = effects(st);
    let t_eff = effects(tt);
    for (j, ((_, sop), (tk, top))) in s_eff.iter().zip(t_eff.iter()).enumerate() {
        if tv::rewrite_op(sop, &rv, &rp) != **top {
            diags.push(Diag::new(
                Code::ObservableMismatch,
                clamp(anchors[*tk], n_instrs),
                None,
                format!(
                    "effect #{j} ({}) does not match the source stage under the witness",
                    op_kind(top)
                ),
            ));
        }
    }
    for (j, (_, sop)) in s_eff.iter().enumerate().skip(t_eff.len()) {
        diags.push(Diag::new(
            Code::EffectDropped,
            last,
            None,
            format!(
                "source effect #{j} ({}) has no counterpart in the target",
                op_kind(sop)
            ),
        ));
    }
    for (j, (tk, top)) in t_eff.iter().enumerate().skip(s_eff.len()) {
        diags.push(Diag::new(
            Code::EffectAdded,
            clamp(anchors[*tk], n_instrs),
            None,
            format!(
                "target effect #{j} ({}) does not exist in the source",
                op_kind(top)
            ),
        ));
    }

    // --- Observables: outputs, taps and carries, resolved through the
    // witness on both sides (chasing is idempotent on the target, whose
    // references were already rewritten by the pass).
    let mut check_slots = |label: &str, ss: &[Slot], ts: &[Slot], pred: bool| {
        if ss.len() != ts.len() {
            diags.push(Diag::new(
                Code::ObservableMismatch,
                last,
                None,
                format!(
                    "source has {} {label}(s), target has {}",
                    ss.len(),
                    ts.len()
                ),
            ));
        }
        let r = |s: Slot| if pred { w.rp(s) } else { w.rv(s) };
        let dom = if pred { "p" } else { "v" };
        for (j, (&a, &b)) in ss.iter().zip(ts.iter()).enumerate() {
            if r(a) != r(b) {
                diags.push(Diag::new(
                    Code::ObservableMismatch,
                    last,
                    None,
                    format!(
                        "{label} {j} resolves to {dom}{} in the source but {dom}{} in the target",
                        r(a),
                        r(b)
                    ),
                ));
            }
        }
    };
    check_slots("output", &st.outputs, &tt.outputs, false);
    check_slots("vector tap", &st.tap_v, &tt.tap_v, false);
    check_slots("pred tap", &st.tap_p, &tt.tap_p, true);
    let (s_ci, s_cu): (Vec<Slot>, Vec<Slot>) = st.carries.iter().copied().unzip();
    let (t_ci, t_cu): (Vec<Slot>, Vec<Slot>) = tt.carries.iter().copied().unzip();
    check_slots("carry init", &s_ci, &t_ci, false);
    check_slots("carry update", &s_cu, &t_cu, false);

    // --- Lattice facts. (a) A store predicate that was provably inside
    // the loop bound must stay provable; (b) an output whose NaNs were
    // provably canonical-quiet must stay so.
    let dom_s = pred_doms(st);
    let dom_t = pred_doms(tt);
    let scatters = |t: &Trace| -> Vec<(usize, Slot)> {
        t.body
            .iter()
            .enumerate()
            .filter_map(|(k, op)| match *op {
                TOp::Scatter { pg, .. } => Some((k, pg)),
                _ => None,
            })
            .collect()
    };
    for (j, ((_, spg), (tk, tpg))) in scatters(st).iter().zip(scatters(tt).iter()).enumerate() {
        let sd = dom_s.get(spg).copied().unwrap_or(PredDom::Wide);
        let td = dom_t.get(tpg).copied().unwrap_or(PredDom::Wide);
        if sd == PredDom::Bounded && td == PredDom::Wide {
            diags.push(Diag::new(
                Code::LatticeWeakened,
                clamp(anchors[*tk], n_instrs),
                None,
                format!("scatter #{j} predicate widened from Bounded to Wide across the pass"),
            ));
        }
    }
    let nan_s = nan_classes(st);
    let nan_t = nan_classes(tt);
    for (j, (&a, &b)) in st.outputs.iter().zip(tt.outputs.iter()).enumerate() {
        let sc = nan_s.get(&a).copied().unwrap_or(NanClass::Arbitrary);
        let tc = nan_t.get(&b).copied().unwrap_or(NanClass::Arbitrary);
        if sc == NanClass::CanonicalQuiet && tc == NanClass::Arbitrary {
            diags.push(Diag::new(
                Code::LatticeWeakened,
                last,
                None,
                format!("output {j} NaN class weakened from canonical-quiet to arbitrary"),
            ));
        }
    }

    diags
}

/// [`validate_pair`] plus the target-stage verifier run (errors only —
/// mid-pipeline lints like dead defs are transient until DCE) and the
/// `TV0003` index-widening cross-check, merged and sorted the same way
/// [`verify`] sorts. Returns the target-stage program for rendering.
pub fn validate_pair_full(name: &str, s: &PassStage, t: &PassStage) -> (Program, Vec<Diag>) {
    let sp = Program::from_trace(&format!("{name}@{}", s.name), &s.trace);
    let tp = Program::from_trace(&format!("{name}@{}", t.name), &t.trace);
    let s_oob = verify(&sp).iter().any(|d| d.code == Code::OutOfBoundsIndex);
    let t_verify: Vec<Diag> = verify(&tp).into_iter().filter(Diag::is_error).collect();
    let mut diags = validate_pair(s, t);
    if !s_oob {
        for d in &t_verify {
            if d.code == Code::OutOfBoundsIndex {
                diags.push(Diag::new(
                    Code::IndexWidened,
                    d.index,
                    None,
                    "pass introduced an index-bounds violation the source stage did not have"
                        .into(),
                ));
            }
        }
    }
    diags.extend(t_verify);
    diags.sort_by(|a, b| (a.index, a.code.as_str()).cmp(&(b.index, b.code.as_str())));
    (tp, diags)
}

// ---------------------------------------------------------------------------
// Counter-recipe exactness
// ---------------------------------------------------------------------------

/// Re-derive the plan's statically pre-folded per-block counter
/// [`Snapshot`] from the *recorded* body (the native engine counts the
/// pre-pass stream) and compare bit-for-bit against what the compiler
/// baked into the plan. `None` = the trace has no native plan, nothing
/// to check.
pub fn verify_counters(trail: &PassTrail) -> Option<Vec<Diag>> {
    let plan = trail.plan.as_ref()?;
    let rec = &trail.stages[0].trace;
    let fin = trail.stages.last().expect("trail has stages");
    let w = Witness::from_stage(fin);
    let (_, n_instrs) = body_anchors(&fin.trace);
    let last = clamp(n_instrs.saturating_sub(1), n_instrs);
    let mut diags = Vec::new();

    let vl = rec.vl;
    let blocks = (BLOCK_LANES / vl) as u64;
    if plan.blocks != blocks {
        diags.push(Diag::new(
            Code::CounterRecipeMismatch,
            last,
            None,
            format!("plan block count {} does not match {blocks}", plan.blocks),
        ));
        return Some(diags);
    }

    // Statically-full predicates, re-derived: the loop predicate (full
    // on every full block by construction) plus every setup predicate
    // that materializes all-true at record width.
    let mut full: HashSet<Slot> = tv::setup_full_preds(&fin.trace).into_iter().collect();
    if let Some(lp) = fin.trace.loop_pred {
        full.insert(lp);
    }

    let lanes_w = BLOCK_LANES as u64;
    let mut snap = Snapshot::zero();
    snap.set(
        Counter::BytesLoaded,
        (fin.trace.inputs.len() * 8 * BLOCK_LANES) as u64,
    );
    for op in &rec.body {
        match *op {
            TOp::Fexpa { .. } => tv::acct_bump_fexpa(&mut snap, blocks, lanes_w),
            TOp::Overhead { int_ops } => {
                tv::acct_bump(&mut snap, OpClass::IntAlu, blocks * int_ops as u64, 0, 1);
                tv::acct_bump(&mut snap, OpClass::Branch, blocks, 0, 1);
            }
            TOp::LibmCall => tv::acct_bump(&mut snap, OpClass::ScalarLibmCall, blocks, 0, 1),
            TOp::Gather { .. } | TOp::Scatter { .. } => {
                diags.push(Diag::new(
                    Code::CounterRecipeMismatch,
                    last,
                    None,
                    "native plan exists for a trace with gather/scatter (gate breached)".into(),
                ));
                return Some(diags);
            }
            _ => {
                let class = top_class(op).expect("body op lowers to a class");
                match lane_accounting(class) {
                    LaneAccounting::Governed => {
                        let pg = w.rp(top_pg(op).expect("governed op has a predicate"));
                        if full.contains(&pg) {
                            tv::acct_bump(&mut snap, class, blocks, lanes_w, 1);
                        }
                        // Non-full masks are counted at runtime by row
                        // popcount — not part of the static recipe.
                    }
                    LaneAccounting::FullVector => {
                        tv::acct_bump(&mut snap, class, blocks, lanes_w, 1);
                    }
                    LaneAccounting::ResultPop => match *op {
                        TOp::Pand { a, b, .. } => {
                            if full.contains(&w.rp(a)) && full.contains(&w.rp(b)) {
                                tv::acct_bump(&mut snap, class, blocks, lanes_w, 1);
                            }
                        }
                        _ => unreachable!("ResultPop lowers only from pand"),
                    },
                    LaneAccounting::Scalar => tv::acct_bump(&mut snap, class, blocks, 0, 1),
                }
            }
        }
    }

    if snap != plan.acct_static {
        let mut diffs = Vec::new();
        for c in COUNTERS {
            let (got, want) = (snap.get(c), plan.acct_static.get(c));
            if got != want {
                diffs.push(format!("{}: re-derived {got}, plan has {want}", c.name()));
            }
        }
        diags.push(Diag::new(
            Code::CounterRecipeMismatch,
            last,
            None,
            format!("static counter recipe mismatch: {}", diffs.join("; ")),
        ));
    }
    Some(diags)
}

// ---------------------------------------------------------------------------
// Trail-level API
// ---------------------------------------------------------------------------

/// The validation result for one pass transition: the target-stage
/// program (for rendering) and the merged diagnostics.
#[derive(Debug)]
pub struct StageReport {
    /// Target-stage pass name (`fold`, `pred_simplify`, `dce`).
    pub stage: &'static str,
    pub program: Program,
    pub diags: Vec<Diag>,
}

/// The full translation-validation verdict for one trace.
#[derive(Debug)]
pub struct TvReport {
    pub name: String,
    /// One entry per pass transition, in pipeline order.
    pub stages: Vec<StageReport>,
    /// Whether the counter recipe was checked (false = no native plan).
    pub counters_checked: bool,
    pub counter_diags: Vec<Diag>,
}

impl TvReport {
    pub fn errors(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|s| s.diags.iter())
            .chain(self.counter_diags.iter())
            .filter(|d| d.is_error())
            .count()
    }

    pub fn is_ok(&self) -> bool {
        self.errors() == 0
    }
}

/// Validate every adjacent stage pair of a pass trail plus the counter
/// recipe.
pub fn validate_trail(name: &str, trail: &PassTrail) -> TvReport {
    let mut stages = Vec::new();
    for k in 1..trail.stages.len() {
        let (program, diags) = validate_pair_full(name, &trail.stages[k - 1], &trail.stages[k]);
        stages.push(StageReport {
            stage: trail.stages[k].name,
            program,
            diags,
        });
    }
    let (counters_checked, counter_diags) = match verify_counters(trail) {
        Some(d) => (true, d),
        None => (false, Vec::new()),
    };
    TvReport {
        name: name.to_string(),
        stages,
        counters_checked,
        counter_diags,
    }
}

/// Run the compiler's pass pipeline on `t` and validate the whole trail.
pub fn validate_trace(name: &str, t: &Trace) -> TvReport {
    validate_trail(name, &t.pass_trail())
}

// ---------------------------------------------------------------------------
// Mutation self-test
// ---------------------------------------------------------------------------

/// Outcome of challenging the validator with a mutated intermediate
/// stage: `Rejected` = a TV/verifier error fired; `Divergent` = the
/// mutation survived validation but changes replay output (a semantic
/// rewrite the prover is allowed to accept only if behavior is
/// preserved — so this counts as a miss unless outputs differ... which
/// they must, or the mutation was a no-op); `Missed` = accepted and
/// bit-identical (only acceptable for genuine no-op mutations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantVerdict {
    Rejected,
    Divergent,
    Missed,
}

/// Mutate stage `seed % 3 + 1` of `trail` (keeping that stage's original
/// witness) and check the pair against its untouched predecessor. The
/// `ookamicheck` gate requires every seed to come back `Rejected` or
/// `Divergent`.
pub fn challenge(trail: &PassTrail, seed: u64) -> MutantVerdict {
    let k = (seed as usize % 3) + 1;
    let s = &trail.stages[k - 1];
    let mut t = trail.stages[k].clone();
    let orig = t.trace.clone();
    t.trace = t.trace.mutated(seed);
    let (_, diags) = validate_pair_full("mutant", s, &t);
    if diags.iter().any(Diag::is_error) {
        return MutantVerdict::Rejected;
    }
    // Accepted: the mutation must at least be observable in replay
    // (SSA-breaking mutants never reach here — the verifier rejects
    // them — so replaying the mutant is safe).
    let xs = [0.0, 0.5, 1.0, -2.0, 3.75, 1e-3, 8.5, -0.25];
    let (a, b) = match orig.inputs.len() {
        1 => (orig.map(&xs), t.trace.map(&xs)),
        2 => {
            let ys = [1.0, -0.5, 2.0, 0.25, -3.0, 4.5, 1e-2, 7.0];
            (orig.map2(&xs, &ys), t.trace.map2(&xs, &ys))
        }
        _ => return MutantVerdict::Missed,
    };
    let differs = a
        .iter()
        .zip(b.iter())
        .any(|(x, y)| x.to_bits() != y.to_bits());
    if differs {
        MutantVerdict::Divergent
    } else {
        MutantVerdict::Missed
    }
}

// ---------------------------------------------------------------------------
// Lint corpus: pass-induced bugs
// ---------------------------------------------------------------------------

/// One hand-built pass-transition mutant with its expected codes, golden
/// snapshotted alongside the `OCxxxx` corpus.
pub struct TvCorpusEntry {
    pub name: &'static str,
    pub program: Program,
    pub diags: Vec<Diag>,
    pub expected: Vec<Code>,
}

fn entry(name: &'static str, s: &Trace, t: &Trace, expected: Vec<Code>) -> TvCorpusEntry {
    let sv = tv::stage_view("recorded", s);
    let tvw = tv::stage_view("mutated", t);
    let (program, diags) = validate_pair_full(name, &sv, &tvw);
    TvCorpusEntry {
        name,
        program,
        diags,
        expected,
    }
}

/// A constant wrongly folded under a partial predicate: the "pass"
/// replaces an `fadd` governed by a compare result (not a full mask)
/// with its would-be constant. The fold is numerically right on active
/// lanes but unsound — inactive lanes pass the first operand through.
fn misfold_partial_pred() -> TvCorpusEntry {
    let s = Trace::record1(8, |c, pg, x| {
        let zero = c.dup_f64(0.0);
        let a = c.dup_f64(3.0);
        let b = c.dup_f64(4.0);
        let p = c.fcmgt(pg, x, &zero);
        let sum = c.fadd(&p, &a, &b);
        c.fmul(pg, x, &sum)
    });
    let mut t = s.clone();
    let pos = t
        .body
        .iter()
        .position(|o| {
            matches!(
                o,
                TOp::Bin {
                    op: ookami_sve::trace::BinOp::FAdd,
                    ..
                }
            )
        })
        .expect("fixture has a fadd");
    let Some(dst) = top_def(&t.body.remove(pos)).0 else {
        unreachable!("fadd defines a vector")
    };
    t.setup.push(TOp::ConstV {
        dst,
        lanes: vec![7.0f64.to_bits(); 8],
    });
    entry("tv_misfold_partial_pred", &s, &t, vec![Code::WitnessBroken])
}

/// DCE wrongly drops a masked store: the scatter is an effect, not a
/// dead def, and removing it silently loses the kernel's writes.
fn dce_dropped_store() -> TvCorpusEntry {
    let s = {
        let mut b = TraceBuilder::new(8);
        let pg = b.loop_pred();
        let idx = b.input_i64();
        b.begin_body();
        let c = b.ctx();
        let src: Vec<f64> = (0..16).map(|k| k as f64).collect();
        let g = c.ld1d_gather(&pg, &src, &idx, 1);
        let mut dst = vec![0.0f64; 16];
        c.st1d_scatter(&pg, &g, &mut dst, &idx);
        b.finish(&[&g])
    };
    let mut t = s.clone();
    let pos = t
        .body
        .iter()
        .position(|o| matches!(o, TOp::Scatter { .. }))
        .expect("fixture has a scatter");
    t.body.remove(pos);
    entry("tv_dce_dropped_store", &s, &t, vec![Code::EffectDropped])
}

/// Predicate simplification widens a store mask: rewriting a scatter's
/// loop-bounded predicate to an all-true one is exactly the bug the
/// `Bounded`/`Wide` lattice exists to rule out — lanes past the loop
/// bound would flow into memory.
fn pred_widened() -> TvCorpusEntry {
    let s = {
        let mut b = TraceBuilder::new(8);
        let pg = b.loop_pred();
        let idx = b.input_i64();
        let vals = b.input_f64();
        b.begin_body();
        let c = b.ctx();
        let _wide = c.ptrue();
        let mut dst = vec![0.0f64; 16];
        c.st1d_scatter(&pg, &vals, &mut dst, &idx);
        b.finish(&[&vals])
    };
    let mut t = s.clone();
    let wide = t
        .setup
        .iter()
        .find_map(|o| match *o {
            TOp::Ptrue { dst } => Some(dst),
            _ => None,
        })
        .expect("fixture has a ptrue");
    for op in &mut t.body {
        if let TOp::Scatter { pg, .. } = op {
            *pg = wide;
        }
    }
    entry(
        "tv_pred_widened",
        &s,
        &t,
        vec![
            Code::OverWidePredicate,
            Code::ObservableMismatch,
            Code::LatticeWeakened,
        ],
    )
}

/// The pass-induced-bug corpus: each entry is a hand-built bad
/// transition with the codes it must (exactly) report, rendered into
/// golden files next to the `OCxxxx` corpus.
pub fn tv_corpus_entries() -> Vec<TvCorpusEntry> {
    vec![misfold_partial_pred(), dce_dropped_store(), pred_widened()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_like() -> Trace {
        Trace::record1(8, |c, pg, x| {
            let half = c.dup_f64(0.5);
            let one = c.dup_f64(1.0);
            let k = c.fmul(pg, &half, &one);
            let p = c.ptrue();
            let m = c.pand(&p, pg);
            let y = c.fmul(&m, x, &k);
            let dead = c.fadd(pg, &y, &one);
            let _ = &dead;
            c.fadd(&m, &y, &one)
        })
    }

    #[test]
    fn clean_trail_validates() {
        let t = exp_like();
        let report = validate_trace("exp_like", &t);
        assert_eq!(report.stages.len(), 3);
        for s in &report.stages {
            assert!(
                s.diags.iter().all(|d| !d.is_error()),
                "{}: {:?}",
                s.stage,
                s.diags
            );
        }
        assert!(report.counters_checked);
        assert!(
            report.counter_diags.is_empty(),
            "{:?}",
            report.counter_diags
        );
        assert!(report.is_ok());
    }

    #[test]
    fn non_native_trail_skips_counters() {
        let t = Trace::record1(7, |c, pg, x| c.fadd(pg, x, x));
        let report = validate_trace("vl7", &t);
        assert!(!report.counters_checked);
        assert!(report.is_ok());
    }

    #[test]
    fn fold_claim_is_reevaluated() {
        // Tamper with a legitimately folded constant: flip one lane bit
        // in the dce-stage setup and revalidate that pair.
        let t = exp_like();
        let trail = t.pass_trail();
        let mut bad = trail.stages[1].clone();
        for op in &mut bad.trace.setup {
            if let TOp::ConstV { lanes, .. } = op {
                if lanes.iter().all(|&x| x == 0.5f64.to_bits()) {
                    lanes[0] ^= 1 << 30;
                }
            }
        }
        // The tampered stage no longer matches: either the fold claim
        // (if the flipped const was the folded one) or def matching.
        let diags = validate_pair(&trail.stages[0], &bad);
        assert!(diags.iter().any(Diag::is_error), "tamper not caught");
    }

    #[test]
    fn counter_recipe_tamper_is_caught() {
        let t = exp_like();
        let mut trail = t.pass_trail();
        let plan = trail.plan.as_mut().expect("native trace has a plan");
        let v = plan.acct_static.get(Counter::SveInstrs);
        plan.acct_static.set(Counter::SveInstrs, v + 1);
        let diags = verify_counters(&trail).expect("plan present");
        assert!(
            diags.iter().any(|d| d.code == Code::CounterRecipeMismatch),
            "{diags:?}"
        );
    }

    #[test]
    fn corpus_entries_report_expected_codes() {
        for e in tv_corpus_entries() {
            let got: Vec<Code> = e.diags.iter().map(|d| d.code).collect();
            assert_eq!(got, e.expected, "{}", e.name);
        }
    }

    #[test]
    fn challenge_rejects_structural_mutants() {
        let t = exp_like();
        let trail = t.pass_trail();
        for seed in 0..24 {
            let v = challenge(&trail, seed);
            assert_ne!(v, MutantVerdict::Missed, "seed {seed} missed");
        }
    }
}
