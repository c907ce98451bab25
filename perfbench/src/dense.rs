//! `emu_dense`: one seeded call of a lanewise kernel per operation, on the
//! per-call path `exp_slice` and `map_traced` take: record the trace,
//! compile it, map the input through the compiled engine. Half the calls
//! are serial, half use `par_map`/`par_map2` at [`THREADS`] threads.
//!
//! Inputs are windows of one seeded base array per kernel; since every
//! kernel is lanewise, the window's output is the matching window of the
//! interpreter's output over the whole base array, which is the reference
//! computed before timing.

use crate::tracer::Tracer;
use crate::{bits_eq, flip_f64, median_time, ExecCell, ExecRow, Rng, ScaleRow, Workload};
use crate::{THREADS, VL};
use ookami_spmv::{StreamKernel, STREAM_SCALAR};
use ookami_sve::{CompiledTrace, Pred, SveCtx, Trace, VVal};
use ookami_vecmath::exp::Poly13Style;
use ookami_vecmath::log::DivStyle;
use ookami_vecmath::pow::PowStyle;
use ookami_vecmath::recip::RecipStyle;
use ookami_vecmath::sqrt::SqrtStyle;
use ookami_vecmath::{ExpVariant, PolyForm};

#[derive(Debug, Clone, Copy)]
enum Kernel {
    Exp(ExpVariant),
    Sin,
    Cos,
    Log(DivStyle),
    Sqrt(SqrtStyle),
    Recip(RecipStyle),
    Pow,
    Stream(StreamKernel),
}

const KERNELS: [Kernel; 18] = [
    Kernel::Exp(ExpVariant::FexpaHorner),
    Kernel::Exp(ExpVariant::FexpaEstrin),
    Kernel::Exp(ExpVariant::FexpaEstrinCorrected),
    Kernel::Exp(ExpVariant::Poly13),
    Kernel::Exp(ExpVariant::Poly13Sleef),
    Kernel::Sin,
    Kernel::Cos,
    Kernel::Log(DivStyle::Newton),
    Kernel::Log(DivStyle::Fdiv),
    Kernel::Sqrt(SqrtStyle::Newton),
    Kernel::Sqrt(SqrtStyle::Fsqrt),
    Kernel::Recip(RecipStyle::Newton),
    Kernel::Recip(RecipStyle::Fdiv),
    Kernel::Pow,
    Kernel::Stream(StreamKernel::Copy),
    Kernel::Stream(StreamKernel::Scale),
    Kernel::Stream(StreamKernel::Add),
    Kernel::Stream(StreamKernel::Triad),
];

impl Kernel {
    fn name(self) -> String {
        match self {
            Kernel::Exp(v) => format!("exp_{v:?}"),
            Kernel::Sin => "sin".into(),
            Kernel::Cos => "cos".into(),
            Kernel::Log(d) => format!("log_{d:?}"),
            Kernel::Sqrt(s) => format!("sqrt_{s:?}"),
            Kernel::Recip(r) => format!("recip_{r:?}"),
            Kernel::Pow => "pow_SleefDd".into(),
            Kernel::Stream(k) => format!("stream_{}", k.name()),
        }
    }

    fn two_inputs(self) -> bool {
        matches!(
            self,
            Kernel::Pow | Kernel::Stream(StreamKernel::Add | StreamKernel::Triad)
        )
    }

    /// Index of the kernel's input domain: kernels of one domain share
    /// their base input arrays.
    fn domain(self) -> usize {
        match self {
            Kernel::Exp(_) => 0,
            Kernel::Sin | Kernel::Cos => 1,
            Kernel::Log(_) | Kernel::Sqrt(_) | Kernel::Recip(_) => 2,
            Kernel::Pow => 3,
            Kernel::Stream(_) => 4,
        }
    }

    fn apply1(self, ctx: &mut SveCtx, pg: &Pred, x: &VVal) -> VVal {
        match self {
            Kernel::Exp(ExpVariant::FexpaHorner) => {
                ookami_vecmath::exp_fexpa(ctx, pg, x, PolyForm::Horner, false)
            }
            Kernel::Exp(ExpVariant::FexpaEstrin) => {
                ookami_vecmath::exp_fexpa(ctx, pg, x, PolyForm::Estrin, false)
            }
            Kernel::Exp(ExpVariant::FexpaEstrinCorrected) => {
                ookami_vecmath::exp_fexpa(ctx, pg, x, PolyForm::Estrin, true)
            }
            Kernel::Exp(ExpVariant::Poly13) => {
                ookami_vecmath::exp_poly13(ctx, pg, x, Poly13Style::Plain)
            }
            Kernel::Exp(ExpVariant::Poly13Sleef) => {
                ookami_vecmath::exp_poly13(ctx, pg, x, Poly13Style::Sleef)
            }
            Kernel::Sin => ookami_vecmath::sin::sin(ctx, pg, x),
            Kernel::Cos => ookami_vecmath::cos::cos(ctx, pg, x),
            Kernel::Log(d) => ookami_vecmath::log::log(ctx, pg, x, d),
            Kernel::Sqrt(s) => ookami_vecmath::sqrt::sqrt(ctx, pg, x, s),
            Kernel::Recip(r) => ookami_vecmath::recip::recip(ctx, pg, x, r),
            // The bodies `ookami_spmv::stream_trace` records.
            Kernel::Stream(StreamKernel::Copy) => ctx.orr_u(pg, x, x),
            Kernel::Stream(StreamKernel::Scale) => {
                let s = ctx.dup_f64(STREAM_SCALAR);
                ctx.fmul(pg, x, &s)
            }
            Kernel::Pow | Kernel::Stream(_) => unreachable!("two-input kernel"),
        }
    }

    fn apply2(self, ctx: &mut SveCtx, pg: &Pred, x: &VVal, y: &VVal) -> VVal {
        match self {
            Kernel::Pow => ookami_vecmath::pow::pow(ctx, pg, x, y, PowStyle::SleefDd),
            Kernel::Stream(StreamKernel::Add) => ctx.fadd(pg, x, y),
            Kernel::Stream(StreamKernel::Triad) => {
                let s = ctx.dup_f64(STREAM_SCALAR);
                ctx.fmla(pg, x, &s, y)
            }
            _ => unreachable!("one-input kernel"),
        }
    }

    fn record(self) -> Trace {
        if self.two_inputs() {
            Trace::record2(VL, |c, p, x, y| self.apply2(c, p, x, y))
        } else {
            Trace::record1(VL, |c, p, x| self.apply1(c, p, x))
        }
    }

    /// The per-op interpreter over the whole input.
    fn interp(self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        if self.two_inputs() {
            interp2(xs, ys, |c, p, x, y| self.apply2(c, p, x, y))
        } else {
            ookami_vecmath::map_f64(VL, xs, |c, p, x| self.apply1(c, p, x))
        }
    }

    /// The fused scalar host reference (timing baseline only: the checks
    /// compare against the interpreter).
    fn host(self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        match self {
            Kernel::Exp(_) => xs.iter().map(|x| x.exp()).collect(),
            Kernel::Sin => xs.iter().map(|x| x.sin()).collect(),
            Kernel::Cos => xs.iter().map(|x| x.cos()).collect(),
            Kernel::Log(_) => xs.iter().map(|x| x.ln()).collect(),
            Kernel::Sqrt(_) => xs.iter().map(|x| x.sqrt()).collect(),
            Kernel::Recip(_) => xs.iter().map(|x| 1.0 / x).collect(),
            Kernel::Pow => xs.iter().zip(ys).map(|(x, y)| x.powf(*y)).collect(),
            Kernel::Stream(k) => ookami_spmv::stream_ref(k, xs, k.inputs().eq(&2).then_some(ys)),
        }
    }
}

/// [`ookami_vecmath::map_f64`] for two-input kernels: block by block
/// through a fresh interpreter context, zero-padded tails.
fn interp2(
    xs: &[f64],
    ys: &[f64],
    f: impl Fn(&mut SveCtx, &Pred, &VVal, &VVal) -> VVal,
) -> Vec<f64> {
    let mut ctx = SveCtx::new(VL);
    let mut out = Vec::with_capacity(xs.len());
    let mut i = 0;
    while i < xs.len() {
        let pg = ctx.whilelt(i, xs.len());
        let n = VL.min(xs.len() - i);
        let (mut a, mut b) = (vec![0.0; VL], vec![0.0; VL]);
        a[..n].copy_from_slice(&xs[i..i + n]);
        b[..n].copy_from_slice(&ys[i..i + n]);
        let x = ctx.input_f64(&a);
        let y = ctx.input_f64(&b);
        let z = f(&mut ctx, &pg, &x, &y);
        out.extend((0..n).map(|l| z.f64_lane(l)));
        i += VL;
    }
    out
}

/// A closed range of input values.
type Range = (f64, f64);

/// Per domain: the `x` range and, for two-input kernels, the `y` range.
const DOMAINS: [(Range, Option<Range>); 5] = [
    ((-20.0, 20.0), None),
    ((-50.0, 50.0), None),
    ((1e-3, 1e3), None),
    ((0.5, 4.0), Some((-8.0, 8.0))),
    ((-1.0, 1.0), Some((-1.0, 1.0))),
];

/// Length strata per kernel and mode in one cycle of the op sequence.
const STRATA: usize = 4;
/// One cycle: every kernel, serial and parallel, in every length stratum.
const CYCLE: usize = KERNELS.len() * 2 * STRATA;

pub(crate) struct Dense {
    seed: u64,
    /// log2 of the shortest and longest input.
    log_len: (f64, f64),
    /// Per domain: base `x` and `y` arrays (`y` empty for one input).
    xs: Vec<Vec<f64>>,
    ys: Vec<Vec<f64>>,
    /// Per kernel: the interpreter's output over the base arrays.
    refs: Vec<Vec<f64>>,
    /// Per kernel: whether its trace compiles to a native plan.
    native: Vec<bool>,
}

/// What operation `i` runs.
struct Op {
    kernel: usize,
    par: bool,
    off: usize,
    len: usize,
}

impl Dense {
    fn op(&self, i: usize) -> Op {
        // A seeded permutation of the cycle's slots, so every cycle runs
        // every (kernel, mode, stratum) once in its own order.
        let mut slots: Vec<usize> = (0..CYCLE).collect();
        let mut r = Rng::new(self.seed, 0x1000_0000 + (i / CYCLE) as u64);
        for k in (1..CYCLE).rev() {
            slots.swap(k, r.below(k + 1));
        }
        let slot = slots[i % CYCLE];
        let (kernel, rest) = (slot % KERNELS.len(), slot / KERNELS.len());
        let (par, stratum) = (rest % 2 == 1, rest / 2);
        // The length's place in its stratum walks a golden-ratio sequence
        // from a seeded start, so every seed spreads the same work over
        // its cycles rather than drawing it at random.
        let start = Rng::new(self.seed, 0x2000_0000 + slot as u64).unit();
        let u = (start + (i / CYCLE) as f64 * 0.618_033_988_749_895).fract();
        let (lo, hi) = self.log_len;
        let lg = lo + (hi - lo) * (stratum as f64 + u) / STRATA as f64;
        let mut r = Rng::new(self.seed, 0x3000_0000 + i as u64);
        let base = self.xs[0].len();
        let len = (lg.exp2() as usize).clamp(1, base);
        let off = r.below(base - len + 1);
        Op {
            kernel,
            par,
            off,
            len,
        }
    }

    /// The input window `[off, off + len)` of `kern`; `y` is empty for
    /// one-input kernels.
    fn window(&self, kern: Kernel, off: usize, len: usize) -> (&[f64], &[f64]) {
        let d = kern.domain();
        let ys = &self.ys[d];
        let y = if ys.is_empty() {
            ys
        } else {
            &ys[off..off + len]
        };
        (&self.xs[d][off..off + len], y)
    }

    fn inputs(&self, op: &Op) -> (&[f64], &[f64]) {
        self.window(KERNELS[op.kernel], op.off, op.len)
    }
}

fn call(ct: &CompiledTrace, two: bool, par: bool, x: &[f64], y: &[f64]) -> Vec<f64> {
    match (two, par) {
        (false, false) => ct.map(x),
        (false, true) => ct.par_map(THREADS, x),
        (true, false) => ct.map2(x, y),
        (true, true) => ct.par_map2(THREADS, x, y),
    }
}

fn blocks(n: usize) -> f64 {
    n.div_ceil(VL) as f64
}

impl Workload for Dense {
    type Out = Vec<f64>;

    fn setup(seed: u64, smoke: bool, _tr: &mut Tracer) -> Dense {
        let log_len: (f64, f64) = if smoke { (8.0, 12.0) } else { (11.0, 20.0) };
        let n = log_len.1.exp2() as usize;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (d, &((xlo, xhi), y)) in DOMAINS.iter().enumerate() {
            let mut r = Rng::new(seed, d as u64);
            xs.push((0..n).map(|_| r.range(xlo, xhi)).collect());
            ys.push(y.map_or_else(Vec::new, |(lo, hi)| {
                (0..n).map(|_| r.range(lo, hi)).collect()
            }));
        }
        Dense {
            seed,
            log_len,
            xs,
            ys,
            refs: Vec::new(),
            native: Vec::new(),
        }
    }

    fn prepare(&mut self) {
        // Kernels are independent: split them over the two cores.
        let (xs, ys) = (&self.xs, &self.ys);
        let interp = |k: usize| {
            let d = KERNELS[k].domain();
            KERNELS[k].interp(&xs[d], &ys[d])
        };
        self.refs = std::thread::scope(|s| {
            let half = KERNELS.len() / 2;
            let other = s.spawn(move || (half..KERNELS.len()).map(interp).collect::<Vec<_>>());
            let mut refs: Vec<Vec<f64>> = (0..half).map(interp).collect();
            refs.extend(other.join().expect("reference thread panicked"));
            refs
        });
        self.native = KERNELS
            .iter()
            .map(|k| k.record().compile().is_native())
            .collect();
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Vec<f64> {
        let op = self.op(i);
        let kern = KERNELS[op.kernel];
        let (x, y) = self.inputs(&op);
        let trace = tr.span("sve.record", || kern.record());
        tr.count("sve.record.ops", trace.body_len() as f64);
        let ct = tr.span("sve.compile", || trace.compile());
        if tr.is_on() {
            let rep = ct.report();
            tr.count("sve.compile.native", f64::from(u8::from(rep.native)));
            tr.count("sve.compile.body_ops", rep.body_ops as f64);
            tr.count("sve.compile.opt_ops", rep.opt_ops as f64);
        }
        let (layer, instrs) = if ct.is_native() {
            ("sve.compiled", "sve.compiled.instrs")
        } else {
            ("sve.replay", "sve.replay.instrs")
        };
        let out = tr.span(layer, || call(&ct, kern.two_inputs(), op.par, x, y));
        tr.count(instrs, trace.body_len() as f64 * blocks(op.len));
        if op.par {
            tr.count("core.pool.calls", 1.0);
            tr.count("core.pool.busy_ns", tr.last_ns() as f64);
        }
        out
    }

    fn check(&self, i: usize, out: &Vec<f64>) -> bool {
        let op = self.op(i);
        bits_eq(out, &self.refs[op.kernel][op.off..op.off + op.len])
    }

    fn flip(out: &mut Vec<f64>) {
        flip_f64(out);
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn parallel(&self, i: usize) -> bool {
        self.op(i).par
    }

    fn traced_ops(&self) -> usize {
        CYCLE
    }

    fn after_traced_op(&mut self, i: usize, _out: &Vec<f64>, tr: &mut Tracer) {
        let op = self.op(i);
        let kern = KERNELS[op.kernel];
        let (x, y) = self.inputs(&op);
        tr.span("host.ref", || kern.host(x, y));
        let host_ns = tr.last_ns() as f64;
        tr.count("host.ref.elems", op.len as f64);
        let key = if self.native[op.kernel] {
            "sve.compiled.host_ns"
        } else {
            "sve.replay.host_ns"
        };
        tr.count(key, host_ns);
    }

    fn executor_rows(&self) -> Vec<ExecRow> {
        let cap = 1usize << 12;
        let full = self.xs[0].len().min(1 << 16);
        KERNELS
            .iter()
            .map(|&kern| {
                let trace = kern.record();
                let ct = trace.compile();
                let two = kern.two_inputs();
                let body = trace.body_len() as f64;
                let inputs = |n: usize| self.window(kern, 0, n);
                let cell = |n: usize, ns: f64| {
                    let (x, y) = inputs(n);
                    ExecCell {
                        instrs: body * blocks(n),
                        ns,
                        elems: n as f64,
                        host_ns: 1e9 * median_time(5, || kern.host(x, y)),
                    }
                };
                let (xc, yc) = inputs(cap);
                let interp = cell(cap, 1e9 * median_time(3, || kern.interp(xc, yc)));
                let (x, y) = inputs(full);
                let replay_ns = median_time(3, || {
                    if two {
                        trace.replay_map2(x, y)
                    } else {
                        trace.replay_map(x)
                    }
                });
                let replay = cell(full, 1e9 * replay_ns);
                let compiled = ct
                    .is_native()
                    .then(|| cell(full, 1e9 * median_time(5, || call(&ct, two, false, x, y))));
                ExecRow {
                    family: kern.name(),
                    interp,
                    replay,
                    compiled,
                }
            })
            .collect()
    }

    fn scaling_rows(&self) -> Vec<ScaleRow> {
        let n = self.xs[0].len().min(1 << 18);
        [
            Kernel::Exp(ExpVariant::FexpaEstrin),
            Kernel::Pow,
            Kernel::Stream(StreamKernel::Triad),
        ]
        .into_iter()
        .map(|kern| {
            let ct = kern.record().compile();
            let two = kern.two_inputs();
            let (x, y) = self.window(kern, 0, n);
            let at = |threads: usize| {
                median_time(5, || match two {
                    false => ct.par_map(threads, x),
                    true => ct.par_map2(threads, x, y),
                })
            };
            let api = if two { "par_map2" } else { "par_map" };
            ScaleRow {
                path: format!("Trace::{api} {} n={n}", kern.name()),
                layer: None,
                own: true,
                t1_s: at(1),
                t2_s: at(THREADS),
            }
        })
        .collect()
    }
}
