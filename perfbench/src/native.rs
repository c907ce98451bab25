//! `native`: each operation runs the native ports at [`THREADS`] threads —
//! NPB EP, CG, BT, SP, LU and UA at class S with short step counts, the
//! LULESH Sedov blast, and HPCC DGEMM, batched FFT and HPL. The pool runs
//! many short regions and barriers here, where the emulator workloads
//! enter it once per call.
//!
//! Checks: the official NPB verification values for EP.S and CG.S, UA
//! heat conservation, the HPL scaled residual, the FFT round trip, and
//! for every family bit-identity with a reference run made before timing.
//! Sizes keep every family near or below a third of the operation; EP.S,
//! fixed by its official sums, is the largest.

use crate::tracer::Tracer;
use crate::{median, Rng, ScaleRow, Workload, THREADS};
use ookami_hpcc::dgemm::{dgemm_parallel, gemm_flops};
use ookami_hpcc::fft::Fft;
use ookami_hpcc::hpl::lu_factor_threads;
use ookami_lulesh::Hydro;
use ookami_npb::{bt::Bt, cg, ep, lu::Lu, sp::Sp, ua::Ua, Class};

type C64 = (f64, f64);

/// Step counts and sizes of one operation.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    bt: usize,
    sp: usize,
    lu: usize,
    ua: usize,
    lulesh_n: usize,
    lulesh_cycles: usize,
    dgemm_n: usize,
    fft_log_n: u32,
    fft_batch: usize,
    hpl_n: usize,
}

const FULL: Sizes = Sizes {
    bt: 40,
    sp: 100,
    lu: 50,
    ua: 50,
    lulesh_n: 16,
    lulesh_cycles: 60,
    dgemm_n: 512,
    fft_log_n: 13,
    fft_batch: 128,
    hpl_n: 768,
};

const SMOKE: Sizes = Sizes {
    bt: 2,
    sp: 2,
    lu: 2,
    ua: 5,
    lulesh_n: 6,
    lulesh_cycles: 4,
    dgemm_n: 64,
    fft_log_n: 8,
    fft_batch: 4,
    hpl_n: 96,
};

const HPL_NB: usize = 32;

/// Every family's result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Results {
    ep: (f64, f64),
    cg_zeta: f64,
    bt: f64,
    sp: f64,
    lu: f64,
    /// Total heat, heat injected, elements.
    ua: (f64, f64, usize),
    lulesh_energy: f64,
    dgemm: Vec<f64>,
    fft: Vec<Vec<C64>>,
    /// The factored HPL matrix and its pivots.
    hpl: (Vec<f64>, Vec<usize>),
}

pub(crate) struct Native {
    sizes: Sizes,
    a: Vec<f64>,
    b: Vec<f64>,
    fft: Fft,
    signals: Vec<Vec<C64>>,
    hpl_a: Vec<f64>,
    hpl_b: Vec<f64>,
    reference: Option<Results>,
}

impl Native {
    /// One pass over every family at `threads` threads, each call in its
    /// own span.
    fn families(&self, threads: usize, tr: &mut Tracer) -> Results {
        let start = std::time::Instant::now();
        let s = self.sizes;
        let ep = tr.span("npb.ep", || ep::run(Class::S, threads));
        let cg = tr.span("npb.cg", || cg::run(Class::S, threads));
        let bt = tr.span("npb.bt", || Bt::new(Class::S).run(s.bt, threads));
        let sp = tr.span("npb.sp", || Sp::new(Class::S).run(s.sp, threads));
        let lu = tr.span("npb.lu", || Lu::new(Class::S).run(s.lu, threads));
        let ua = tr.span("npb.ua", || {
            let mut ua = Ua::new(Class::S);
            ua.run(s.ua, threads);
            (ua.total_heat(), ua.injected, ua.num_elements())
        });
        let lulesh_energy = tr.span("lulesh", || {
            let mut h = Hydro::sedov(s.lulesh_n, 1.0);
            h.run_mt(f64::INFINITY, s.lulesh_cycles, threads);
            h.total_energy()
        });
        let n = s.dgemm_n;
        let dgemm = tr.span("hpcc.dgemm", || {
            let mut c = vec![0.0; n * n];
            dgemm_parallel(threads, n, n, n, 1.0, &self.a, &self.b, 0.0, &mut c);
            c
        });
        tr.count("hpcc.dgemm.flops", gemm_flops(n, n, n));
        let fft = tr.span("hpcc.fft", || {
            self.fft.forward_batch(&self.signals, threads)
        });
        tr.count(
            "hpcc.fft.flops",
            self.fft.flops() * self.signals.len() as f64,
        );
        let hn = s.hpl_n;
        let hpl = tr.span("hpcc.hpl", || {
            let mut a = self.hpl_a.clone();
            let piv = lu_factor_threads(&mut a, hn, HPL_NB, threads);
            (a, piv)
        });
        tr.count("hpcc.hpl.flops", 2.0 * (hn as f64).powi(3) / 3.0);
        if threads > 1 {
            tr.count("core.pool.calls", 10.0);
            tr.count("core.pool.busy_ns", start.elapsed().as_nanos() as f64);
        }
        Results {
            ep: (ep.sx, ep.sy),
            cg_zeta: cg.zeta,
            bt,
            sp,
            lu,
            ua,
            lulesh_energy,
            dgemm,
            fft,
            hpl,
        }
    }

    /// HPL's scaled residual `‖Ax − b‖∞ / (ε·(‖A‖∞·‖x‖∞ + ‖b‖∞)·n)` of the
    /// solve through a factored matrix; HPL passes below 16.
    fn hpl_residual(&self, (lu, piv): &(Vec<f64>, Vec<usize>)) -> f64 {
        let n = self.sizes.hpl_n;
        let (a, b) = (&self.hpl_a, &self.hpl_b);
        let mut x: Vec<f64> = piv.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            for j in 0..i {
                x[i] -= lu[i * n + j] * x[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                x[i] -= lu[i * n + j] * x[j];
            }
            x[i] /= lu[i * n + i];
        }
        let (mut rmax, mut anorm, mut bnorm, mut xnorm) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..n {
            let row = &a[i * n..(i + 1) * n];
            let ax: f64 = row.iter().zip(&x).map(|(a, x)| a * x).sum();
            rmax = rmax.max((ax - b[i]).abs());
            anorm = anorm.max(row.iter().map(|v| v.abs()).sum());
            bnorm = bnorm.max(b[i].abs());
            xnorm = xnorm.max(x[i].abs());
        }
        rmax / (f64::EPSILON * (anorm * xnorm + bnorm) * n as f64)
    }

    fn fft_round_trip_ok(&self, fft: &[Vec<C64>]) -> bool {
        fft.len() == self.signals.len()
            && fft.iter().zip(&self.signals).all(|(y, x)| {
                let back = self.fft.inverse(y);
                back.len() == x.len()
                    && back
                        .iter()
                        .zip(x)
                        .all(|(a, b)| (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9)
            })
    }
}

impl Workload for Native {
    type Out = Results;

    fn setup(seed: u64, smoke: bool, _tr: &mut Tracer) -> Native {
        let sizes = if smoke { SMOKE } else { FULL };
        let mut r = Rng::new(seed, 0x6000);
        let n = sizes.dgemm_n;
        let a = (0..n * n).map(|_| r.range(-0.5, 0.5)).collect();
        let b = (0..n * n).map(|_| r.range(-0.5, 0.5)).collect();
        let fft_n = 1usize << sizes.fft_log_n;
        let signals = (0..sizes.fft_batch)
            .map(|_| {
                (0..fft_n)
                    .map(|_| (r.range(-1.0, 1.0), r.range(-1.0, 1.0)))
                    .collect()
            })
            .collect();
        let hn = sizes.hpl_n;
        let mut hpl_a: Vec<f64> = (0..hn * hn).map(|_| r.range(-0.5, 0.5)).collect();
        for i in 0..hn {
            hpl_a[i * hn + i] += hn as f64 / 8.0;
        }
        let hpl_b = (0..hn).map(|_| r.range(-1.0, 1.0)).collect();
        Native {
            sizes,
            a,
            b,
            fft: Fft::new(fft_n),
            signals,
            hpl_a,
            hpl_b,
            reference: None,
        }
    }

    fn prepare(&mut self) {
        self.reference = Some(self.families(THREADS, &mut Tracer::new()));
    }

    fn run(&mut self, _i: usize, tr: &mut Tracer) -> Results {
        self.families(THREADS, tr)
    }

    fn check(&self, _i: usize, out: &Results) -> bool {
        let want = self.reference.as_ref().expect("prepare runs first");
        let (sx, sy) = ep::reference_sums(Class::S).expect("EP.S has official sums");
        let zeta = cg::reference_zeta(Class::S).expect("CG.S has an official zeta");
        let (heat, injected, _) = out.ua;
        ((out.ep.0 - sx) / sx).abs() < 1e-8
            && ((out.ep.1 - sy) / sy).abs() < 1e-8
            && (out.cg_zeta - zeta).abs() < 1e-9
            && (heat - injected).abs() < 1e-10 * injected.max(1.0)
            && (out.lulesh_energy - 1.0).abs() < 0.05
            && self.hpl_residual(&out.hpl) < 16.0
            && self.fft_round_trip_ok(&out.fft)
            && bit_identical(out, want)
    }

    fn flip(out: &mut Results) {
        out.bt = f64::from_bits(out.bt.to_bits() ^ 1);
    }

    fn cycle(&self) -> usize {
        1
    }

    fn parallel(&self, _i: usize) -> bool {
        true
    }

    fn traced_ops(&self) -> usize {
        2
    }

    fn scaling_rows(&self) -> Vec<ScaleRow> {
        let families: [(&str, &'static str); 10] = [
            ("EP.S", "npb.ep"),
            ("CG.S", "npb.cg"),
            ("BT.S", "npb.bt"),
            ("SP.S", "npb.sp"),
            ("LU.S", "npb.lu"),
            ("UA.S", "npb.ua"),
            ("LULESH Sedov", "lulesh"),
            ("HPCC dgemm_parallel", "hpcc.dgemm"),
            ("HPCC Fft::forward_batch", "hpcc.fft"),
            ("HPCC HPL lu_factor_threads", "hpcc.hpl"),
        ];
        // Time each family's span at one and at THREADS threads.
        let mut t = [[0.0f64; 2]; 10];
        for (k, threads) in [1, THREADS].into_iter().enumerate() {
            let mut reps: Vec<[f64; 10]> = Vec::new();
            for _ in 0..3 {
                let mut tr = Tracer::new();
                tr.set_on(true);
                self.families(threads, &mut tr);
                reps.push(std::array::from_fn(|f| tr.busy(families[f].1).0 / 1e9));
            }
            for f in 0..10 {
                t[f][k] = median(&reps.iter().map(|r| r[f]).collect::<Vec<_>>());
            }
        }
        families
            .iter()
            .zip(t)
            .map(|(&(path, layer), [t1, t2])| ScaleRow {
                path: path.to_string(),
                layer: Some(layer),
                own: true,
                t1_s: t1,
                t2_s: t2,
            })
            .collect()
    }
}

/// Bit-identity of every family's result with the reference run.
fn bit_identical(a: &Results, b: &Results) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
    same(a.ep.0, b.ep.0)
        && same(a.ep.1, b.ep.1)
        && same(a.cg_zeta, b.cg_zeta)
        && same(a.bt, b.bt)
        && same(a.sp, b.sp)
        && same(a.lu, b.lu)
        && same(a.ua.0, b.ua.0)
        && a.ua.2 == b.ua.2
        && same(a.lulesh_energy, b.lulesh_energy)
        && crate::bits_eq(&a.dgemm, &b.dgemm)
        && a.fft.len() == b.fft.len()
        && a.fft.iter().zip(&b.fft).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| same(p.0, q.0) && same(p.1, q.1))
        })
        && crate::bits_eq(&a.hpl.0, &b.hpl.0)
        && a.hpl.1 == b.hpl.1
}
