//! `emu_irregular`: SpMV in CRS and SELL-C-σ over a seeded set of sparse
//! matrices, and the 2-D/3-D lattice stencil through `Trace::map`. Traces
//! are recorded once in set-up, as the `spmv` probe does; gathers and
//! carried accumulators send every step to the replayer. Half the
//! operations run serial, half the parallel replays at [`THREADS`]
//! threads.
//!
//! The matrix set spans `x` vectors from L1-resident (32 KiB) to twice the
//! 512 KiB ECM fixture. Each slot has a fixed shape and work size; the
//! seed draws the sparsity pattern, the values and `x`, so every seed
//! carries the same load.

use crate::tracer::Tracer;
use crate::{bits_eq, flip_f64, median_time, ExecCell, ExecRow, Rng, ScaleRow, Workload};
use crate::{THREADS, VL};
use ookami_spmv::{
    crs_trace, run_crs_interp, run_crs_replay, run_crs_replay_par, run_sell_interp,
    run_sell_replay, run_sell_replay_par, sell_trace, Crs, GatherHints, SellCSigma, Stencil,
};
use ookami_sve::Trace;

fn hints() -> GatherHints {
    GatherHints::uniform(VL as u32)
}

/// One matrix of the set, with its recorded traces.
struct Matrix {
    name: String,
    crs: Crs,
    sell: SellCSigma,
    x: Vec<f64>,
    crs_trace: Trace,
    sell_trace: Trace,
}

struct Lattice {
    name: &'static str,
    st: Stencil,
    u: Vec<f64>,
    sites: Vec<f64>,
    trace: Trace,
}

/// Which kernel an operation runs.
#[derive(Clone, Copy)]
enum Kind {
    Crs(usize),
    Sell(usize),
    Stencil(usize),
}

pub(crate) struct Irregular {
    seed: u64,
    mats: Vec<Matrix>,
    lattices: Vec<Lattice>,
    /// Every (kind, parallel) pair of one cycle.
    kinds: Vec<(Kind, bool)>,
    /// Reference output per matrix (CRS and SELL share it) and lattice.
    mat_refs: Vec<Vec<f64>>,
    lat_refs: Vec<Vec<f64>>,
}

/// `(rows, log2 of x length, entries per row)` per matrix slot, and the
/// generator used for it: 0 fixed-count random, 1 ragged random, 2 banded.
const MATRIX_SLOTS: [(usize, u32, usize, u8); 6] = [
    (8192, 12, 8, 0),
    (8192, 13, 9, 2),
    (8192, 14, 16, 1),
    (6144, 15, 10, 0),
    (4096, 16, 12, 0),
    (4096, 17, 24, 1),
];

fn build_matrix(seed: u64, slot: usize, shrink: usize, tr: &mut Tracer) -> Matrix {
    let (rows, log_cols, per_row, gen) = MATRIX_SLOTS[slot];
    let rows = rows / shrink;
    let cols = (1usize << log_cols) / shrink;
    let mseed = Rng::new(seed, 0x3000 + slot as u64).next_u64();
    let crs = tr.span("spmv.fixture", || match gen {
        0 => Crs::random_fixed(rows, cols, per_row, mseed),
        1 => Crs::ragged(rows, cols, per_row, mseed),
        // Banded is square; its bandwidth gives the entries per row.
        _ => Crs::banded(cols, per_row / 2),
    });
    let sell = tr.span("spmv.fixture", || {
        SellCSigma::from_crs(&crs, VL, crs.n_rows)
    });
    let mut r = Rng::new(seed, 0x4000 + slot as u64);
    let x: Vec<f64> = (0..crs.n_cols).map(|_| r.range(-1.0, 1.0)).collect();
    let crs_trace = tr.span("sve.record", || crs_trace(&crs, &x, VL, hints()));
    let sell_trace = tr.span("sve.record", || sell_trace(&sell, &x, hints()));
    tr.count(
        "sve.record.ops",
        (crs_trace.body_len() + sell_trace.body_len()) as f64,
    );
    Matrix {
        name: format!("{}x{}", crs.n_rows, crs.n_cols),
        crs,
        sell,
        x,
        crs_trace,
        sell_trace,
    }
}

fn build_lattice(seed: u64, d3: bool, smoke: bool, tr: &mut Tracer) -> Lattice {
    let (st, name) = match (d3, smoke) {
        (false, false) => (Stencil::d2(256, 256, 0.5, -0.125), "stencil4"),
        (false, true) => (Stencil::d2(32, 32, 0.5, -0.125), "stencil4"),
        (true, false) => (Stencil::d3(64, 32, 32, 0.5, -0.125), "stencil7"),
        (true, true) => (Stencil::d3(16, 8, 8, 0.5, -0.125), "stencil7"),
    };
    let mut r = Rng::new(seed, 0x5000 + u64::from(d3));
    let u: Vec<f64> = (0..st.n).map(|_| r.range(0.0, 2.0)).collect();
    let sites = st.sites_f64();
    let trace = tr.span("sve.record", || st.trace(&u, VL, VL as u32));
    tr.count("sve.record.ops", trace.body_len() as f64);
    // `Trace::map` builds its engine on first use; do it here, so the
    // first operation does not pay for it.
    tr.span("sve.compile", || trace.map(&sites[..VL]));
    Lattice {
        name,
        st,
        u,
        sites,
        trace,
    }
}

/// Replay steps of a CRS SpMV: each `VL`-row block runs to its longest row.
fn crs_steps(m: &Crs) -> f64 {
    (m.block_padded_nnz(VL) / VL) as f64
}

fn sell_steps(s: &SellCSigma) -> f64 {
    (s.padded_nnz() / s.c) as f64
}

impl Irregular {
    fn kind(&self, i: usize) -> (Kind, bool) {
        let n = self.kinds.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut r = Rng::new(self.seed, 0x1000_0000 + (i / n) as u64);
        for k in (1..n).rev() {
            order.swap(k, r.below(k + 1));
        }
        self.kinds[order[i % n]]
    }

    fn reference(&self, kind: Kind) -> &[f64] {
        match kind {
            Kind::Crs(m) | Kind::Sell(m) => &self.mat_refs[m],
            Kind::Stencil(l) => &self.lat_refs[l],
        }
    }
}

impl Workload for Irregular {
    type Out = Vec<f64>;

    fn setup(seed: u64, smoke: bool, tr: &mut Tracer) -> Irregular {
        let shrink = if smoke { 16 } else { 1 };
        let mats: Vec<Matrix> = (0..MATRIX_SLOTS.len())
            .map(|s| build_matrix(seed, s, shrink, tr))
            .collect();
        let lattices = vec![
            build_lattice(seed, false, smoke, tr),
            build_lattice(seed, true, smoke, tr),
        ];
        let mut kinds = Vec::new();
        for par in [false, true] {
            for m in 0..mats.len() {
                kinds.push((Kind::Crs(m), par));
                kinds.push((Kind::Sell(m), par));
            }
            for l in 0..lattices.len() {
                kinds.push((Kind::Stencil(l), par));
            }
        }
        Irregular {
            seed,
            mats,
            lattices,
            kinds,
            mat_refs: Vec::new(),
            lat_refs: Vec::new(),
        }
    }

    fn prepare(&mut self) {
        self.mat_refs = self.mats.iter().map(|m| m.crs.spmv_ref(&m.x)).collect();
        self.lat_refs = self.lattices.iter().map(|l| l.st.apply_ref(&l.u)).collect();
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Vec<f64> {
        let (kind, par) = self.kind(i);
        let (out, instrs) = match kind {
            Kind::Crs(k) => {
                let m = &self.mats[k];
                let y = tr.span("sve.replay", || match par {
                    false => run_crs_replay(&m.crs_trace, &m.crs),
                    true => run_crs_replay_par(THREADS, &m.crs_trace, &m.crs),
                });
                (y, m.crs_trace.body_len() as f64 * crs_steps(&m.crs))
            }
            Kind::Sell(k) => {
                let m = &self.mats[k];
                let y = tr.span("sve.replay", || match par {
                    false => run_sell_replay(&m.sell_trace, &m.sell),
                    true => run_sell_replay_par(THREADS, &m.sell_trace, &m.sell),
                });
                (y, m.sell_trace.body_len() as f64 * sell_steps(&m.sell))
            }
            Kind::Stencil(k) => {
                let l = &self.lattices[k];
                let y = tr.span("sve.replay", || match par {
                    false => l.trace.map(&l.sites),
                    true => l.trace.par_map(THREADS, &l.sites),
                });
                (y, (l.trace.body_len() * l.st.n.div_ceil(VL)) as f64)
            }
        };
        tr.count("sve.replay.instrs", instrs);
        if par {
            tr.count("core.pool.calls", 1.0);
            tr.count("core.pool.busy_ns", tr.last_ns() as f64);
        }
        out
    }

    fn check(&self, i: usize, out: &Vec<f64>) -> bool {
        bits_eq(out, self.reference(self.kind(i).0))
    }

    fn flip(out: &mut Vec<f64>) {
        flip_f64(out);
    }

    fn cycle(&self) -> usize {
        self.kinds.len()
    }

    fn parallel(&self, i: usize) -> bool {
        self.kind(i).1
    }

    fn traced_ops(&self) -> usize {
        2 * self.kinds.len()
    }

    fn after_traced_op(&mut self, i: usize, _out: &Vec<f64>, tr: &mut Tracer) {
        let elems = match self.kind(i).0 {
            Kind::Crs(k) | Kind::Sell(k) => {
                let m = &self.mats[k];
                tr.span("host.ref", || m.crs.spmv_ref(&m.x));
                m.crs.nnz()
            }
            Kind::Stencil(k) => {
                let l = &self.lattices[k];
                tr.span("host.ref", || l.st.apply_ref(&l.u));
                l.st.n
            }
        };
        tr.count("sve.replay.host_ns", tr.last_ns() as f64);
        tr.count("host.ref.elems", elems as f64);
    }

    fn executor_rows(&self) -> Vec<ExecRow> {
        // The interpreter runs the smallest fixture of each family.
        let m = &self.mats[0];
        let host_m = 1e9 * median_time(5, || m.crs.spmv_ref(&m.x));
        let mut rows = Vec::new();
        for sell in [false, true] {
            let (trace, steps) = if sell {
                (&m.sell_trace, sell_steps(&m.sell))
            } else {
                (&m.crs_trace, crs_steps(&m.crs))
            };
            let instrs = trace.body_len() as f64 * steps;
            let cell = |ns: f64| ExecCell {
                instrs,
                ns,
                elems: m.crs.nnz() as f64,
                host_ns: host_m,
            };
            let interp = median_time(3, || match sell {
                false => run_crs_interp(&m.crs, &m.x, VL, hints()),
                true => run_sell_interp(&m.sell, &m.x, hints()),
            });
            let replay = median_time(5, || match sell {
                false => run_crs_replay(trace, &m.crs),
                true => run_sell_replay(trace, &m.sell),
            });
            rows.push(ExecRow {
                family: format!("spmv_{} {}", if sell { "sell" } else { "crs" }, m.name),
                interp: cell(1e9 * interp),
                replay: cell(1e9 * replay),
                compiled: None,
            });
        }
        for l in &self.lattices {
            let host = 1e9 * median_time(5, || l.st.apply_ref(&l.u));
            let cell = |ns: f64| ExecCell {
                instrs: (l.trace.body_len() * l.st.n.div_ceil(VL)) as f64,
                ns,
                elems: l.st.n as f64,
                host_ns: host,
            };
            rows.push(ExecRow {
                family: format!("{} n={}", l.name, l.st.n),
                interp: cell(1e9 * median_time(3, || l.st.apply_interp(&l.u, VL, VL as u32))),
                replay: cell(1e9 * median_time(5, || l.trace.replay_map(&l.sites))),
                compiled: None,
            });
        }
        rows
    }

    fn scaling_rows(&self) -> Vec<ScaleRow> {
        let m = self.mats.last().expect("matrix set is not empty");
        let l = &self.lattices[0];
        let row = |path: String, f: &dyn Fn(usize)| ScaleRow {
            path,
            layer: None,
            own: true,
            t1_s: median_time(5, || f(1)),
            t2_s: median_time(5, || f(THREADS)),
        };
        vec![
            row(format!("run_crs_replay_par {}", m.name), &|t| {
                run_crs_replay_par(t, &m.crs_trace, &m.crs);
            }),
            row(format!("run_sell_replay_par {}", m.name), &|t| {
                run_sell_replay_par(t, &m.sell_trace, &m.sell);
            }),
            row(format!("Trace::par_map {} n={}", l.name, l.st.n), &|t| {
                l.trace.par_map(t, &l.sites);
            }),
        ]
    }
}
