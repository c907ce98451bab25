//! `model`: each operation regenerates the paper's artifacts — every
//! figure, every table, and the A64FX ECM table of the irregular-memory
//! families. The seed does not change the inputs: these are pure functions
//! of the machine and toolchain models.
//!
//! Checks: the ECM table and the Fig. 8/9 renderings equal the
//! repository's golden snapshots, the rest equals the reference
//! regeneration made before timing, and the CRS row stays bandwidth-bound.

use crate::tracer::{Tracer, PARTS};
use crate::{median_time, ScaleRow, Workload, THREADS};
use ookami_bench::ecm::{
    ecm_families, ecm_hints, ecm_spmv_fixture, ecm_stencil4, ecm_stencil7, ecm_table_rows,
    ECM_STREAM_N,
};
use ookami_core::obs::derive::{ecm, render_ecm_table, EcmInput};
use ookami_mem::ShardedCacheSim;
use ookami_spmv::{memtrace, SellCSigma, StreamKernel};
use ookami_sve::Trace;
use ookami_uarch::{analyze_cached, KernelLoop, Machine};

const GOLDEN_ECM: &str = include_str!("../../tests/golden/ecm_table.txt");
const GOLDEN_FIG8: &str = include_str!("../../tests/golden/hpcc_fig8.txt");
const GOLDEN_FIG9: &str = include_str!("../../tests/golden/hpcc_fig9.txt");

/// What one regeneration produces.
pub(crate) struct Artifacts {
    figures: String,
    tables: String,
    ecm: String,
    crs_bandwidth_bound: bool,
}

pub(crate) struct Model {
    machine: &'static Machine,
    /// The CRS address stream of the ECM fixture (the thread-scaling
    /// section replays it through both cache simulators).
    crs_addrs: Vec<(u64, usize)>,
    reference: Option<Artifacts>,
}

fn regenerate(m: &'static Machine, tr: &mut Tracer) -> Artifacts {
    let figures = tr.span("bench.render", || ookami_bench::run_figures("all", false));
    let tables = tr.span("bench.render", || ookami_bench::run_tables("all"));
    let rows = tr.span("bench.ecm_families", || ecm_families(m, 8));
    let ecm = tr.span("bench.render", || {
        render_ecm_table(&ecm_table_rows(&rows), m)
    });
    let rendered = [&figures, &tables, &ecm]
        .iter()
        .map(|s| s.lines().count())
        .sum::<usize>();
    tr.count("bench.render.rows", rendered as f64);
    let crs_bandwidth_bound = rows
        .iter()
        .any(|r| r.name == "spmv_crs" && r.model.bandwidth_bound);
    Artifacts {
        figures,
        tables,
        ecm,
        crs_bandwidth_bound,
    }
}

/// Re-time the constituents of `ecm_families(m, 8)` on the same inputs:
/// fixtures, trace recording, the port analyzer, address streams and the
/// cache simulator, and the ECM evaluation itself.
fn ecm_parts(m: &'static Machine, tr: &mut Tracer) {
    let vl = 8;
    let hints = ecm_hints(vl);
    let (mat, x) = tr.span("spmv.fixture", ecm_spmv_fixture);
    let sell = tr.span("spmv.fixture", || {
        SellCSigma::from_crs(&mat, vl, mat.n_rows)
    });
    let (st4, st7) = tr.span("spmv.fixture", || (ecm_stencil4(), ecm_stencil7()));
    let t = tr.span("sve.record", || ookami_spmv::crs_trace(&mat, &x, vl, hints));
    let a = tr.span("spmv.memtrace", || memtrace::crs_addr_trace(&mat));
    let steps = (mat.block_padded_nnz(vl) / vl) as f64;
    ecm_row_parts(m, tr, &t, steps, mat.nnz() as f64, &a);
    let t = tr.span("sve.record", || ookami_spmv::sell_trace(&sell, &x, hints));
    let a = tr.span("spmv.memtrace", || memtrace::sell_addr_trace(&sell));
    let steps = (sell.padded_nnz() / sell.c) as f64;
    ecm_row_parts(m, tr, &t, steps, sell.nnz as f64, &a);
    for k in StreamKernel::ALL {
        let t = tr.span("sve.record", || ookami_spmv::stream_trace(k, vl));
        let a = tr.span("spmv.memtrace", || {
            memtrace::stream_addr_trace(k, ECM_STREAM_N)
        });
        let n = ECM_STREAM_N as f64;
        ecm_row_parts(m, tr, &t, (n / vl as f64).ceil(), n, &a);
    }
    for st in [&st4, &st7] {
        let t = tr.span("sve.record", || st.trace(&st.field(), vl, vl as u32));
        let a = tr.span("spmv.memtrace", || memtrace::stencil_addr_trace(st));
        let n = st.n as f64;
        ecm_row_parts(m, tr, &t, (n / vl as f64).ceil(), n, &a);
    }
}

/// One family's row: `steps` iterations of trace `t` and one cold replay
/// of `addrs` cover `work` useful elements (as `ookami_bench::ecm` does).
fn ecm_row_parts(
    m: &'static Machine,
    tr: &mut Tracer,
    t: &Trace,
    steps: f64,
    work: f64,
    addrs: &[(u64, usize)],
) {
    tr.count("sve.record.ops", t.body_len() as f64);
    let vl = t.vl();
    let kl = tr.span("uarch.analyze", || {
        KernelLoop::new(t.to_instrs(), vl as f64)
    });
    let est = tr.span("uarch.analyze", || analyze_cached(&kl, m));
    let stats = tr.span("mem.cache", || memtrace::simulate(m.mem, addrs));
    tr.count("mem.cache.accesses", stats.accesses as f64);
    tr.count("mem.cache.l1_hits", stats.l1_hits as f64);
    let work_cls = work / (m.mem.line_bytes as f64 / 8.0);
    let input = EcmInput {
        t_core: est.cycles_per_iter() * steps / work_cls,
        l1_l2_lines: stats.l1_l2_lines() as f64 / work_cls,
        l2_mem_lines: stats.l2_mem_lines() as f64 / work_cls,
    };
    tr.span("core.derive", || ecm(m, &input));
}

impl Workload for Model {
    type Out = Artifacts;

    fn setup(_seed: u64, _smoke: bool, tr: &mut Tracer) -> Model {
        let (mat, _) = tr.span("spmv.fixture", ecm_spmv_fixture);
        Model {
            machine: ookami_uarch::machines::a64fx(),
            crs_addrs: tr.span("spmv.memtrace", || memtrace::crs_addr_trace(&mat)),
            reference: None,
        }
    }

    fn prepare(&mut self) {
        self.reference = Some(regenerate(self.machine, &mut Tracer::new()));
    }

    fn run(&mut self, _i: usize, tr: &mut Tracer) -> Artifacts {
        regenerate(self.machine, tr)
    }

    fn check(&self, _i: usize, out: &Artifacts) -> bool {
        let want = self.reference.as_ref().expect("prepare runs first");
        out.crs_bandwidth_bound
            && out.ecm == GOLDEN_ECM
            && out.figures.contains(GOLDEN_FIG8)
            && out.figures.contains(GOLDEN_FIG9)
            && out.figures == want.figures
            && out.tables == want.tables
    }

    fn flip(out: &mut Artifacts) {
        let mut bytes = std::mem::take(&mut out.ecm).into_bytes();
        // Bit 0 of an ASCII byte keeps the text valid UTF-8.
        if let Some(b) = bytes.iter_mut().find(|b| b.is_ascii()) {
            *b ^= 1;
        }
        out.ecm = String::from_utf8(bytes).expect("flipping bit 0 of an ASCII byte keeps UTF-8");
    }

    fn cycle(&self) -> usize {
        1
    }

    fn parallel(&self, _i: usize) -> bool {
        false
    }

    fn traced_ops(&self) -> usize {
        4
    }

    fn after_traced_op(&mut self, _i: usize, _out: &Artifacts, tr: &mut Tracer) {
        let id = tr.begin(PARTS);
        ecm_parts(self.machine, tr);
        tr.end(id);
    }

    fn scaling_rows(&self) -> Vec<ScaleRow> {
        let spec = self.machine.mem;
        vec![ScaleRow {
            path: format!(
                "ShardedCacheSim::replay_par(1 vs {THREADS}), {} accesses",
                self.crs_addrs.len()
            ),
            layer: None,
            own: true,
            t1_s: median_time(5, || {
                ShardedCacheSim::new(spec, THREADS).replay_par(1, &self.crs_addrs)
            }),
            t2_s: median_time(5, || {
                ShardedCacheSim::new(spec, THREADS).replay_par(THREADS, &self.crs_addrs)
            }),
        }]
    }
}
