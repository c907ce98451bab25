//! ECM rows for the irregular-memory workload families.
//!
//! One place builds the `(T_core, traffic)` inputs the Execution-Cache-
//! Memory model needs, so the `spmv` probe and the golden-table test
//! agree on fixtures, normalization and hints:
//!
//! * **T_core** comes from the port/latency analyzer over the family's
//!   recorded SVE trace (`Trace::to_instrs` → `analyze_cached`), scaled
//!   from per-iteration to per-cache-line-of-work.  For CRS the scaling
//!   bakes in the lane waste of row-per-lane blocking (padded blocks /
//!   `vl`), which is exactly the term SELL-C-σ shrinks.
//! * **Traffic** comes from feeding the family's element-level address
//!   stream through a cold `ookami_mem::CacheSim` as it is generated
//!   (`memtrace::AddrStream::simulate`, no materialized trace) —
//!   `l1_l2_lines()` and `l2_mem_lines()` per cache line of work feed
//!   `obs::derive::ecm`. The stream arrives as line runs: consecutive
//!   elements whose accesses stay on the same lines, such as the 32
//!   elements of a STREAM line group at 256-B lines. `CacheSim::repeat`
//!   walks a run's round of accesses only until one pass hits L1 on every
//!   line, and counts the remaining passes as L1 hits. Under true LRU
//!   such a pass changes no set's contents or recency order, so the
//!   counts equal the element-by-element replay exactly
//!   (`tests/ecm_traffic.rs` pins them).
//!
//! The families share only the SpMV fixture. [`ecm_families`] builds it
//! once and then evaluates the eight rows concurrently, one pool task per
//! row: each records its own trace, analyzes it and simulates its stream
//! in its own cold hierarchy, so every call yields the same rows, bit for
//! bit, as evaluating them one after another.
//!
//! Normalization: a "unit of work" is one useful element (a stored
//! nonzero for SpMV, an array element for STREAM/stencil), and rows are
//! expressed per *cache line* of such elements (`line_bytes / 8` of
//! them), matching the ECM literature's cycles-per-CL convention.

use ookami_core::obs::derive::{ecm, EcmInput, EcmModel};
use ookami_core::{par_chunks_mut_with, Schedule};
use ookami_spmv::memtrace::AddrStream;
use ookami_spmv::stream::StreamKernel;
use ookami_spmv::{Crs, GatherHints, SellCSigma, Stencil};
use ookami_sve::Trace;
use ookami_uarch::{analyze_cached, KernelLoop, Machine};

/// One family's ECM row plus a naive-roofline reference column.
pub struct FamilyEcm {
    /// Family label as printed in the table and the probe's metrics.
    pub name: &'static str,
    /// The `(T_core, line-traffic)` pair fed to the model.
    pub input: EcmInput,
    /// The evaluated ECM model on the target machine.
    pub model: EcmModel,
    /// What a flat roofline (peak FLOP/s vs single-core bandwidth over
    /// the *instruction-stream* byte count) predicts for the same cache
    /// line of work — the comparison column showing what the cache
    /// hierarchy decomposition adds.
    pub roofline_cy_per_cl: f64,
}

/// The large deterministic SpMV fixture the ECM rows (and the probe's
/// rate measurements) run at: `x` is 512 KiB — eight L1s — so the
/// column gathers genuinely miss, while 12 nonzeros/row keeps the
/// stream:gather balance in SpMV's usual regime.
pub fn ecm_spmv_fixture() -> (Crs, Vec<f64>) {
    let m = Crs::random_fixed(4096, 65536, 12, 42);
    let x = (0..m.n_cols).map(|i| 1.0 / (1.0 + i as f64)).collect();
    (m, x)
}

/// Elements per STREAM array in the ECM/probe fixture (1 MiB over
/// three arrays: past L2's ability to hold the working set cold).
pub const ECM_STREAM_N: usize = 1 << 17;

/// The 2-D stencil lattice (65 536 sites, power-of-two as required).
pub fn ecm_stencil4() -> Stencil {
    Stencil::d2(256, 256, 0.5, -0.125)
}

/// The 3-D stencil lattice (65 536 sites).
pub fn ecm_stencil7() -> Stencil {
    Stencil::d3(64, 32, 32, 0.5, -0.125)
}

/// Gather-cost hints for the ECM fixtures, from the A64FX pair-window
/// rule: `val`/`col` gather sequential addresses, so consecutive lanes
/// pair within 128-byte windows (`vl/2` groups); the `x` gather over a
/// 512 KiB vector is effectively random (`vl` groups).
pub fn ecm_hints(vl: usize) -> GatherHints {
    GatherHints {
        stream_uops: (vl / 2).max(1) as u32,
        x_uops: vl as u32,
    }
}

/// Cycles per iteration of a recorded trace body on `m`.
fn core_cycles_per_iter(t: &Trace, vl: usize, m: &Machine) -> (f64, f64, f64) {
    let kl = KernelLoop::new(t.to_instrs(), vl as f64);
    let est = analyze_cached(&kl, m);
    (
        est.cycles_per_iter(),
        kl.flops_per_iter(),
        kl.bytes_per_iter(),
    )
}

fn roofline_cy_per_cl(m: &Machine, flops_cl: f64, bytes_cl: f64) -> f64 {
    let t_flop = flops_cl / (m.peak_gflops_per_core() * 1e9);
    let bw_1c = m.numa.bw_per_domain_gbs * m.numa.single_core_bw_fraction;
    let t_mem = bytes_cl / (bw_1c * 1e9);
    t_flop.max(t_mem) * m.base_ghz * 1e9
}

/// Build one row: `steps` trace iterations and one cold replay of
/// `addrs` cover `work_elems` useful elements.
fn row(
    name: &'static str,
    m: &Machine,
    t: &Trace,
    vl: usize,
    steps: f64,
    work_elems: f64,
    addrs: AddrStream,
) -> FamilyEcm {
    let elems_per_cl = m.mem.line_bytes as f64 / 8.0;
    let work_cls = work_elems / elems_per_cl;
    let (cy_it, fl_it, by_it) = core_cycles_per_iter(t, vl, m);
    let stats = addrs.simulate(m.mem);
    let input = EcmInput {
        t_core: cy_it * steps / work_cls,
        l1_l2_lines: stats.l1_l2_lines() as f64 / work_cls,
        l2_mem_lines: stats.l2_mem_lines() as f64 / work_cls,
    };
    let model = ecm(m, &input);
    FamilyEcm {
        name,
        input,
        model,
        roofline_cy_per_cl: roofline_cy_per_cl(
            m,
            fl_it * steps / work_cls,
            by_it * steps / work_cls,
        ),
    }
}

/// Rows in the table: CRS, SELL-C-σ, the STREAM kernels, the 2-D and
/// 3-D stencils.
const FAMILIES: usize = 2 + StreamKernel::ALL.len() + 2;

/// All irregular-memory family rows on `m` at vector length `vl`
/// (lanes of f64; 8 on the 512-bit A64FX target), in table order. The
/// rows run as one pool region at the auto thread count, handed out in
/// table order; inside another region they run inline, one by one.
pub fn ecm_families(m: &Machine, vl: usize) -> Vec<FamilyEcm> {
    let fixture = ecm_spmv_fixture();
    let mut rows: Vec<Option<FamilyEcm>> = (0..FAMILIES).map(|_| None).collect();
    par_chunks_mut_with(
        0,
        &mut rows,
        1,
        Schedule::Dynamic { chunk: 1 },
        |i, slot| {
            slot[0] = Some(family_row(i, m, vl, &fixture));
        },
    );
    rows.into_iter()
        .map(|r| r.expect("every family task writes its row"))
        .collect()
}

/// Row `i` of the table (see [`FAMILIES`] for the order).
fn family_row(i: usize, m: &Machine, vl: usize, (mat, x): &(Crs, Vec<f64>)) -> FamilyEcm {
    let hints = ecm_hints(vl);
    let streams = 2..2 + StreamKernel::ALL.len();
    match i {
        // SpMV, CRS: row-per-lane blocking pads every vl-row block to its
        // longest row, so steps = padded / vl over nnz useful elements.
        0 => row(
            "spmv_crs",
            m,
            &ookami_spmv::crs_trace(mat, x, vl, hints),
            vl,
            mat.block_padded_nnz(vl) as f64 / vl as f64,
            mat.nnz() as f64,
            AddrStream::Crs(mat),
        ),
        // SpMV, SELL-C-σ with C = vl and σ covering the matrix: same nnz,
        // fewer padded slots, and only the x access stays a gather.
        1 => {
            let s = SellCSigma::from_crs(mat, vl, mat.n_rows);
            row(
                "spmv_sell",
                m,
                &ookami_spmv::sell_trace(&s, x, hints),
                s.c,
                s.padded_nnz() as f64 / s.c as f64,
                s.nnz as f64,
                AddrStream::Sell(&s),
            )
        }
        i if streams.contains(&i) => {
            let k = StreamKernel::ALL[i - streams.start];
            row(
                k.name(),
                m,
                &ookami_spmv::stream_trace(k, vl),
                vl,
                (ECM_STREAM_N as f64 / vl as f64).ceil(),
                ECM_STREAM_N as f64,
                AddrStream::Stream(k, ECM_STREAM_N),
            )
        }
        i => {
            let (name, st) = if i == streams.end {
                ("stencil4", ecm_stencil4())
            } else {
                ("stencil7", ecm_stencil7())
            };
            // The row reads only the recorded instruction mix, which does
            // not depend on the field's values: record over zeros.
            row(
                name,
                m,
                &st.trace(&vec![0.0; st.n], vl, vl as u32),
                vl,
                (st.n as f64 / vl as f64).ceil(),
                st.n as f64,
                AddrStream::Stencil(&st),
            )
        }
    }
}

/// The rows in `(label, model)` form for `obs::derive::render_ecm_table`.
pub fn ecm_table_rows(rows: &[FamilyEcm]) -> Vec<(String, EcmModel)> {
    rows.iter().map(|r| (r.name.to_string(), r.model)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a64fx() -> &'static Machine {
        ookami_uarch::machines::a64fx()
    }

    /// Every field of a row, floats as bits.
    fn row_bits(r: &FamilyEcm) -> (&'static str, [u64; 13]) {
        let FamilyEcm {
            name,
            input,
            model,
            roofline_cy_per_cl,
        } = *r;
        let EcmInput {
            t_core,
            l1_l2_lines,
            l2_mem_lines,
        } = input;
        let EcmModel {
            t_core: m_core,
            t_l1l2,
            t_l2mem,
            t_data,
            t_cl,
            bandwidth_bound,
            n_sat,
            cl_per_s_1c,
            cl_per_s_bw_cap,
        } = model;
        let bits = [
            t_core.to_bits(),
            l1_l2_lines.to_bits(),
            l2_mem_lines.to_bits(),
            m_core.to_bits(),
            t_l1l2.to_bits(),
            t_l2mem.to_bits(),
            t_data.to_bits(),
            t_cl.to_bits(),
            u64::from(bandwidth_bound),
            n_sat as u64,
            cl_per_s_1c.to_bits(),
            cl_per_s_bw_cap.to_bits(),
            roofline_cy_per_cl.to_bits(),
        ];
        (name, bits)
    }

    #[test]
    fn concurrent_rows_equal_serial_rows_bitwise() {
        // Inside a one-part region the family region nests, so it runs
        // inline: the rows are computed one after another on this thread.
        let serial = std::sync::Mutex::new(Vec::new());
        ookami_core::Pool::global().run(1, |_| {
            *serial.lock().unwrap() = ecm_families(a64fx(), 8);
        });
        let serial: Vec<_> = serial.into_inner().unwrap().iter().map(row_bits).collect();
        let concurrent: Vec<_> = ecm_families(a64fx(), 8).iter().map(row_bits).collect();
        assert_eq!(serial.len(), FAMILIES);
        assert_eq!(serial, concurrent);
    }

    #[test]
    fn crs_is_bandwidth_bound_on_a64fx() {
        // The acceptance pin for the family: a cold random-column SpMV
        // with a 512 KiB x vector is a data-transfer problem, not a
        // core-execution problem, on the a64fx descriptor.
        let rows = ecm_families(a64fx(), 8);
        let crs = rows.iter().find(|r| r.name == "spmv_crs").unwrap();
        assert!(
            crs.model.bandwidth_bound,
            "CRS must attribute bandwidth_bound: t_core={} t_data={}",
            crs.model.t_core, crs.model.t_data
        );
    }

    #[test]
    fn sell_never_moves_more_core_cycles_than_crs() {
        // SELL's whole point: less padding than vl-blocked CRS and two
        // fewer gathers, so its per-CL core time must come in below.
        let rows = ecm_families(a64fx(), 8);
        let crs = rows.iter().find(|r| r.name == "spmv_crs").unwrap();
        let sell = rows.iter().find(|r| r.name == "spmv_sell").unwrap();
        assert!(
            sell.input.t_core < crs.input.t_core,
            "sell {} vs crs {}",
            sell.input.t_core,
            crs.input.t_core
        );
    }

    #[test]
    fn stream_rows_are_bandwidth_bound_and_cheap_in_core() {
        let rows = ecm_families(a64fx(), 8);
        for k in StreamKernel::ALL {
            let r = rows.iter().find(|r| r.name == k.name()).unwrap();
            assert!(r.model.bandwidth_bound, "{} must be bw-bound", k.name());
            // One vector op per iteration: core time per CL is a few
            // cycles; the data terms dominate by an order of magnitude.
            assert!(
                r.input.t_core * 4.0 < r.model.t_data,
                "{}: t_core={} t_data={}",
                k.name(),
                r.input.t_core,
                r.model.t_data
            );
        }
    }

    #[test]
    fn every_family_row_is_finite_and_positive() {
        let rows = ecm_families(a64fx(), 8);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.input.t_core > 0.0 && r.input.t_core.is_finite(),
                "{}",
                r.name
            );
            assert!(r.model.t_cl >= r.model.t_data, "{}", r.name);
            assert!(r.roofline_cy_per_cl >= 0.0, "{}", r.name);
            // n_sat above cores_per_domain is meaningful (a CMG never
            // saturates the link for that family) — only 0 is a bug.
            assert!(r.model.n_sat >= 1, "{}", r.name);
        }
    }
}
