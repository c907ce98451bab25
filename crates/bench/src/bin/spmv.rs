//! Irregular-memory probe: SpMV (CRS vs SELL-C-σ), STREAM and the
//! lattice stencil through the SVE trace engine, plus the ECM model
//! table from `obs::derive`.
//!
//! Gates (exit 1 on failure):
//!
//! 1. **Bit identity** (always enforced): every executor — interpreter,
//!    replayer, parallel replay, compiled STREAM — must reproduce the
//!    fused scalar reference *bitwise*, and SELL-C-σ must equal CRS
//!    bitwise (it permutes row order, never per-row summation order).
//! 2. **ECM attribution** (always enforced): on the A64FX descriptor the
//!    cold random-column CRS family must come out `bandwidth_bound` —
//!    its cache-line transfer time, not its core execution time, sets
//!    the single-core runtime. That is the headline claim the SELL-C-σ
//!    format rests on.
//! 3. **Replay-over-interpreter floors** (in the harness's bounds
//!    table): replaying the recorded trace must beat
//!    re-interpreting the kernel per block. Each ratio is the median over
//!    interleaved interpreter/replay pairs.
//!
//! Writes `target/bench/BENCH_spmv.json` (schema `ookami-bench-v1`). Run with:
//!
//! ```text
//! cargo run -p ookami-bench --release --bin spmv
//! ```

use ookami_bench::ecm::{ecm_families, ecm_hints, ecm_spmv_fixture, ecm_table_rows, ECM_STREAM_N};
use ookami_bench::probe::{self, best_of, Cli, Probe};
use ookami_core::auto_threads;
use ookami_core::obs::derive::render_ecm_table;
use ookami_spmv::{
    run_crs_interp, run_crs_replay, run_crs_replay_par, run_sell_replay, run_stream, stream_ref,
    stream_trace, SellCSigma, Stencil, StreamExec, StreamKernel,
};

fn bits_eq(probe: &mut Probe, name: &str, want: &[f64], got: &[f64]) -> bool {
    let ok = want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(w, g)| w.to_bits() == g.to_bits());
    probe.check(
        ok,
        format_args!("{name}: output is not bit-identical to the reference"),
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    Cli {
        usage: "usage: spmv — SpMV, STREAM, stencils and the ECM table",
        ..Cli::default()
    }
    .parse();
    let mut probe = Probe::start("spmv", "full");
    let reps = 5;
    let vl = 8;
    let host_cores = auto_threads();

    // --- fixtures: the exact ones the ECM rows are built from ---
    let (m, x) = ecm_spmv_fixture();
    let hints = ecm_hints(vl);
    let s = SellCSigma::from_crs(&m, vl, m.n_rows);
    let want = m.spmv_ref(&x);

    // --- bit-identity gate across every executor ---
    let tc = ookami_spmv::crs_trace(&m, &x, vl, hints);
    let ts = ookami_spmv::sell_trace(&s, &x, hints);
    let y_replay = run_crs_replay(&tc, &m);
    let y_interp = run_crs_interp(&m, &x, vl, hints);
    let y_par = run_crs_replay_par(4, &tc, &m);
    let y_sell = run_sell_replay(&ts, &s);
    let n = ECM_STREAM_N;
    let sb: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let sc: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
    let triad = stream_trace(StreamKernel::Triad, vl);
    let triad_want = stream_ref(StreamKernel::Triad, &sb, Some(&sc));
    let triad_replay = run_stream(
        &triad,
        StreamKernel::Triad,
        StreamExec::Replay,
        1,
        &sb,
        Some(&sc),
    );
    let triad_compiled = run_stream(
        &triad,
        StreamKernel::Triad,
        StreamExec::Compiled,
        1,
        &sb,
        Some(&sc),
    );
    let st = Stencil::d2(32, 32, 0.5, -0.125);
    let field = st.field();
    let st_trace = st.trace(&field, vl, vl as u32);
    let p = &mut probe;
    let bit_identical = bits_eq(p, "crs replay", &want, &y_replay)
        & bits_eq(p, "crs interp", &want, &y_interp)
        & bits_eq(p, "crs replay_par(4)", &want, &y_par)
        & bits_eq(p, "sell replay", &want, &y_sell)
        & bits_eq(p, "stream triad replay", &triad_want, &triad_replay)
        & bits_eq(p, "stream triad compiled", &triad_want, &triad_compiled)
        & bits_eq(
            p,
            "stencil4 replay",
            &st.apply_ref(&field),
            &st_trace.replay_map(&st.sites_f64()),
        );

    // --- rates: elements/s through the serial replayer; the two
    // replay-over-interpreter ratios from interleaved pairs ---
    let nnz = m.nnz() as f64;
    let k = reps * 4;
    let crs = probe::pairs(
        k,
        || {
            std::hint::black_box(run_crs_interp(&m, &x, vl, hints));
        },
        || {
            std::hint::black_box(run_crs_replay(&tc, &m));
        },
    );
    let triad_run = |exec| {
        std::hint::black_box(run_stream(
            &triad,
            StreamKernel::Triad,
            exec,
            1,
            &sb,
            Some(&sc),
        ));
    };
    let stream = probe::pairs(
        k,
        || triad_run(StreamExec::Interp),
        || triad_run(StreamExec::Replay),
    );
    let crs_interp_s = crs.best_a();
    let crs_s = crs.best_b();
    let triad_interp_s = stream.best_a();
    let triad_replay_s = stream.best_b();
    let sell_s = best_of(reps, || {
        std::hint::black_box(run_sell_replay(&ts, &s));
    });
    let crs_par_s = best_of(reps, || {
        std::hint::black_box(run_crs_replay_par(4, &tc, &m));
    });
    let spmv_replay_speedup = probe.ratio("spmv_replay_speedup", &crs);
    let stream_replay_speedup = probe.ratio("stream_replay_speedup", &stream);
    let spmv_par_speedup = crs_s / crs_par_s;

    // --- the ECM table on the A64FX descriptor ---
    let machine = ookami_uarch::machines::a64fx();
    let rows = ecm_families(machine, vl);
    let table = render_ecm_table(&ecm_table_rows(&rows), machine);
    let crs_row = rows.iter().find(|r| r.name == "spmv_crs").expect("crs row");
    let sell_row = rows
        .iter()
        .find(|r| r.name == "spmv_sell")
        .expect("sell row");
    let triad_row = rows.iter().find(|r| r.name == "triad").expect("triad row");
    probe.check(
        crs_row.model.bandwidth_bound,
        "ecm: the CRS family is not bandwidth_bound on the A64FX descriptor",
    );

    println!(
        "spmv: {} x {}, {} nnz ({}/row), x = {} KiB; SELL-{}-σ{} lane utilization {:.3}",
        m.n_rows,
        m.n_cols,
        m.nnz(),
        m.nnz() / m.n_rows,
        m.n_cols * 8 / 1024,
        s.c,
        s.sigma,
        s.lane_utilization()
    );
    println!(
        "  crs  replay: {:>12.0} elems/s   interp: {:>12.0} elems/s   ({spmv_replay_speedup:.2}x, median of {k} pairs)",
        nnz / crs_s,
        nnz / crs_interp_s
    );
    println!(
        "  sell replay: {:>12.0} elems/s   par(4): {spmv_par_speedup:.2}x on {host_cores} host core(s)",
        s.nnz as f64 / sell_s
    );
    println!(
        "  triad replay: {:>11.0} elems/s   interp: {:>12.0} elems/s   ({stream_replay_speedup:.2}x)",
        n as f64 / triad_replay_s,
        n as f64 / triad_interp_s
    );
    println!("\n{table}");
    println!("  bit identity (interp == replay == par == compiled == scalar ref): {bit_identical}");
    println!(
        "  ecm: crs is {} (t_core {:.1} vs t_data {:.1} cy/CL)",
        crs_row.model.bound_name(),
        crs_row.model.t_core,
        crs_row.model.t_data
    );

    probe
        .report
        .metric("n_rows", m.n_rows as f64)
        .metric("nnz", nnz)
        .metric("crs_elems_per_sec", nnz / crs_s)
        .metric("sell_elems_per_sec", s.nnz as f64 / sell_s)
        .metric("crs_interp_elems_per_sec", nnz / crs_interp_s)
        .metric("triad_elems_per_sec", n as f64 / triad_replay_s)
        .metric("pairs", k as f64)
        .metric("spmv_par_speedup", spmv_par_speedup)
        .metric("sell_lane_utilization", s.lane_utilization())
        .metric("ecm_crs_t_core", crs_row.model.t_core)
        .metric("ecm_crs_t_data", crs_row.model.t_data)
        .metric("ecm_crs_t_cl", crs_row.model.t_cl)
        .metric("ecm_crs_n_sat", crs_row.model.n_sat as f64)
        .metric("ecm_sell_t_core", sell_row.model.t_core)
        .metric("ecm_sell_t_cl", sell_row.model.t_cl)
        .metric("ecm_triad_t_cl", triad_row.model.t_cl)
        .metric("host_cores", host_cores as f64)
        .flag("machine", "a64fx")
        .flag("ecm_crs_bound", crs_row.model.bound_name())
        .flag("ecm_triad_bound", triad_row.model.bound_name())
        .flag("bit_identical", bit_identical);
    probe.finish(&ookami_bench::bench_out("BENCH_spmv.json"));
}
