//! `ookamistat` — the repo's `perf stat`: run a representative slice of
//! every workload family with the obs counter layer on, and report event
//! counts next to wall time. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --features obs --bin ookamistat --release
//! ```
//!
//! Writes `target/bench/BENCH_obs.json` (shared `ookami-bench-v1` schema, self-validated
//! before the write) and prints the non-zero counters. Without
//! `--features obs` the slice still runs — the counter columns are just
//! zero and the report says `obs_enabled: false`.

use ookami_bench::probe::{Cli, Probe};
use ookami_core::obs::{self, Counter, Json};
use ookami_core::timeline;
use ookami_hpcc::{dgemm_blocked, Fft};
use ookami_loops::{emulated, LoopSuite};
use ookami_lulesh::Hydro;
use ookami_npb::{cg, ep, Class};
use ookami_uarch::machines;
use ookami_vecmath::{exp_trace, ExpVariant};
use std::time::Instant;

/// One timed slice: returns wall seconds; counters accumulate globally.
fn timed(name: &str, f: impl FnOnce()) -> f64 {
    let _span = obs::region(name);
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn main() {
    let args = Cli {
        usage: "ookamistat — run a slice of every workload family with the obs counters on\n\
                \n\
                usage: ookamistat [--trace <path>]\n\
                \n\
                options:\n\
                \x20 --trace <path>  record a timeline and write a Chrome trace-event JSON\n\
                \x20                 file to <path> (open in chrome://tracing or Perfetto);\n\
                \x20                 requires --features obs for a non-empty trace\n\
                \n\
                outputs: target/bench/BENCH_obs.json (ookami-bench-v1 schema) and, with --trace,\n\
                the Chrome trace; exit 1 on any counter sanity failure.",
        valued: &["--trace"],
        ..Cli::default()
    }
    .parse();
    let trace_path = args.value("--trace");
    if !obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature — counters read zero; \
             rebuild with --features obs for real counts"
        );
    }
    let mut probe = Probe::start("ookamistat", "full");
    if trace_path.is_some() {
        timeline::start(timeline::DEFAULT_CAPACITY);
    }

    // --- Section III loops through the SVE emulator ---
    let vl = 8;
    let n_loop = 8192;
    let m = machines::a64fx();
    let t_loops = timed("loops", || {
        let mut s = LoopSuite::new(n_loop, 7);
        emulated::run_simple_sve(&mut s, vl);
        emulated::run_predicate_sve(&mut s, vl);
        emulated::run_gather_sve(&mut s, vl, false, m);
        emulated::run_scatter_sve(&mut s, vl, false);
    });
    probe.report.metric("loops_seconds", t_loops);
    probe.report.metric("loops_elements", n_loop as f64);

    // --- Section IV math: the FEXPA exp over a sweep (trace replay) ---
    let n_exp: usize = 40_000;
    let xs: Vec<f64> = (0..n_exp)
        .map(|i| -700.0 + 1400.0 * i as f64 / n_exp as f64)
        .collect();
    let t_exp = timed("vecmath_exp", || {
        let t = exp_trace(vl, ExpVariant::FexpaEstrinCorrected);
        std::hint::black_box(t.map(&xs));
    });
    probe.report.metric("exp_seconds", t_exp);
    probe.report.metric("exp_elements", n_exp as f64);

    // --- Section V NPB: EP and CG (class S, pool-parallel) ---
    let t_npb = timed("npb", || {
        std::hint::black_box(ep::run(Class::S, 4));
        std::hint::black_box(cg::run(Class::S, 4));
    });
    probe.report.metric("npb_seconds", t_npb);

    // --- Section VI LULESH: a few Sedov cycles, threaded ---
    let t_lulesh = timed("lulesh", || {
        let mut h = Hydro::sedov(8, 3.948746e7);
        h.run_mt(1.0, 16, 4);
    });
    probe.report.metric("lulesh_seconds", t_lulesh);

    // --- Section VII HPCC: blocked DGEMM + Stockham FFT ---
    let nd = 192;
    let a: Vec<f64> = (0..nd * nd).map(|i| (i % 13) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..nd * nd).map(|i| (i % 7) as f64 - 3.0).collect();
    let nf = 16_384;
    let sig: Vec<(f64, f64)> = (0..nf)
        .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let t_hpcc = timed("hpcc", || {
        let mut c = vec![0.0; nd * nd];
        dgemm_blocked(nd, nd, nd, 1.0, &a, &b, 0.0, &mut c);
        std::hint::black_box(&c);
        let fft = Fft::new(nf);
        std::hint::black_box(fft.forward(&sig));
        // STREAM is the family's pool-parallel member: its fork/chunk/
        // barrier counters give `report --derive` an hpcc row to place.
        let mut s = ookami_hpcc::stream::Stream::new(1 << 16);
        s.copy(4);
        s.scale(3.0, 4);
        s.add(4);
        s.triad(3.0, 4);
        std::hint::black_box(&s);
    });
    probe.report.metric("hpcc_seconds", t_hpcc);

    // --- trace export (before rendering, so the trace ends at the last
    //     workload event rather than mid-report) ---
    if let Some(path) = trace_path {
        timeline::stop();
        let doc = timeline::export_chrome_trace();
        // The exporter promises Json-parseable output; hold it to that
        // before the file lands on disk.
        let parsed = Json::parse(&doc).expect("exported Chrome trace must be valid JSON");
        if obs::enabled() {
            let events = match parsed.get("traceEvents") {
                Some(Json::Arr(events)) => &events[..],
                _ => &[],
            };
            // ≥ 1 span per workload family: every family slice above ran
            // under obs::region, so each name must open at least once.
            for family in ["loops", "vecmath_exp", "npb", "lulesh", "hpcc"] {
                let opened = events.iter().any(|e| {
                    matches!(e.get("ph"), Some(Json::Str(p)) if p == "B")
                        && matches!(e.get("name"), Some(Json::Str(n)) if n == family)
                });
                probe.check(
                    opened,
                    format_args!("trace lacks a span for workload family `{family}`"),
                );
            }
            let stats = timeline::stats();
            println!(
                "trace: {} thread(s), {} event(s) retained, {} dropped",
                stats.threads, stats.events_retained, stats.events_dropped
            );
        }
        ookami_bench::write_or_exit(path, |p| std::fs::write(p, &doc));
        println!("wrote {path} (Chrome trace-event JSON; load in Perfetto)");
    }

    // --- render ---
    println!("ookamistat");
    println!("{:>24}  {:>9}", "slice", "seconds");
    for (name, secs) in [
        ("loops", t_loops),
        ("vecmath_exp", t_exp),
        ("npb", t_npb),
        ("lulesh", t_lulesh),
        ("hpcc", t_hpcc),
    ] {
        println!("{name:>24}  {secs:>9.4}");
    }
    println!();
    if obs::enabled() {
        let snap = obs::snapshot();
        println!("{:>24}  {:>14}", "counter", "events");
        for (name, v) in snap.nonzero() {
            println!("{name:>24}  {v:>14}");
        }
        // Sanity anchors: the gather/scatter loops move one element per
        // index, and the FEXPA exp issues one FEXPA per vector.
        let gathers = snap.get(Counter::GatherElems);
        probe.check(
            gathers == n_loop as u64,
            format_args!("gather element count {gathers} != {n_loop}"),
        );
        let scatters = snap.get(Counter::ScatterElems);
        probe.check(
            scatters == n_loop as u64,
            format_args!("scatter element count {scatters} != {n_loop}"),
        );
        let fexpas = snap.get(Counter::FexpaIssues);
        let want = n_exp.div_ceil(vl) as u64;
        probe.check(
            fexpas >= want,
            format_args!("FEXPA issue count {fexpas} < {want}"),
        );
        println!();
    }
    probe.finish(&ookami_bench::bench_out("BENCH_obs.json"));
}
