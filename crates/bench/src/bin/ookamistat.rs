//! `ookamistat` — the repo's `perf stat`: run a representative slice of
//! every workload family with the obs counter layer on, and report event
//! counts next to wall time. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --features obs --bin ookamistat --release [--smoke]
//! ```
//!
//! Writes `target/bench/BENCH_obs.json` (shared `ookami-bench-v1` schema, self-validated
//! before the write) and prints the non-zero counters. Without
//! `--features obs` the slice still runs — the counter columns are just
//! zero and the report says `obs_enabled: false`, which is itself worth a
//! smoke test (the no-op path must not crash).

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

fn usage() -> ! {
    println!(
        "ookamistat — run a slice of every workload family with the obs counters on\n\
         \n\
         usage: ookamistat [--smoke] [--trace <path>] [--help]\n\
         \n\
         options:\n\
           --smoke         small problem sizes (CI); default is the full slice\n\
           --trace <path>  record a timeline and write a Chrome trace-event JSON\n\
                           file to <path> (open in chrome://tracing or Perfetto);\n\
                           requires --features obs for a non-empty trace\n\
           --help          this text\n\
         \n\
         outputs: target/bench/BENCH_obs.json (ookami-bench-v1 schema) and, with --trace,\n\
         the Chrome trace; exit is nonzero on any counter sanity failure."
    );
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--trace" => {
                if let Some(p) = it.next() {
                    trace_path = Some(p.clone());
                } else {
                    eprintln!("error: --trace needs a path argument");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    let scale = if smoke { 1 } else { 4 };
    if !obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature — counters read zero; \
             rebuild with --features obs for real counts"
        );
    }
    obs::reset();
    if trace_path.is_some() {
        timeline::start(timeline::DEFAULT_CAPACITY);
    }
    let mut report = obs::BenchReport::new("ookamistat", if smoke { "smoke" } else { "full" });

    // --- Section III loops through the SVE emulator ---
    let vl = 8;
    let n_loop = 2048 * scale;
    let m = machines::a64fx();
    let t_loops = timed("loops", || {
        let mut s = LoopSuite::new(n_loop, 7);
        emulated::run_simple_sve(&mut s, vl);
        emulated::run_predicate_sve(&mut s, vl);
        emulated::run_gather_sve(&mut s, vl, false, m);
        emulated::run_scatter_sve(&mut s, vl, false);
    });
    report.metric("loops_seconds", t_loops);
    report.metric("loops_elements", n_loop as f64);

    // --- Section IV math: the FEXPA exp over a sweep (trace replay) ---
    let n_exp = 10_000 * scale;
    let xs: Vec<f64> = (0..n_exp)
        .map(|i| -700.0 + 1400.0 * i as f64 / n_exp as f64)
        .collect();
    let t_exp = timed("vecmath_exp", || {
        let t = exp_trace(vl, ExpVariant::FexpaEstrinCorrected);
        std::hint::black_box(t.map(&xs));
    });
    report.metric("exp_seconds", t_exp);
    report.metric("exp_elements", n_exp as f64);

    // --- Section V NPB: EP and CG (class S, pool-parallel) ---
    let t_npb = timed("npb", || {
        std::hint::black_box(ep::run(Class::S, 4));
        std::hint::black_box(cg::run(Class::S, 4));
    });
    report.metric("npb_seconds", t_npb);

    // --- Section VI LULESH: a few Sedov cycles, threaded ---
    let t_lulesh = timed("lulesh", || {
        let mut h = Hydro::sedov(8, 3.948746e7);
        h.run_mt(1.0, 4 * scale, 4);
    });
    report.metric("lulesh_seconds", t_lulesh);

    // --- Section VII HPCC: blocked DGEMM + Stockham FFT ---
    let nd = 96 * scale.min(2);
    let a: Vec<f64> = (0..nd * nd).map(|i| (i % 13) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..nd * nd).map(|i| (i % 7) as f64 - 3.0).collect();
    let nf = 4096 * scale;
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
        let mut s = ookami_hpcc::stream::Stream::new(1 << 14 << scale.min(2));
        s.copy(4);
        s.scale(3.0, 4);
        s.add(4);
        s.triad(3.0, 4);
        std::hint::black_box(&s);
    });
    report.metric("hpcc_seconds", t_hpcc);

    // --- trace export (before rendering, so the trace ends at the last
    //     workload event rather than mid-report) ---
    if let Some(path) = &trace_path {
        timeline::stop();
        let doc = timeline::export_chrome_trace();
        // The exporter promises Json-parseable output; hold it to that
        // before the file lands on disk.
        let parsed = Json::parse(&doc).expect("exported Chrome trace must be valid JSON");
        if obs::enabled() {
            let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
                panic!("trace missing traceEvents array")
            };
            // ≥ 1 span per workload family: every family slice above ran
            // under obs::region, so each name must open at least once.
            for family in ["loops", "vecmath_exp", "npb", "lulesh", "hpcc"] {
                let opened = events.iter().any(|e| {
                    matches!(e.get("ph"), Some(Json::Str(p)) if p == "B")
                        && matches!(e.get("name"), Some(Json::Str(n)) if n == family)
                });
                assert!(opened, "trace lacks a span for workload family `{family}`");
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
    let snap = obs::snapshot();
    report.attach_obs(&snap);

    println!("ookamistat ({} mode)", if smoke { "smoke" } else { "full" });
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
        println!("{:>24}  {:>14}", "counter", "events");
        for (name, v) in snap.nonzero() {
            println!("{name:>24}  {v:>14}");
        }
        // Sanity anchors: the gather/scatter loops move one element per
        // index, and the FEXPA exp issues one FEXPA per vector.
        assert_eq!(
            snap.get(Counter::GatherElems),
            n_loop as u64,
            "gather element count off"
        );
        assert_eq!(
            snap.get(Counter::ScatterElems),
            n_loop as u64,
            "scatter element count off"
        );
        assert!(
            snap.get(Counter::FexpaIssues) >= n_exp.div_ceil(vl) as u64,
            "FEXPA issue count off"
        );
        println!();
    }
    let path = ookami_bench::bench_out("BENCH_obs.json");
    ookami_bench::write_or_exit(&path, |p| report.write(p));
    // Belt and braces: re-read and validate what actually landed on disk.
    let disk = std::fs::read_to_string(&path).expect("read back BENCH_obs.json");
    obs::validate_bench_json(&disk).expect("BENCH_obs.json fails schema validation");
    println!("wrote {path} (schema ookami-bench-v1, validated)");
}
