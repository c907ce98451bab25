//! Profiler probe: drives the exp kernel through all three executors
//! (interpreter, trace replayer, compiled closures) under `obs::region`
//! spans with the timeline recording, then checks both records of a
//! region close end to end:
//!
//! * region-latency **histogram counts** (from the `obs::spans` registry)
//!   and **span-tree counts** (folded from the timeline) must be
//!   bit-identical across the three executors (each ran exactly `reps`
//!   times, and neither record may invent or lose a closing);
//! * the 13 deterministic identity counters must be exactly equal across
//!   executors (the svereplay invariant, re-checked through the profiler
//!   path);
//! * the **profiling overhead ratio** — the same compiled workload run
//!   bare vs under a region with the timeline recording — is published as
//!   `prof_overhead_ratio` and ceiling-gated by `benchdiff` (full mode,
//!   obs build), so the observability layer can never silently become the
//!   workload.
//!
//! Writes `target/bench/BENCH_prof.json` (p50/p99 region latencies per executor) and
//! the collapsed-stack flamegraph export to `target/PROFILE.collapsed`
//! (inferno / speedscope load it directly). Run with:
//!
//! ```text
//! cargo run -p ookami-bench --features obs --bin ookamiprof --release [--smoke]
//! ```

use ookami_core::telemetry::spantree;
use ookami_core::{obs, timeline};
use ookami_vecmath::exp::{exp_slice_interp, exp_trace, ExpVariant};
use ookami_vecmath::ulp::sample_range;
use std::time::Instant;

/// The executor-strategy-neutral counters that must be exactly equal
/// across interpreter, replayer and compiled execution (the svereplay
/// invariant; byte counters differ on interpreter tail staging).
const IDENTITY_COUNTERS: [&str; 13] = [
    "sve_instrs",
    "sve_lanes_active",
    "port_fla",
    "port_flb",
    "port_pr",
    "port_exa",
    "port_exb",
    "port_eaga",
    "port_eagb",
    "port_br",
    "gather_elems",
    "scatter_elems",
    "fexpa_issues",
];

fn usage() -> ! {
    eprintln!(
        "ookamiprof: span-tree profiler probe with span-record identity gates\n\
         usage: ookamiprof [--smoke] [--out <path>] [--collapsed <path>]\n\
           --smoke            CI-sized run (no perf floors apply in smoke mode)\n\
           --out <path>       report path (default target/bench/BENCH_prof.json)\n\
           --collapsed <path> flamegraph export (default target/PROFILE.collapsed)"
    );
    std::process::exit(2);
}

fn delta_13(f: impl FnOnce()) -> [u64; 13] {
    let before = obs::thread_snapshot();
    f();
    let d = obs::thread_snapshot().since(&before);
    let mut out = [0u64; 13];
    for (slot, name) in out.iter_mut().zip(IDENTITY_COUNTERS.iter()) {
        *slot = d.get(obs::Counter::from_name(name).expect("known counter"));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = ookami_bench::bench_out("BENCH_prof.json");
    let mut collapsed_path = "target/PROFILE.collapsed".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out_path.clone_from(p),
                None => usage(),
            },
            "--collapsed" => match it.next() {
                Some(p) => collapsed_path.clone_from(p),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    if !obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature — histograms and spans are \
             no-ops; identity gates are skipped"
        );
    }

    obs::reset();
    let vl = 8usize;
    let n = if smoke { 2_001 } else { 20_001 };
    let reps: u32 = if smoke { 4 } else { 8 };
    let variant = ExpVariant::FexpaEstrinCorrected;
    let xs = sample_range(-700.0, 700.0, n);
    let t = exp_trace(vl, variant);
    let ct = t.compile();

    let mut report = obs::BenchReport::new("ookamiprof", if smoke { "smoke" } else { "full" });
    report.metric("n", n as f64).metric("reps", f64::from(reps));
    report.metric("host_cores", ookami_core::auto_threads() as f64);

    // --- Profiling overhead: same compiled workload, bare vs profiled ---
    timeline::stop();
    std::hint::black_box(ct.map(&xs)); // warm up caches and allocators
    let orep = reps * 2;
    let t0 = Instant::now();
    for _ in 0..orep {
        std::hint::black_box(ct.map(&xs));
    }
    let bare_s = t0.elapsed().as_secs_f64();
    timeline::start(timeline::DEFAULT_CAPACITY);
    let t0 = Instant::now();
    for _ in 0..orep {
        let _span = obs::region("prof_overhead");
        std::hint::black_box(ct.map(&xs));
    }
    let prof_s = t0.elapsed().as_secs_f64();
    let overhead_ratio = prof_s / bare_s.max(1e-12);
    report
        .metric("bare_run_s", bare_s)
        .metric("prof_run_s", prof_s)
        .metric("prof_overhead_ratio", overhead_ratio);
    println!(
        "overhead: bare {bare_s:.6}s profiled {prof_s:.6}s ratio {overhead_ratio:.3} \
         ({orep} reps of n={n})"
    );

    // --- Three executors under nested regions, timeline recording ---
    let d_interp;
    let d_replay;
    let d_compiled;
    {
        let _root = obs::region("ookamiprof");
        d_interp = delta_13(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_interp");
                std::hint::black_box(exp_slice_interp(vl, &xs, variant));
            }
        });
        d_replay = delta_13(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_replay");
                std::hint::black_box(t.replay_map(&xs));
            }
        });
        d_compiled = delta_13(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_compiled");
                std::hint::black_box(ct.map(&xs));
            }
        });
    }
    timeline::stop();

    // --- Telemetry identity gates (obs builds only; no-ops otherwise) ---
    let mut failures = 0u32;
    let execs = ["exec_interp", "exec_replay", "exec_compiled"];
    let short = ["interp", "replay", "compiled"];
    if obs::enabled() {
        let spans = obs::spans();
        let tree = spantree::profile();
        let mut hist_ok = true;
        let mut tree_ok = true;
        for (exec, tag) in execs.iter().zip(short.iter()) {
            let path = format!("ookamiprof/{exec}");
            let Some(h) = spans.iter().find(|s| s.path == path).map(|s| &s.latency) else {
                eprintln!("FAIL: no region-latency histogram for {path}");
                hist_ok = false;
                continue;
            };
            if h.count() != u64::from(reps) {
                eprintln!("FAIL: histogram count for {path}: {} != {reps}", h.count());
                hist_ok = false;
            }
            report
                .metric(&format!("{tag}_p50_ns"), h.quantile(0.5) as f64)
                .metric(&format!("{tag}_p99_ns"), h.quantile(0.99) as f64);
            println!(
                "{path}: count {} p50 {}ns p90 {}ns p99 {}ns max {}ns",
                h.count(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.max()
            );
            match tree.node(&path) {
                Some(node) if node.count == u64::from(reps) => {}
                other => {
                    eprintln!(
                        "FAIL: span-tree count for {path}: {:?} != {reps}",
                        other.map(|n| n.count)
                    );
                    tree_ok = false;
                }
            }
        }
        let counters_ok = d_interp == d_replay && d_replay == d_compiled;
        if !counters_ok {
            eprintln!(
                "FAIL: identity counters differ across executors:\n  interp   {d_interp:?}\n  \
                 replay   {d_replay:?}\n  compiled {d_compiled:?}"
            );
        }
        for (name, ok) in [
            ("hist_counts_identical", hist_ok),
            ("spantree_counts_identical", tree_ok),
            ("counters_identical", counters_ok),
        ] {
            report.flag(name, ok);
            if !ok {
                failures += 1;
            }
        }
        report.flag("gate", failures == 0);

        // --- Exports: rendered table + collapsed flamegraph stacks ---
        print!("{}", tree.render_table());
        let collapsed = tree.collapsed();
        spantree::parse_collapsed(&collapsed).expect("own collapsed export round-trips");
        ookami_bench::write_or_exit(&collapsed_path, |p| std::fs::write(p, &collapsed));
        println!(
            "wrote {collapsed_path} ({} stacks)",
            collapsed.lines().count()
        );
    } else {
        for name in [
            "hist_counts_identical",
            "spantree_counts_identical",
            "counters_identical",
        ] {
            report.flag(name, "skipped");
        }
        report.flag("gate", true);
    }

    report.attach_obs(&obs::snapshot());
    ookami_bench::write_or_exit(&out_path, |p| report.write(p));
    println!("wrote {out_path}");
    if failures > 0 {
        eprintln!("ookamiprof: {failures} identity gate(s) failed");
        std::process::exit(1);
    }
}
