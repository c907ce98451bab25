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
//!   `prof_overhead_ratio` and held under the bounds table's 5x ceiling
//!   (obs build) by this probe and by `benchdiff`, so the
//!   observability layer can never silently become the workload.
//!
//! Writes `target/bench/BENCH_prof.json` (p50/p99 region latencies per executor) and
//! the collapsed-stack flamegraph export to `target/PROFILE.collapsed`
//! (inferno / speedscope load it directly). Run with:
//!
//! ```text
//! cargo run -p ookami-bench --features obs --bin ookamiprof --release
//! ```

use ookami_bench::probe::{thread_delta, Cli, Probe};
use ookami_core::obs::{self, Snapshot, IDENTITY_COUNTERS};
use ookami_core::telemetry::spantree;
use ookami_core::timeline;
use ookami_vecmath::exp::{exp_slice_interp, exp_trace, ExpVariant};
use ookami_vecmath::ulp::sample_range;
use std::time::Instant;

/// Where the collapsed-stack flamegraph export goes.
const COLLAPSED: &str = "target/PROFILE.collapsed";

fn identity(d: &Snapshot) -> [u64; 13] {
    IDENTITY_COUNTERS.map(|c| d.get(c))
}

fn main() {
    Cli {
        usage: "ookamiprof — span-tree profiler probe with span-record identity gates\n\n\
                usage: ookamiprof\n\n\
                writes target/bench/BENCH_prof.json and, with obs, the flamegraph\n\
                export target/PROFILE.collapsed",
        ..Cli::default()
    }
    .parse();
    if !obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature — histograms and spans are \
             no-ops; identity gates are skipped"
        );
    }

    let mut probe = Probe::start("ookamiprof", "full");
    let vl = 8usize;
    let n = 20_001;
    let reps: u32 = 8;
    let variant = ExpVariant::FexpaEstrinCorrected;
    let xs = sample_range(-700.0, 700.0, n);
    let t = exp_trace(vl, variant);
    let ct = t.compile();

    probe
        .report
        .metric("n", n as f64)
        .metric("reps", f64::from(reps))
        .metric("host_cores", ookami_core::auto_threads() as f64);

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
    probe
        .report
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
        d_interp = thread_delta(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_interp");
                std::hint::black_box(exp_slice_interp(vl, &xs, variant));
            }
        });
        d_replay = thread_delta(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_replay");
                std::hint::black_box(t.replay_map(&xs));
            }
        });
        d_compiled = thread_delta(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_compiled");
                std::hint::black_box(ct.map(&xs));
            }
        });
    }
    timeline::stop();

    // --- Telemetry identity gates (obs builds only; no-ops otherwise) ---
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
                hist_ok &= probe.check(
                    false,
                    format_args!("no region-latency histogram for {path}"),
                );
                continue;
            };
            hist_ok &= probe.check(
                h.count() == u64::from(reps),
                format_args!("histogram count for {path}: {} != {reps}", h.count()),
            );
            probe
                .report
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
            let count = tree.node(&path).map(|n| n.count);
            tree_ok &= probe.check(
                count == Some(u64::from(reps)),
                format_args!("span-tree count for {path}: {count:?} != {reps}"),
            );
        }
        let (i, r, c) = (
            identity(&d_interp),
            identity(&d_replay),
            identity(&d_compiled),
        );
        let counters_ok = probe.check(
            i == r && r == c,
            format_args!(
                "identity counters differ across executors:\n  interp   {i:?}\n  \
                 replay   {r:?}\n  compiled {c:?}"
            ),
        );
        probe
            .report
            .flag("hist_counts_identical", hist_ok)
            .flag("spantree_counts_identical", tree_ok)
            .flag("counters_identical", counters_ok);

        // --- Exports: rendered table + collapsed flamegraph stacks ---
        print!("{}", tree.render_table());
        let collapsed = tree.collapsed();
        spantree::parse_collapsed(&collapsed).expect("own collapsed export round-trips");
        ookami_bench::write_or_exit(COLLAPSED, |p| std::fs::write(p, &collapsed));
        println!("wrote {COLLAPSED} ({} stacks)", collapsed.lines().count());
    } else {
        for name in [
            "hist_counts_identical",
            "spantree_counts_identical",
            "counters_identical",
        ] {
            probe.report.flag(name, "skipped");
        }
    }
    probe.finish(&ookami_bench::bench_out("BENCH_prof.json"));
}
