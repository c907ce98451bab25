//! Trace-replay probe: record-once/replay-many vs the per-op interpreter,
//! plus the AOT trace compiler (`ookami_sve::compile`) vs the replayer.
//!
//! Runs the exp accuracy sweep (the hot caller the trace engine was built
//! for) through all three executors, verifies the results are
//! **bit-identical**, the obs counters **exactly equal**, and that the
//! trace lowers to the **same instruction stream** the interpreter records
//! (modulo register naming), then measures elements/second and writes
//! `target/bench/BENCH_sve.json`. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin svereplay --release
//! ```
//!
//! A run fails (exit 1) unless replay is at least 5× the interpreter
//! and (with obs compiled in, the configuration the committed baseline
//! records) the compiled path is at least 5× replay. Each gated
//! ratio is the median over `pairs` interleaved pairs, each pair timing
//! both sides once.
//!
//! The probe also sweeps both parallel executors over 1/2/4/8 threads and
//! publishes `replay_par_speedup` / `compiled_par_speedup` (4 threads vs
//! the engine's own serial path) together with `host_cores`, so the
//! parallel floors apply wherever the host actually has the cores; on
//! boxes with fewer than 4 cores the pool runs regions inline and the par
//! floors are skipped rather than faked.

use ookami_bench::probe::{self, best_of, thread_delta, Cli, Probe};
use ookami_core::auto_threads;
use ookami_core::obs::{self, Counter, IDENTITY_COUNTERS};
use ookami_sve::SveCtx;
use ookami_uarch::{Instr, OpClass, Reg, Width};
use ookami_vecmath::exp::{
    exp_fexpa, exp_poly13, exp_slice_interp, exp_trace, ExpVariant, Poly13Style, PolyForm,
};
use ookami_vecmath::ulp::sample_range;
use std::collections::HashMap;

/// Thread counts swept by the parallel throughput section. 4 is the
/// headline (one A64FX CMG's worth of meaningful scaling on commodity
/// hosts); 8 probes oversubscription.
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

const VARIANTS: [ExpVariant; 5] = [
    ExpVariant::FexpaHorner,
    ExpVariant::FexpaEstrin,
    ExpVariant::FexpaEstrinCorrected,
    ExpVariant::Poly13,
    ExpVariant::Poly13Sleef,
];

/// The same dispatch `ookami_vecmath::exp` uses internally, rebuilt from
/// the public kernels so the probe can drive the interpreter's recorder.
fn exp_kernel(
    ctx: &mut SveCtx,
    pg: &ookami_sve::Pred,
    x: &ookami_sve::VVal,
    v: ExpVariant,
) -> ookami_sve::VVal {
    match v {
        ExpVariant::FexpaHorner => exp_fexpa(ctx, pg, x, PolyForm::Horner, false),
        ExpVariant::FexpaEstrin => exp_fexpa(ctx, pg, x, PolyForm::Estrin, false),
        ExpVariant::FexpaEstrinCorrected => exp_fexpa(ctx, pg, x, PolyForm::Estrin, true),
        ExpVariant::Poly13 => exp_poly13(ctx, pg, x, Poly13Style::Plain),
        ExpVariant::Poly13Sleef => exp_poly13(ctx, pg, x, Poly13Style::Sleef),
    }
}

/// Canonical register renaming (first appearance order) so interpreter and
/// trace streams compare structurally.
type CanonInstr = (OpClass, Width, Option<u32>, Vec<u32>, Option<u32>);

fn canon(instrs: &[Instr]) -> Vec<CanonInstr> {
    let mut names: HashMap<Reg, u32> = HashMap::new();
    let rename = |r: Reg, names: &mut HashMap<Reg, u32>| -> u32 {
        let next = names.len() as u32;
        *names.entry(r).or_insert(next)
    };
    instrs
        .iter()
        .map(|i| {
            let srcs = i.srcs.iter().map(|&r| rename(r, &mut names)).collect();
            let dst = i.dst.map(|r| rename(r, &mut names));
            (i.op, i.width, dst, srcs, i.uops_hint)
        })
        .collect()
}

fn main() {
    Cli {
        usage: "usage: svereplay — interpreter vs replay vs compiled",
        ..Cli::default()
    }
    .parse();
    let mut probe = Probe::start("svereplay", "full");
    let vl = 8usize;
    let n = 40_001;
    let reps = 5;
    let xs = sample_range(-700.0, 700.0, n);
    let headline = ExpVariant::FexpaEstrinCorrected;

    // --- correctness gates: every variant, all three executors, same
    // bits, same counters ---
    let mut bit_identical = true;
    let mut instrs_identical = true;
    let mut counters_identical = true;
    for v in VARIANTS {
        let want = exp_slice_interp(vl, &xs, v);
        let t = exp_trace(vl, v);
        let ct = t.compile();
        let mut same_as = |got: &[f64], what: &str| {
            let same = want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            probe.check(
                same,
                format_args!("{v:?} {what} is not bit-identical to the interpreter"),
            )
        };
        bit_identical &= same_as(&t.replay_map(&xs), "replay");
        bit_identical &= same_as(&t.replay_par_map(4, &xs), "parallel replay");
        bit_identical &= same_as(&ct.map(&xs), "compiled execution");
        bit_identical &= same_as(&ct.par_map(4, &xs), "parallel compiled execution");
        bit_identical &= probe.check(
            ct.is_native(),
            format_args!("{v:?} was rejected by the native-compilation gate"),
        );

        // Counter identity across the three executors (vacuous without
        // obs): the kernel's retired-op totals must not depend on the
        // execution strategy. Bytes are compared replay vs compiled only:
        // the interpreter's harness stages padded tail lanes.
        if obs::enabled() {
            let ci = thread_delta(|| {
                std::hint::black_box(exp_slice_interp(vl, &xs, v));
            });
            let cr = thread_delta(|| {
                std::hint::black_box(t.replay_map(&xs));
            });
            let cc = thread_delta(|| {
                std::hint::black_box(ct.map(&xs));
            });
            for c in IDENTITY_COUNTERS {
                let (i, r, k) = (ci.get(c), cr.get(c), cc.get(c));
                counters_identical &= probe.check(
                    i == r && r == k,
                    format_args!(
                        "{v:?} counter {}: interp {i} / replay {r} / compiled {k}",
                        c.name()
                    ),
                );
            }
            for c in [Counter::BytesLoaded, Counter::BytesStored] {
                let (r, k) = (cr.get(c), cc.get(c));
                counters_identical &= probe.check(
                    r == k,
                    format_args!("{v:?} counter {}: replay {r} vs compiled {k}", c.name()),
                );
            }
        }

        let mut ctx = SveCtx::new(vl);
        let pg = ctx.ptrue();
        let x = ctx.input_f64(&vec![0.5; vl]);
        ctx.start_recording();
        let _ = exp_kernel(&mut ctx, &pg, &x, v);
        let want_stream = canon(&ctx.take_recording());
        let got_stream = canon(&t.to_instrs());
        instrs_identical &= probe.check(
            want_stream == got_stream,
            format_args!("{v:?} trace lowers to a different instruction stream"),
        );
    }

    // --- throughput: headline variant. Each gated ratio is the median
    // of k interleaved pairs; each rate is its side's fastest run ---
    let k = reps * 4;
    let t = exp_trace(vl, headline);
    let ct = t.compile();
    let interp = || {
        std::hint::black_box(exp_slice_interp(vl, &xs, headline));
    };
    let replay = || {
        std::hint::black_box(t.replay_map(&xs));
    };
    let compiled = || {
        std::hint::black_box(ct.map(&xs));
    };
    let vs_interp = probe::pairs(k, interp, replay);
    let vs_replay = probe::pairs(k, replay, compiled);
    let replay_par = probe::pairs(k, replay, || {
        std::hint::black_box(t.replay_par_map(4, &xs));
    });
    let compiled_par = probe::pairs(k, compiled, || {
        std::hint::black_box(ct.par_map(4, &xs));
    });
    let interp_s = vs_interp.best_a();
    let replay_s = vs_replay.best_a();
    let compiled_s = vs_replay.best_b();
    let record_s = best_of(reps, || {
        std::hint::black_box(exp_trace(vl, headline));
    });
    // Thread-scaling curve: (threads, replay, compiled) best-of seconds.
    // The 4-thread point is the parallel side of the `*_par` pairs.
    let sweep: Vec<(usize, f64, f64)> = SWEEP_THREADS
        .iter()
        .map(|&th| match th {
            4 => (th, replay_par.best_b(), compiled_par.best_b()),
            _ => (
                th,
                best_of(k, || {
                    std::hint::black_box(t.replay_par_map(th, &xs));
                }),
                best_of(k, || {
                    std::hint::black_box(ct.par_map(th, &xs));
                }),
            ),
        })
        .collect();
    // `Trace::compile` clones the trace, so every call re-runs the full
    // pass pipeline + kernel emission: the one-time cost a caller pays
    // before amortizing it over replays.
    let compile_s = best_of(reps, || {
        std::hint::black_box(t.compile());
    });

    let interp_eps = n as f64 / interp_s;
    let replay_eps = n as f64 / replay_s;
    let par_eps = n as f64 / replay_par.best_b();
    let compiled_eps = n as f64 / compiled_s;
    let compiled_par_eps = n as f64 / compiled_par.best_b();
    let speedup = probe.ratio("speedup", &vs_interp);
    let compiled_speedup = probe.ratio("compiled_speedup", &vs_replay);
    // Parallel scaling vs each engine's own serial path at the headline
    // thread count (4). On a host with < 4 cores the pool clamps worker
    // count and these ratios hover near 1.0 — which is why the parallel
    // floors key off `host_cores`.
    let host_cores = auto_threads();
    let replay_par_speedup = probe.ratio("replay_par_speedup", &replay_par);
    let compiled_par_speedup = probe.ratio("compiled_par_speedup", &compiled_par);

    println!("svereplay: exp sweep, {n} elements, vl={vl}, {headline:?}, ratios are medians of {k} pairs");
    println!("  interpreter : {interp_eps:>12.0} elems/s");
    println!(
        "  trace replay: {:>12.0} elems/s  ({speedup:.1}x, record cost {:.1} µs)",
        replay_eps,
        record_s * 1e6
    );
    println!("  replay par4 : {par_eps:>12.0} elems/s  ({replay_par_speedup:.2}x serial replay)");
    println!(
        "  compiled    : {:>12.0} elems/s  ({compiled_speedup:.1}x replay, compile cost {:.1} µs)",
        compiled_eps,
        compile_s * 1e6
    );
    println!(
        "  compiled par4: {compiled_par_eps:>11.0} elems/s  ({compiled_par_speedup:.2}x serial compiled)"
    );
    println!("  scaling ({host_cores} host core(s)):");
    for &(th, r, c) in &sweep {
        println!(
            "    x{th}: replay {:>12.0}  compiled {:>12.0} elems/s",
            n as f64 / r,
            n as f64 / c
        );
    }
    println!(
        "  bit-identical: {bit_identical}   counters identical: {counters_identical}   \
         instruction streams identical: {instrs_identical}"
    );

    probe
        .report
        .metric("vl", vl as f64)
        .metric("elements", n as f64)
        .metric("interp_elems_per_sec", interp_eps)
        .metric("replay_elems_per_sec", replay_eps)
        .metric("compiled_elems_per_sec", compiled_eps)
        .metric("record_cost_us", record_s * 1e6)
        .metric("compile_cost_us", compile_s * 1e6)
        .metric("pairs", k as f64)
        .metric("host_cores", host_cores as f64)
        .flag("variant", format!("{headline:?}"))
        .flag("bit_identical", bit_identical)
        .flag("counters_identical", counters_identical)
        .flag("instr_streams_identical", instrs_identical);
    for &(th, r, c) in &sweep {
        probe
            .report
            .metric(&format!("replay_par{th}_elems_per_sec"), n as f64 / r)
            .metric(&format!("compiled_par{th}_elems_per_sec"), n as f64 / c);
    }

    probe.finish(&ookami_bench::bench_out("BENCH_sve.json"));
}
