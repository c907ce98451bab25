//! Parallel/serial differential properties for both bulk executors: on
//! any recorded kernel, `replay_par_map` must equal `replay_map` and
//! `CompiledTrace::par_map` must equal `CompiledTrace::map` — **bit for
//! bit** and **counter for counter** — for every thread count, including
//! oversubscription and ragged tails. The pool's workers bump the same
//! process-global obs counters the serial path does, so the counter
//! assertions read *global* snapshot deltas, and every test in this
//! binary serializes pool use behind one lock (pool work from a
//! concurrently running test would otherwise leak into the delta). The
//! tests live in their own integration-test binary for the same reason:
//! other binaries' tests run in parallel threads of their own process,
//! but never in this one.

use ookami_core::obs;
use ookami_sve::{Pred, SveCtx, Trace, VVal};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes pool-driving tests within this binary (see module doc).
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Thread counts under test: serial pool use, partial, the headline 4,
/// and 0 = auto (whatever the host has).
const THREADS: [usize; 4] = [1, 2, 4, 0];

/// The deterministic counters that may not depend on the execution
/// strategy (the same set `svereplay` gates across executors, plus the
/// byte counters — within one engine the staging path is identical, so
/// bytes must agree too). Scheduling counters (forked regions, barrier
/// waits) are excluded: they legitimately vary with thread count.
const IDENTITY_COUNTERS: [&str; 15] = [
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
    "bytes_loaded",
    "bytes_stored",
];

/// Global obs delta of `f`, projected onto [`IDENTITY_COUNTERS`].
/// Global — not per-thread — because pool workers retire lanes on their
/// own threads.
fn global_delta(f: impl FnOnce()) -> Vec<u64> {
    let before = obs::snapshot();
    f();
    let d = obs::snapshot().since(&before);
    IDENTITY_COUNTERS
        .iter()
        .map(|n| d.get(obs::Counter::from_name(n).expect("known counter")))
        .collect()
}

/// In-kernel gather table (exercises the shared-captured-tables path:
/// a gather-only trace replays straight out of `Trace::tabs`).
const TAB: [f64; 16] = [
    0.5, -1.25, 3.0, 0.0625, -7.5, 11.0, 0.1, -0.0, 2.75, 1e10, -1e-10, 42.0, 0.3333, -6.0, 8.125,
    0.99,
];

/// A trimmed straight-line op set: enough classes to exercise merging
/// predication, predicate-governed lane accounting, FEXPA, and gathers
/// (the full class-by-class differential lives in `trace_replay.rs`).
#[derive(Debug, Clone)]
enum Op {
    Bin(u8, f64),
    Un(u8),
    Fma(bool, f64),
    Fexpa,
    CmpToP(u8, f64),
    SelC(f64),
    Gather,
}

fn fconst() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), Just(-1.5), Just(0.5), -1e6..1e6f64]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, fconst()).prop_map(|(k, x)| Op::Bin(k, x)),
        (0u8..4).prop_map(Op::Un),
        (any::<bool>(), fconst()).prop_map(|(n, x)| Op::Fma(n, x)),
        Just(Op::Fexpa),
        (0u8..3, fconst()).prop_map(|(k, x)| Op::CmpToP(k, x)),
        fconst().prop_map(Op::SelC),
        Just(Op::Gather),
    ]
}

fn run_program(ctx: &mut SveCtx, pg: &Pred, x: &VVal, prog: &[Op]) -> VVal {
    let mut cur = x.clone();
    let mut p = pg.clone();
    for op in prog {
        match *op {
            Op::Bin(k, c) => {
                let cv = ctx.dup_f64(c);
                cur = match k {
                    0 => ctx.fadd(&p, &cur, &cv),
                    1 => ctx.fsub(&p, &cur, &cv),
                    2 => ctx.fmul(&p, &cur, &cv),
                    3 => ctx.fdiv(&p, &cur, &cv),
                    4 => ctx.fmax(&p, &cur, &cv),
                    _ => ctx.fmin(&p, &cur, &cv),
                };
            }
            Op::Un(k) => {
                cur = match k {
                    0 => ctx.fsqrt(&p, &cur),
                    1 => ctx.fneg(&p, &cur),
                    2 => ctx.fabs(&p, &cur),
                    _ => ctx.frintn(&p, &cur),
                };
            }
            Op::Fma(neg, c) => {
                let cv = ctx.dup_f64(c);
                cur = if neg {
                    ctx.fmls(&p, &cur, &cv, &cur)
                } else {
                    ctx.fmla(&p, &cur, &cv, &cur)
                };
            }
            Op::Fexpa => cur = ctx.fexpa(&cur),
            Op::CmpToP(k, c) => {
                let cv = ctx.dup_f64(c);
                p = match k {
                    0 => ctx.fcmgt(pg, &cur, &cv),
                    1 => ctx.fcmge(pg, &cur, &cv),
                    _ => ctx.fcmeq(pg, &cur, &cv),
                };
            }
            Op::SelC(c) => {
                let cv = ctx.dup_f64(c);
                cur = ctx.sel(&p, &cur, &cv);
            }
            Op::Gather => {
                let m = ctx.dup_i64(TAB.len() as i64 - 1);
                let idx = ctx.and_u(pg, &cur, &m);
                cur = ctx.ld1d_gather(&p, &TAB, &idx, 4);
            }
        }
    }
    cur
}

fn assert_bits_eq(want: &[f64], got: &[f64], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "{what}: lane {i} differs ({w} vs {g})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replayer: parallel replay is bit- and counter-identical to serial
    /// replay for every thread count and ragged length.
    #[test]
    fn replay_par_identity_across_threads(
        vl in 1usize..=8,
        xs in prop::collection::vec(-1e3..1e3f64, 1..260),
        prog in prop::collection::vec(op_strategy(), 1..8),
    ) {
        let _g = pool_lock();
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let mut serial = Vec::new();
        let cs = global_delta(|| serial = t.replay_map(&xs));
        for th in THREADS {
            let mut par = Vec::new();
            let cp = global_delta(|| par = t.replay_par_map(th, &xs));
            assert_bits_eq(&serial, &par, &format!("replay_par_map({th})"));
            prop_assert_eq!(
                &cs, &cp,
                "replay counters diverge at {} thread(s) ({:?})",
                th, IDENTITY_COUNTERS
            );
        }
    }

    /// Compiled engine: `par_map` is bit- and counter-identical to `map`
    /// for every thread count and ragged length (tails fall back to the
    /// replayer in both paths).
    #[test]
    fn compiled_par_identity_across_threads(
        vl in 1usize..=8,
        xs in prop::collection::vec(-1e3..1e3f64, 1..300),
        prog in prop::collection::vec(op_strategy(), 1..8),
    ) {
        let _g = pool_lock();
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let ct = t.compile();
        let mut serial = Vec::new();
        let cs = global_delta(|| serial = ct.map(&xs));
        for th in THREADS {
            let mut par = Vec::new();
            let cp = global_delta(|| par = ct.par_map(th, &xs));
            assert_bits_eq(&serial, &par, &format!("compiled par_map({th})"));
            prop_assert_eq!(
                &cs, &cp,
                "compiled counters diverge at {} thread(s)",
                th
            );
        }
    }

    /// Two-input kernels: `replay_par_map2` / compiled `par_map2` match
    /// their serial counterparts the same way.
    #[test]
    fn par_map2_identity_across_threads(
        vl in 1usize..=8,
        n in 1usize..260,
        seed in 0u64..1000,
    ) {
        let _g = pool_lock();
        // Deterministic but irregular inputs from the seed.
        let xs: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 2000) as f64 / 7.0 - 140.0)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 - x * 0.25).collect();
        let t = Trace::record2(vl, |ctx, pg, x, y| {
            let s = ctx.fmul(pg, x, y);
            let q = ctx.fcmgt(pg, &s, y);
            let r = ctx.fmla(&q, &s, x, y);
            ctx.sel(&q, &r, &s)
        });
        let mut serial = Vec::new();
        let cs = global_delta(|| serial = t.replay_map2(&xs, &ys));
        let ct = t.compile();
        let mut cserial = Vec::new();
        let cc = global_delta(|| cserial = ct.map2(&xs, &ys));
        for th in THREADS {
            let mut par = Vec::new();
            let cp = global_delta(|| par = t.replay_par_map2(th, &xs, &ys));
            assert_bits_eq(&serial, &par, &format!("replay_par_map2({th})"));
            prop_assert_eq!(&cs, &cp, "replay_map2 counters diverge at {}", th);
            let mut cpar = Vec::new();
            let cq = global_delta(|| cpar = ct.par_map2(th, &xs, &ys));
            assert_bits_eq(&cserial, &cpar, &format!("compiled par_map2({th})"));
            prop_assert_eq!(&cc, &cq, "compiled map2 counters diverge at {}", th);
        }
    }
}

/// Ragged tails at the compiled engine's chunk boundary (W = 128): one
/// short of a chunk, exact chunks, one over — the shapes where the
/// replayer-fallback tail path and the W-aligned parallel split meet.
#[test]
fn ragged_tails_at_chunk_boundaries() {
    let _g = pool_lock();
    let t = Trace::record1(8, |ctx, pg, x| {
        let e = ctx.fexpa(x);
        ctx.fmul(pg, &e, x)
    });
    let ct = t.compile();
    for n in [1usize, 7, 127, 128, 129, 255, 256, 257, 1023] {
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).mul_add(0.37, -80.0)).collect();
        let serial = t.replay_map(&xs);
        let compiled = ct.map(&xs);
        assert_bits_eq(&serial, &compiled, &format!("compiled vs replay, n={n}"));
        for th in THREADS {
            assert_bits_eq(
                &serial,
                &t.replay_par_map(th, &xs),
                &format!("replay_par_map({th}), n={n}"),
            );
            assert_bits_eq(
                &serial,
                &ct.par_map(th, &xs),
                &format!("compiled par_map({th}), n={n}"),
            );
        }
    }
}

/// Repeated parallel regions on one trace: running the same trace (and
/// its compiled form) through the pool again and again must keep
/// producing the serial bits, so no region can see state left behind by
/// an earlier one.
#[test]
fn repeated_regions_on_one_trace_match_serial() {
    let _g = pool_lock();
    let t = Trace::record1(4, |ctx, pg, x| {
        let z = ctx.dup_f64(0.0);
        let q = ctx.fcmgt(pg, x, &z);
        let s = ctx.fsqrt(&q, x);
        ctx.sel(&q, &s, x)
    });
    let xs: Vec<f64> = (0..777).map(|i| (i as f64) * 0.5 - 111.0).collect();
    let want = t.replay_map(&xs);
    let ct = t.compile();
    for round in 0..10 {
        assert_bits_eq(
            &want,
            &t.replay_par_map(4, &xs),
            &format!("replay round {round}"),
        );
        assert_bits_eq(
            &want,
            &ct.par_map(4, &xs),
            &format!("compiled round {round}"),
        );
    }
}
