//! Differential properties across the SpMV/STREAM/stencil executors: the
//! interpreter, the replayer, parallel replay at several worker counts
//! and (where the trace compiles natively) the compiled closure must all
//! reproduce the fused scalar reference *bitwise* on arbitrary fixtures
//! — and, with obs compiled in, with identical counter totals, because
//! both sides mirror the same binds and the same predicates.

use ookami_core::obs::{self, Counter};
use ookami_spmv::{
    run_crs_interp, run_crs_replay, run_crs_replay_par, run_sell_interp, run_sell_replay,
    run_sell_replay_par, run_stream, stream_ref, stream_trace, Crs, GatherHints, SellCSigma,
    Stencil, StreamExec, StreamKernel,
};
use proptest::prelude::*;

fn x_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The deterministic model counters a serial executor accrues over a
/// closure, on this thread only: the tests beside this one count too.
fn counted(f: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let t0 = obs::thread_snapshot();
    f();
    obs::thread_snapshot().since(&t0).nonzero()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CRS: interpreter == replayer == parallel replay == scalar ref,
    /// bitwise, on ragged matrices (empty rows and tails included).
    #[test]
    fn crs_executors_agree_bitwise(
        n_rows in 1usize..40,
        n_cols in 1usize..48,
        max_per_row in 0usize..7,
        seed in 0u64..1000,
        tidx in 0usize..3,
    ) {
        let threads = [1usize, 2, 4][tidx];
        let m = Crs::ragged(n_rows, n_cols, max_per_row.min(n_cols), seed);
        let x = x_for(m.n_cols);
        let hints = GatherHints::uniform(8);
        let want = bits(&m.spmv_ref(&x));
        let t = ookami_spmv::crs_trace(&m, &x, 8, hints);
        prop_assert_eq!(&bits(&run_crs_interp(&m, &x, 8, hints)), &want);
        prop_assert_eq!(&bits(&run_crs_replay(&t, &m)), &want);
        prop_assert_eq!(&bits(&run_crs_replay_par(threads, &t, &m)), &want);
    }

    /// SELL-C-σ: same discipline, across chunk widths and sort windows.
    #[test]
    fn sell_executors_agree_bitwise(
        n_rows in 1usize..40,
        max_per_row in 0usize..7,
        seed in 0u64..1000,
        cidx in 0usize..4,
        sigma in 1usize..64,
    ) {
        let c = [2usize, 3, 4, 8][cidx];
        let m = Crs::ragged(n_rows, 32, max_per_row, seed);
        let x = x_for(m.n_cols);
        let hints = GatherHints::uniform(c as u32);
        let s = SellCSigma::from_crs(&m, c, sigma);
        let want = bits(&m.spmv_ref(&x));
        let t = ookami_spmv::sell_trace(&s, &x, hints);
        prop_assert_eq!(&bits(&run_sell_interp(&s, &x, hints)), &want);
        prop_assert_eq!(&bits(&run_sell_replay(&t, &s)), &want);
        prop_assert_eq!(&bits(&run_sell_replay_par(2, &t, &s)), &want);
    }

    /// STREAM: every kernel × executor × thread count is bit-faithful,
    /// including on lengths that leave a predicated tail.
    #[test]
    fn stream_executors_agree_bitwise(
        n in 1usize..200,
        kidx in 0usize..4,
        threads in 1usize..3,
    ) {
        let k = StreamKernel::ALL[kidx];
        let a: Vec<f64> = (0..n).map(|i| 0.25 + i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let bopt = (k.inputs() == 2).then_some(&b[..]);
        let want = bits(&stream_ref(k, &a, bopt));
        let t = stream_trace(k, 8);
        for exec in [StreamExec::Interp, StreamExec::Replay, StreamExec::Compiled] {
            prop_assert_eq!(
                &bits(&run_stream(&t, k, exec, threads, &a, bopt)),
                &want,
                "{} via {:?} x{}", k.name(), exec, threads
            );
        }
    }

    /// Stencil: replay equals the fused scalar sweep for arbitrary
    /// mass/kappa couplings on both lattices.
    #[test]
    fn stencil_replay_matches_reference(
        mass in -2.0f64..2.0,
        kappa in -1.0f64..1.0,
    ) {
        for st in [Stencil::d2(16, 8, mass, kappa), Stencil::d3(4, 4, 8, mass, kappa)] {
            let u = st.field();
            let want = bits(&st.apply_ref(&u));
            let t = st.trace(&u, 8, 8);
            prop_assert_eq!(&bits(&t.replay_map(&st.sites_f64())), &want);
            prop_assert_eq!(&bits(&st.apply_interp(&u, 8, 8)), &want);
        }
    }

    /// Counter identity: the interpreter and the replayer account the
    /// same work — same gathered elements, same bound bytes — because
    /// constants and `whilelt` are uncounted on both sides and the binds
    /// mirror each other stream for stream.
    #[test]
    fn interp_and_replay_count_identically(
        n_rows in 1usize..24,
        max_per_row in 0usize..6,
        seed in 0u64..500,
    ) {
        if !obs::enabled() {
            return;
        }
        let m = Crs::ragged(n_rows, 24, max_per_row, seed);
        let x = x_for(m.n_cols);
        let hints = GatherHints::uniform(8);
        let t = ookami_spmv::crs_trace(&m, &x, 8, hints);
        let ci = counted(|| { std::hint::black_box(run_crs_interp(&m, &x, 8, hints)); });
        let cr = counted(|| { std::hint::black_box(run_crs_replay(&t, &m)); });
        prop_assert_eq!(&ci, &cr);
        let gathered = ci.iter().find(|(k, _)| *k == Counter::GatherElems.name());
        let want = 3 * m.nnz() as u64;
        prop_assert_eq!(gathered.map_or(0, |(_, v)| *v), want);
    }
}

#[test]
fn nan_payloads_survive_every_stream_executor() {
    // Copy is an ORR move: even signaling-NaN payloads must round-trip.
    let weird = f64::from_bits(0x7ff0_dead_beef_0001);
    let a = vec![1.0, weird, -0.0, f64::INFINITY, 3.5];
    let t = stream_trace(StreamKernel::Copy, 8);
    for exec in [StreamExec::Interp, StreamExec::Replay, StreamExec::Compiled] {
        let got = run_stream(&t, StreamKernel::Copy, exec, 1, &a, None);
        assert_eq!(bits(&got), bits(&a), "{exec:?}");
    }
}
