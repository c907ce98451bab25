//! Format-equivalence properties: SELL-C-σ is a *storage* transform, not
//! a numerical one. For any chunk width C and any sort window σ it must
//! reproduce CRS bitwise — the packer preserves each row's entry order
//! and only permutes row order, and the kernels accumulate per row in
//! stored order — while its padding economics obey the σ-sorting bounds.

use ookami_core::obs::{self, Counter};
use ookami_spmv::{run_sell_interp, sell_trace, Crs, GatherHints, SellCSigma};
use proptest::prelude::*;

fn x_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| (1.0 + i as f64).recip()).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pin of the whole format family: CRS == SELL-C-σ bitwise for
    /// *any* admissible (C, σ) over ragged random matrices.
    #[test]
    fn sell_equals_crs_bitwise_for_any_c_sigma(
        n_rows in 1usize..48,
        n_cols in 1usize..64,
        max_per_row in 0usize..9,
        seed in 0u64..10_000,
        c in 1usize..12,
        sigma in 1usize..96,
    ) {
        let m = Crs::ragged(n_rows, n_cols, max_per_row.min(n_cols), seed);
        let x = x_for(m.n_cols);
        let s = SellCSigma::from_crs(&m, c, sigma);
        prop_assert_eq!(&bits(&s.spmv_ref(&x)), &bits(&m.spmv_ref(&x)));
        // Structural conservation: padding only ever adds slots, and the
        // utilization ratio reflects exactly the real/padded split.
        prop_assert_eq!(s.nnz, m.nnz());
        prop_assert!(s.padded_nnz() >= s.nnz);
        if s.padded_nnz() > 0 {
            let util = s.lane_utilization();
            prop_assert!((util - s.nnz as f64 / s.padded_nnz() as f64).abs() < 1e-15);
            prop_assert!(util <= 1.0 + 1e-15);
        }
    }

    /// σ-sorting monotonicity at full window: sorting the whole matrix
    /// by row length never pads more than not sorting at all (σ = 1).
    #[test]
    fn full_sigma_never_pads_more_than_unsorted(
        n_rows in 1usize..48,
        max_per_row in 0usize..9,
        seed in 0u64..10_000,
        c in 1usize..12,
    ) {
        let m = Crs::ragged(n_rows, 32, max_per_row, seed);
        let unsorted = SellCSigma::from_crs(&m, c, 1);
        let sorted = SellCSigma::from_crs(&m, c, m.n_rows.max(1));
        prop_assert!(sorted.padded_nnz() <= unsorted.padded_nnz());
    }

    /// The emulated SELL kernel gathers exactly nnz elements of `x` —
    /// padding lanes are predicated off and never reach the gather
    /// accounting — independent of (C, σ).
    #[test]
    fn sell_gathers_exactly_nnz(
        n_rows in 1usize..32,
        max_per_row in 0usize..7,
        seed in 0u64..1000,
        c in 2usize..9,
        sigma in 1usize..48,
    ) {
        if !obs::enabled() {
            return;
        }
        let m = Crs::ragged(n_rows, 24, max_per_row, seed);
        let x = x_for(m.n_cols);
        let s = SellCSigma::from_crs(&m, c, sigma);
        let hints = GatherHints::uniform(c as u32);
        // This thread's counters: the tests beside this one gather too.
        let t0 = obs::thread_snapshot();
        std::hint::black_box(run_sell_interp(&s, &x, hints));
        let got = obs::thread_snapshot().since(&t0).get(Counter::GatherElems);
        prop_assert_eq!(got, m.nnz() as u64);
    }
}

#[test]
fn sigma_permutes_rows_never_entries() {
    // A directed witness for the bit-identity argument: build a matrix
    // whose rows would sum differently under re-ordered entries (large
    // cancellations), then check every (C, σ) anyway agrees.
    let rows: Vec<Vec<(usize, f64)>> = vec![
        vec![(0, 1.0e16), (1, 1.0), (2, -1.0e16)],
        vec![(3, -1.0)],
        vec![],
        vec![(1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4), (5, 0.5)],
        vec![(0, 1.0e-300), (5, 1.0e300)],
    ];
    let m = Crs::from_rows(6, &rows);
    let x: Vec<f64> = vec![1.0, 3.0, 1.0, 7.0, 0.5, 1.0e-300];
    let want: Vec<u64> = m.spmv_ref(&x).iter().map(|v| v.to_bits()).collect();
    for c in 1..=5 {
        for sigma in [1, 2, 3, 5] {
            let s = SellCSigma::from_crs(&m, c, sigma);
            let got: Vec<u64> = s.spmv_ref(&x).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "C={c} sigma={sigma}");
            let t = sell_trace(&s, &x, GatherHints::uniform(c as u32));
            let rep: Vec<u64> = ookami_spmv::run_sell_replay(&t, &s)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(rep, want, "replay C={c} sigma={sigma}");
        }
    }
}
