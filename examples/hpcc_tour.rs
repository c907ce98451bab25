//! Section VII tour: run DGEMM/HPL/FFT natively, then regenerate the
//! Fig. 8 / Fig. 9 library comparisons from the model.
//!
//! Run with: `cargo run --release --example hpcc_tour`

use ookami::hpcc::dgemm::{dgemm_blocked, dgemm_micro, dgemm_naive, gemm_flops};
use ookami::hpcc::fft::Fft;
use ookami::hpcc::figures::{figure8, figure9, render_figure8, render_figure9};
use ookami::hpcc::hpl::lu_factor_solve;
use std::time::Instant;

fn main() {
    // DGEMM maturity ladder, natively measured.
    let n = 256;
    let a: Vec<f64> = (0..n * n)
        .map(|i| ((i * 37) % 101) as f64 * 0.01 - 0.5)
        .collect();
    let b: Vec<f64> = (0..n * n)
        .map(|i| ((i * 53) % 97) as f64 * 0.01 - 0.5)
        .collect();
    println!("== native DGEMM ({n}×{n}), three maturity levels ==");
    for (name, f) in [
        (
            "naive",
            dgemm_naive as fn(usize, usize, usize, f64, &[f64], &[f64], f64, &mut [f64]),
        ),
        ("blocked", dgemm_blocked),
        ("micro-kernel", dgemm_micro),
    ] {
        let mut c = vec![0.0; n * n];
        let t = Instant::now();
        f(n, n, n, 1.0, &a, &b, 0.0, &mut c);
        let dt = t.elapsed().as_secs_f64();
        println!(
            "  {name:<12} {:>8.2} ms  {:>6.2} GFLOP/s",
            dt * 1e3,
            gemm_flops(n, n, n) / dt / 1e9
        );
    }

    // HPL-style solve with the residual check.
    let hn = 256;
    let mut m: Vec<f64> = (0..hn * hn)
        .map(|i| ((i * 29) % 89) as f64 * 0.01 - 0.4)
        .collect();
    for i in 0..hn {
        m[i * hn + i] += 30.0;
    }
    let v: Vec<f64> = (0..hn).map(|i| (i as f64 * 0.37).sin()).collect();
    let t = Instant::now();
    let r = lu_factor_solve(&m, &v, hn, 32);
    println!(
        "\n== native HPL ({hn}×{hn}) ==\n  scaled residual {:.3e} (HPL passes < 16)  [{:?}, {:.0} MFLOP]",
        r.scaled_residual,
        t.elapsed(),
        r.flops / 1e6
    );

    // FFT round trip.
    let fft = Fft::new(1 << 16);
    let x: Vec<(f64, f64)> = (0..1 << 16)
        .map(|i| ((i as f64 * 0.01).sin(), (i as f64 * 0.007).cos()))
        .collect();
    let t = Instant::now();
    let y = fft.forward(&x);
    let dt = t.elapsed().as_secs_f64();
    let back = fft.inverse(&y);
    let err = x
        .iter()
        .zip(&back)
        .map(|(a, b)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt())
        .fold(0.0, f64::max);
    println!(
        "\n== native FFT (2^16) ==\n  forward {:.2} ms ({:.2} GFLOP/s), round-trip max err {err:.2e}",
        dt * 1e3,
        fft.flops() / dt / 1e9
    );

    println!("\n{}", render_figure8(&figure8()));
    println!("{}", render_figure9(&figure9()));
}
