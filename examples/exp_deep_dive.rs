//! Section IV deep dive: the exponential function on SVE.
//!
//! Run with: `cargo run --release --example exp_deep_dive`
//!
//! Reproduces the paper's exp study end to end: the FEXPA instruction's
//! bit-level behaviour, accuracy (ulps) of every implementation, the
//! cycles/element of each toolchain's algorithm on the A64FX model, and
//! the VLA / fixed-width / unrolled loop-structure comparison.

use ookami::loops::sec4::{our_exp_cycles, render_sec4, toolchain_ladder, LoopStructure};
use ookami::sve::fexpa::{fexpa_input_for, fexpa_lane};
use ookami::vecmath::exp::{exp_slice, ExpVariant, PolyForm};
use ookami::vecmath::ulp::{measure, sample_range};

fn main() {
    println!("== FEXPA semantics: 2^(n/64) from 17 input bits ==");
    for n in [0i64, 1, 32, 64, -64, 640] {
        println!(
            "  fexpa(n={n:>4})  ->  {:.15e}   (2^({n}/64) = {:.15e})",
            fexpa_lane(fexpa_input_for(n)),
            (n as f64 / 64.0).exp2()
        );
    }

    println!("\n== Accuracy over x in [-23, 23] (the paper's Monte Carlo domain) ==");
    let xs = sample_range(-23.0, 23.0, 100_001);
    let want: Vec<f64> = xs.iter().map(|&x| x.exp()).collect();
    for (name, v) in [
        ("FEXPA + 5-term Horner       ", ExpVariant::FexpaHorner),
        ("FEXPA + 5-term Estrin       ", ExpVariant::FexpaEstrin),
        (
            "FEXPA + Estrin + fixed FMA  ",
            ExpVariant::FexpaEstrinCorrected,
        ),
        ("13-term, table-free (Cray)  ", ExpVariant::Poly13),
        ("13-term + Sleef hardening   ", ExpVariant::Poly13Sleef),
    ] {
        let got = exp_slice(8, &xs, v);
        let acc = measure(&got, &want);
        println!(
            "  {name}  max {:>2} ulp   mean {:.3} ulp",
            acc.max_ulp, acc.mean_ulp
        );
    }
    println!("  (paper: their kernel ≈ 6 ulp; 1–4 ulp \"common in vectorized libraries\")");

    println!("\n{}", render_sec4(&toolchain_ladder()));

    println!("== Estrin vs Horner on the A64FX model (cycles/element) ==");
    for st in LoopStructure::ALL {
        println!(
            "  {:<14}  horner {:.2}   estrin {:.2}",
            st.label(),
            our_exp_cycles(st, PolyForm::Horner, false),
            our_exp_cycles(st, PolyForm::Estrin, false),
        );
    }
    println!("\n(paper: 2.2 VLA / 2.0 fixed / 1.9 unrolled; Estrin slightly faster)");
}
