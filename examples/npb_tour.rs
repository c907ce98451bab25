//! Section V tour: run the NPB ports natively at small classes (with
//! verification), then regenerate the class-C figures from the model.
//!
//! Run with: `cargo run --release --example npb_tour`

use ookami::core::measure::render_pivot;
use ookami::npb::figures::{figure3, figure4, figure5};
use ookami::npb::{bt::Bt, cg, ep, lu::Lu, sp::Sp, ua::Ua, Class};
use std::time::Instant;

fn main() {
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    println!("== Native runs (class S scale, {threads} threads) ==\n");

    // EP with the official verification sums.
    let t = Instant::now();
    let r = ep::run(Class::S, threads);
    let (sx, sy) = ep::reference_sums(Class::S).unwrap();
    println!(
        "EP.S : sx {:+.9e} (official {:+.9e})  |rel err| {:.1e}   [{:?}]",
        r.sx,
        sx,
        ((r.sx - sx) / sx).abs(),
        t.elapsed()
    );
    println!("       sy {:+.9e} (official {:+.9e})", r.sy, sy);

    // CG with the official verification zeta.
    let t = Instant::now();
    let r = cg::run(Class::S, threads);
    let zeta = cg::reference_zeta(Class::S).unwrap();
    println!(
        "CG.S : zeta {:.13} (official {:.13})  |err| {:.1e}   [{:?}]",
        r.zeta,
        zeta,
        (r.zeta - zeta).abs(),
        t.elapsed()
    );

    // The structured-grid trio: run a few steps, report the update norms.
    let t = Instant::now();
    let mut bt = Bt::new(Class::S);
    let d = bt.run(5, threads);
    println!(
        "BT.S : 5 ADI steps, final ‖Δu‖ = {d:.3e}   [{:?}]",
        t.elapsed()
    );
    let t = Instant::now();
    let mut sp = Sp::new(Class::S);
    let d = sp.run(5, threads);
    println!(
        "SP.S : 5 ADI steps, final ‖Δu‖ = {d:.3e}   [{:?}]",
        t.elapsed()
    );
    let t = Instant::now();
    let mut lus = Lu::new(Class::S);
    let d = lus.run(5, threads);
    println!(
        "LU.S : 5 SSOR steps, final ‖Δu‖ = {d:.3e}   [{:?}]",
        t.elapsed()
    );

    // UA: adaptive mesh growth + conservation.
    let t = Instant::now();
    let mut ua = Ua::new(Class::S);
    let n0 = ua.num_elements();
    ua.run(25, threads);
    println!(
        "UA.S : mesh {} -> {} elements; heat conserved to {:.1e}   [{:?}]\n",
        n0,
        ua.num_elements(),
        (ua.total_heat() - ua.injected).abs() / ua.injected.max(1.0),
        t.elapsed()
    );

    println!("== Class-C model figures ==\n");
    for (rows, title, decimals) in [
        (figure3(), "Fig. 3 — single-core runtime (s), class C", 0),
        (figure4(), "Fig. 4 — all-cores runtime (s), class C", 1),
        (figure5(), "Fig. 5 — parallel efficiency on A64FX (GCC)", 2),
    ] {
        println!("{}", render_pivot(&rows, title, "app", decimals));
    }
}
