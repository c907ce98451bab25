//! Section VI demo: the Sedov blast with both LULESH flavors, plus the
//! Table II model.
//!
//! Run with: `cargo run --release --example lulesh_demo`

use ookami::lulesh::table2::{render_table2, table2};
use ookami::lulesh::{run_variant, Hydro, Variant};
use std::time::Instant;

fn main() {
    // Run the blast and watch the shock move outward.
    let n = 16;
    let mut h = Hydro::sedov(n, 1.0);
    println!("Sedov blast on a {n}³ mesh (energy 1.0 at the origin corner):\n");
    println!("  t          cycles  total energy  shock front (x-axis element)");
    for target in [0.005, 0.02, 0.05, 0.1] {
        h.run(target, 100_000);
        let profile = h.pressure_profile_x();
        let pmax = profile.iter().copied().fold(0.0, f64::max);
        let front = profile.iter().rposition(|&p| p > 0.01 * pmax).unwrap_or(0);
        println!(
            "  {:<9.4}  {:>6}  {:>12.6}  {:>3} / {}",
            h.time,
            h.cycles,
            h.total_energy(),
            front,
            n
        );
    }
    println!("\n(total energy stays ≈ 1.0: the discretization is work-compatible)\n");

    // Base vs Vect: identical physics, different code shape.
    for v in [Variant::Base, Variant::Vect] {
        let t = Instant::now();
        let (time, cycles, energy, p0) = run_variant(v, 12, 0.05, 10_000);
        println!(
            "{:<4}: t={time:.4} in {cycles} cycles, energy {energy:.6}, p[0]={p0:.4e}   [{:?}]",
            v.label(),
            t.elapsed()
        );
    }

    println!("\n{}", render_table2(&table2()));
}
