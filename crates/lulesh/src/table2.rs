//! Table II / Fig. 7: LULESH timings across toolchains and variants.
//!
//! The paper reports Base and Vect, single-thread (st) and all-cores (mt),
//! for five toolchains. The striking Base row — ARM 2.030, CPE 2.055,
//! Fujitsu 2.052, GNU 2.054, Intel/x86 0.395 — shows (a) that the 1.0
//! reference code does not vectorize anywhere, making it a pure scalar-IPC
//! shoot-out the A64FX core loses ~5×, and (b) that the Sandy-Bridge-era
//! vectorized port transfers to SVE ("promising vectorization for LULESH
//! based on code tuned for Intel architectures").

use crate::variants::Variant;
use ookami_core::measure::{Measurement, Table};
use ookami_core::WorkloadProfile;
use ookami_toolchain::app_model::predict_default;
use ookami_toolchain::Compiler;
use ookami_uarch::{machines, Machine};

/// Total FLOPs of the timed LULESH run (calibrated so the Base row lands
/// at the paper's ~2.05 s scale on A64FX).
const LULESH_FLOPS: f64 = 2.4e9;

/// Workload profile for a LULESH variant.
pub fn lulesh_profile(variant: Variant) -> WorkloadProfile {
    match variant {
        // Reference 1.0 code: effectively unvectorized, branchy AoS loops.
        Variant::Base => WorkloadProfile::new("LULESH base", LULESH_FLOPS, 3e9)
            .with_vec_fraction(0.0)
            .with_stride_waste(0.4)
            .with_parallel(0.993, 2000.0, 1.2),
        // The vectorized port: about half the work moves into vector loops.
        Variant::Vect => WorkloadProfile::new("LULESH vect", LULESH_FLOPS, 3e9)
            .with_vec_fraction(0.5)
            .with_stride_waste(0.3)
            .with_parallel(0.993, 2000.0, 1.2),
    }
}

fn machine_for(c: Compiler) -> &'static Machine {
    match c {
        // The LULESH comparison node is the Xeon Gold 6130 (32 cores).
        Compiler::Intel => machines::skylake_6130(),
        _ => machines::a64fx(),
    }
}

/// All five toolchains of Table II.
pub const TOOLCHAINS: [Compiler; 5] = [
    Compiler::Arm,
    Compiler::Cray,
    Compiler::Fujitsu,
    Compiler::Gnu,
    Compiler::Intel,
];

/// One Table II cell: seconds for (compiler, variant, all_cores?).
pub fn time_s(c: Compiler, variant: Variant, all_cores: bool) -> f64 {
    let m = machine_for(c);
    let threads = if all_cores { m.cores_per_node } else { 1 };
    predict_default(&lulesh_profile(variant), c, m, threads)
}

/// Table II as measurements.
pub fn table2() -> Vec<Measurement> {
    let mut out = Vec::new();
    for c in TOOLCHAINS {
        for (variant, vtag) in [(Variant::Base, "base"), (Variant::Vect, "vect")] {
            for (mt, mtag) in [(false, "st"), (true, "mt")] {
                let m = machine_for(c);
                out.push(Measurement::new(
                    "table2",
                    &format!("{vtag}({mtag})"),
                    m.name,
                    c.label(),
                    if mt { m.cores_per_node } else { 1 },
                    time_s(c, variant, mt),
                    "seconds",
                ));
            }
        }
    }
    out
}

/// Render [`table2`]'s rows in the paper's layout: one line per compiler,
/// whose four rows come in column order.
pub fn render_table2(rows: &[Measurement]) -> String {
    let mut t = Table::new(
        "Table II / Fig. 7 — LULESH timings (paper: Base(st) ≈ 2.03–2.06 on A64FX vs 0.395 Intel; Vect(st) 1.31–1.58 vs 0.260)",
        &["compiler", "Base(st)", "Base(mt)", "Vect(st)", "Vect(mt)"],
    );
    for cells in rows.chunks(4) {
        t.row(&[
            cells[0].toolchain.clone(),
            format!("{:.3}", cells[0].value),
            format!("{:.4}", cells[1].value),
            format!("{:.3}", cells[2].value),
            format!("{:.4}", cells[3].value),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_st_is_uniform_on_a64fx_and_5x_on_intel() {
        let a64: Vec<f64> = [
            Compiler::Arm,
            Compiler::Cray,
            Compiler::Fujitsu,
            Compiler::Gnu,
        ]
        .iter()
        .map(|&c| time_s(c, Variant::Base, false))
        .collect();
        let spread = a64.iter().copied().fold(0.0, f64::max)
            / a64.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.05, "A64FX Base(st) spread {spread}: {a64:?}");
        // Magnitude ≈ 2.05 s and Intel ratio ≈ 5×.
        assert!((a64[0] / 2.05 - 1.0).abs() < 0.2, "Base(st) {}", a64[0]);
        let intel = time_s(Compiler::Intel, Variant::Base, false);
        let ratio = a64[0] / intel;
        assert!(ratio > 3.5 && ratio < 7.0, "Base(st) A64FX/Intel {ratio}");
    }

    #[test]
    fn vect_is_faster_than_base_everywhere() {
        for c in TOOLCHAINS {
            for mt in [false, true] {
                let b = time_s(c, Variant::Base, mt);
                let v = time_s(c, Variant::Vect, mt);
                assert!(v < b, "{c:?} mt={mt}: vect {v} vs base {b}");
            }
        }
    }

    #[test]
    fn vect_st_magnitudes() {
        // Paper: A64FX Vect(st) 1.31–1.58; Intel 0.260.
        for c in [
            Compiler::Arm,
            Compiler::Cray,
            Compiler::Fujitsu,
            Compiler::Gnu,
        ] {
            let v = time_s(c, Variant::Vect, false);
            assert!(v > 1.0 && v < 1.9, "{c:?} Vect(st) {v}");
        }
        let i = time_s(Compiler::Intel, Variant::Vect, false);
        assert!(i > 0.15 && i < 0.45, "Intel Vect(st) {i}");
    }

    #[test]
    fn mt_magnitudes_and_gap_narrows() {
        // Paper: Base(mt) ≈ 0.066 on A64FX, 0.0355 Intel — the node-level
        // gap shrinks from ~5× to ~2×.
        let a = time_s(Compiler::Gnu, Variant::Base, true);
        let i = time_s(Compiler::Intel, Variant::Base, true);
        assert!(a > 0.03 && a < 0.12, "A64FX Base(mt) {a}");
        let st_ratio = time_s(Compiler::Gnu, Variant::Base, false)
            / time_s(Compiler::Intel, Variant::Base, false);
        let mt_ratio = a / i;
        assert!(mt_ratio < st_ratio, "mt {mt_ratio} vs st {st_ratio}");
        assert!(
            mt_ratio > 1.0 && mt_ratio < 4.0,
            "Base(mt) ratio {mt_ratio}"
        );
    }

    #[test]
    fn table_renders_all_cells() {
        let rows = table2();
        assert_eq!(rows.len(), 20); // 5 compilers × 2 variants × 2 modes
        let txt = render_table2(&rows);
        assert!(txt.contains("fujitsu") && txt.contains("Vect(mt)"));
    }
}
