//! Fig. 8 and Fig. 9 regenerators.

use crate::interconnect::{fft_gflops_multi, hpl_gflops_multi, MpiStack};
use crate::libs::{
    dgemm_gflops_per_core, dgemm_percent_of_peak, fft_gflops_per_node, hpl_gflops_per_node, BlasLib,
};
use ookami_core::measure::{Measurement, Table};
use ookami_core::stats::Stats;
use ookami_uarch::{machines, Machine};

/// Deterministic ±σ "measurement noise" (the paper plots stddev bars from
/// repeated runs; we model run-to-run jitter at 1.5%).
fn with_jitter(base: f64, key: u64) -> Stats {
    let mut s = Stats::new();
    let mut h = key.wrapping_mul(0x9E3779B97F4A7C15);
    for _ in 0..5 {
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        s.push(base * (1.0 + 0.015 * (2.0 * u - 1.0)));
    }
    s
}

/// The (system, library) bars of Fig. 8.
pub fn fig8_points() -> Vec<(&'static Machine, BlasLib)> {
    vec![
        (machines::a64fx(), BlasLib::FujitsuBlas),
        (machines::a64fx(), BlasLib::CrayLibSci),
        (machines::a64fx(), BlasLib::ArmPl),
        (machines::a64fx(), BlasLib::OpenBlas),
        (machines::skylake_8160(), BlasLib::Mkl),
        (machines::knl_7250(), BlasLib::Mkl),
        (machines::epyc_7742(), BlasLib::Aocl),
    ]
}

/// Fig. 8 — per-core DGEMM GFLOP/s with percent-of-peak labels.
pub fn figure8() -> Vec<Measurement> {
    fig8_points()
        .into_iter()
        .enumerate()
        .map(|(i, (m, lib))| {
            let base = dgemm_gflops_per_core(lib, m);
            Measurement::new(
                "fig8",
                "DGEMM",
                m.name,
                lib.label(),
                1,
                base,
                "gflops_per_core",
            )
            .with_stats(&with_jitter(base, i as u64 + 1))
        })
        .collect()
}

/// Render [`figure8`]'s rows; the % of peak is evaluated here, from the
/// noise-free model rate of each bar (text only).
pub fn render_figure8(rows: &[Measurement]) -> String {
    let mut t = Table::new(
        "Fig. 8 — DGEMM per-core GFLOP/s (embarrassingly parallel), % of peak in parens",
        &["system", "library", "GF/s/core", "stddev", "% of peak"],
    );
    for (r, (m, lib)) in rows.iter().zip(fig8_points()) {
        t.row(&[
            r.machine.clone(),
            r.toolchain.clone(),
            format!("{:.1}", r.value),
            format!("{:.2}", r.stddev),
            format!("({:.0}%)", dgemm_percent_of_peak(lib, m)),
        ]);
    }
    t.render()
}

/// Node counts of the multi-node panels.
pub const NODE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Fig. 9 — all four panels as measurements.
pub fn figure9() -> Vec<Measurement> {
    let a = machines::a64fx();
    let mut out = Vec::new();
    // (A) HPL single node, per library.
    for (i, lib) in BlasLib::A64FX_LIBS.iter().enumerate() {
        let base = hpl_gflops_per_node(*lib, a);
        out.push(
            Measurement::new("fig9A", "HPL", a.name, lib.label(), 1, base, "gflops_node")
                .with_stats(&with_jitter(base, 100 + i as u64)),
        );
    }
    for (m, lib) in [
        (machines::skylake_8160(), BlasLib::Mkl),
        (machines::knl_7250(), BlasLib::Mkl),
        (machines::epyc_7742(), BlasLib::Aocl),
    ] {
        let base = hpl_gflops_per_node(lib, m);
        out.push(
            Measurement::new("fig9A", "HPL", m.name, lib.label(), 1, base, "gflops_node")
                .with_stats(&with_jitter(base, m.cores_per_node as u64)),
        );
    }
    // (B) HPL multi-node: Fujitsu BLAS + Fujitsu MPI vs ARMPL + open MPI.
    for &n in &NODE_COUNTS {
        out.push(Measurement::new(
            "fig9B",
            "HPL",
            a.name,
            "Fujitsu BLAS+MPI",
            n,
            hpl_gflops_multi(BlasLib::FujitsuBlas, MpiStack::Fujitsu, a, n),
            "gflops",
        ));
        out.push(Measurement::new(
            "fig9B",
            "HPL",
            a.name,
            "ARMPL+openMPI",
            n,
            hpl_gflops_multi(BlasLib::ArmPl, MpiStack::OpenSource, a, n),
            "gflops",
        ));
    }
    // (C) FFT single node, per library.
    for (i, lib) in BlasLib::A64FX_LIBS.iter().enumerate() {
        let base = fft_gflops_per_node(*lib, a);
        out.push(
            Measurement::new("fig9C", "FFT", a.name, lib.label(), 1, base, "gflops_node")
                .with_stats(&with_jitter(base, 200 + i as u64)),
        );
    }
    for (m, lib) in [
        (machines::skylake_8160(), BlasLib::Mkl),
        (machines::epyc_7742(), BlasLib::Aocl),
    ] {
        let base = fft_gflops_per_node(lib, m);
        out.push(
            Measurement::new("fig9C", "FFT", m.name, lib.label(), 1, base, "gflops_node")
                .with_stats(&with_jitter(base, 300 + m.cores_per_node as u64)),
        );
    }
    // (D) FFT multi-node (Fujitsu FFTW).
    for &n in &NODE_COUNTS {
        out.push(Measurement::new(
            "fig9D",
            "FFT",
            a.name,
            "Fujitsu FFTW",
            n,
            fft_gflops_multi(BlasLib::FujitsuBlas, a, n),
            "gflops",
        ));
    }
    out
}

/// Render [`figure9`]'s rows, one table per panel.
pub fn render_figure9(rows: &[Measurement]) -> String {
    let mut out = String::new();
    for (panel, unit_fmt) in [("fig9A", 0usize), ("fig9B", 0), ("fig9C", 1), ("fig9D", 1)] {
        let mut t = Table::new(
            match panel {
                "fig9A" => "Fig. 9A — HPL single node (GFLOP/s)",
                "fig9B" => "Fig. 9B — HPL multi-node (GFLOP/s total)",
                "fig9C" => "Fig. 9C — FFT single node (GFLOP/s)",
                _ => "Fig. 9D — FFT multi-node (GFLOP/s total)",
            },
            &["system", "library", "nodes", "GF/s"],
        );
        for r in rows.iter().filter(|r| r.experiment == panel) {
            t.row(&[
                r.machine.clone(),
                r.toolchain.clone(),
                r.threads.to_string(),
                format!("{:.*}", unit_fmt, r.value),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_complete_with_error_bars() {
        let rows = figure8();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.value > 0.0);
            assert!(
                r.stddev > 0.0 && r.stddev < 0.05 * r.value,
                "{}: {}",
                r.toolchain,
                r.stddev
            );
        }
        // Fujitsu BLAS bar highest among A64FX libraries.
        let a64: Vec<&Measurement> = rows
            .iter()
            .filter(|r| r.machine == "Ookami A64FX")
            .collect();
        let fj = a64
            .iter()
            .find(|r| r.toolchain == "Fujitsu BLAS")
            .unwrap()
            .value;
        assert!(a64.iter().all(|r| r.value <= fj + 1e-9));
    }

    #[test]
    fn fig9_panels_present() {
        let rows = figure9();
        for panel in ["fig9A", "fig9B", "fig9C", "fig9D"] {
            assert!(
                rows.iter().any(|r| r.experiment == panel),
                "{panel} missing"
            );
        }
        let txt = render_figure9(&rows);
        assert!(txt.contains("Fig. 9B") && txt.contains("ARMPL"));
    }

    #[test]
    fn fig9b_crossover() {
        let rows = figure9();
        let get = |tc: &str, n: usize| {
            rows.iter()
                .find(|r| r.experiment == "fig9B" && r.toolchain == tc && r.threads == n)
                .unwrap()
                .value
        };
        assert!(get("Fujitsu BLAS+MPI", 1) > get("ARMPL+openMPI", 1));
        assert!(get("ARMPL+openMPI", 8) > get("Fujitsu BLAS+MPI", 8));
    }

    #[test]
    fn fig9d_flat() {
        let rows = figure9();
        let d: Vec<f64> = rows
            .iter()
            .filter(|r| r.experiment == "fig9D")
            .map(|r| r.value)
            .collect();
        assert!(d.last().unwrap() / d.first().unwrap() < 2.0, "{d:?}");
    }
}
