//! # ookami-bench — figure/table regenerators and micro-benchmarks
//!
//! Binaries (run with `cargo run -p ookami-bench --bin <name> --release`):
//!
//! * `figures <fig1|fig2|sec4|fig3|fig4|fig5|fig6|fig7|fig8|fig9|all> [--csv]`
//!   — regenerate any figure of the paper as a text table (or CSV rows);
//! * `tables <table1|table2|table3|all>` — regenerate the paper's tables;
//! * `forkjoin [reps]` — fork/barrier overhead probe: persistent pool vs
//!   spawn-per-region, plus fitted `BarrierCost` constants for the OpenMP
//!   runtime model.
//!
//! Criterion benches (run with `cargo bench -p ookami-bench`):
//!
//! * `loops_native` — the Section III loop suite, natively executed;
//! * `exp_bench` — exp implementations through the SVE emulator (Section IV);
//! * `npb_bench` — EP/CG/BT/SP/LU/UA kernels at small classes (Section V);
//! * `lulesh_bench` — Base vs Vect Sedov steps (Section VI);
//! * `hpcc_bench` — DGEMM/HPL/FFT kernels (Section VII);
//! * `mc_bench` — the Monte Carlo example, serial vs restructured;
//! * `fork_join` — empty-region cost of the pool vs spawn-per-region, and
//!   the three loop schedules.

pub mod ablations;
pub mod accuracy;
pub mod ecm;
pub mod family;

use std::path::Path;

use ookami_core::measure::{to_csv, Measurement};
use ookami_core::obs::BenchReport;

/// Render a figure by name; returns `(pretty_text, rows)`.
pub fn figure(name: &str) -> Option<(String, Vec<Measurement>)> {
    match name {
        "fig1" => Some((
            ookami_loops::fig1::render_figure1(),
            ookami_loops::fig1::figure1(),
        )),
        "fig2" => Some((
            ookami_loops::fig2::render_figure2(),
            ookami_loops::fig2::figure2(),
        )),
        "sec4" => Some((
            ookami_loops::sec4::render_sec4(),
            ookami_loops::sec4::toolchain_ladder(),
        )),
        "fig3" => Some((
            ookami_npb::figures::render(
                &ookami_npb::figures::figure3(),
                "Fig. 3 — NPB class C single-core runtime (s)",
                0,
            ),
            ookami_npb::figures::figure3(),
        )),
        "fig4" => Some((
            ookami_npb::figures::render(
                &ookami_npb::figures::figure4(),
                "Fig. 4 — NPB class C all-cores runtime (s)",
                1,
            ),
            ookami_npb::figures::figure4(),
        )),
        "fig5" => Some((
            ookami_npb::figures::render(
                &ookami_npb::figures::figure5(),
                "Fig. 5 — NPB parallel efficiency, A64FX/GCC",
                2,
            ),
            ookami_npb::figures::figure5(),
        )),
        "fig6" => Some((
            ookami_npb::figures::render(
                &ookami_npb::figures::figure6(),
                "Fig. 6 — NPB parallel efficiency, Skylake/Intel",
                2,
            ),
            ookami_npb::figures::figure6(),
        )),
        "fig7" | "table2" => Some((
            ookami_lulesh::table2::render_table2(),
            ookami_lulesh::table2::table2(),
        )),
        "fig8" => Some((
            ookami_hpcc::figures::render_figure8(),
            ookami_hpcc::figures::figure8(),
        )),
        "fig9" => Some((
            ookami_hpcc::figures::render_figure9(),
            ookami_hpcc::figures::figure9(),
        )),
        _ => None,
    }
}

/// Every figure id, in paper order.
pub const ALL_FIGURES: [&str; 10] = [
    "fig1", "fig2", "sec4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
];

/// Render one or all figures, optionally as CSV.
pub fn run_figures(which: &str, csv: bool) -> String {
    let mut out = String::new();
    let names: Vec<&str> = if which == "all" {
        ALL_FIGURES.to_vec()
    } else {
        vec![which]
    };
    for n in names {
        match figure(n) {
            Some((text, rows)) => {
                if csv {
                    out.push_str(&to_csv(&rows));
                } else {
                    out.push_str(&text);
                    out.push('\n');
                }
            }
            None => out.push_str(&format!("unknown figure: {n}\n")),
        }
    }
    out
}

/// Render Table I (compiler flags).
pub fn render_table1() -> String {
    use ookami_core::measure::Table;
    use ookami_toolchain::Compiler;
    let mut t = Table::new(
        "Table I — compiler flags used in loop vectorization tests",
        &["compiler", "version", "flags"],
    );
    for c in [
        Compiler::Fujitsu,
        Compiler::Arm,
        Compiler::Cray,
        Compiler::Gnu,
        Compiler::Intel,
    ] {
        t.row(&[
            c.label().to_string(),
            c.version().to_string(),
            c.flags().to_string(),
        ]);
    }
    t.render()
}

/// Render a table by name.
pub fn run_tables(which: &str) -> String {
    let mut out = String::new();
    let names: Vec<&str> = if which == "all" {
        vec!["table1", "table2", "table3"]
    } else {
        vec![which]
    };
    for n in names {
        match n {
            "table1" => out.push_str(&render_table1()),
            "table2" => out.push_str(&ookami_lulesh::table2::render_table2()),
            "table3" => out.push_str(&ookami_uarch::peak::render_table3()),
            other => out.push_str(&format!("unknown table: {other}\n")),
        }
        out.push('\n');
    }
    out
}

/// Where a probe run writes its `BENCH_*.json` report: `target/bench/<file>`,
/// relative to the current directory like `target/COMPILE_REPORT.json`, so
/// a run from the repo root never touches the committed baselines there.
/// Promoting a run to the baseline is a copy: `cp target/bench/BENCH_x.json .`.
pub fn bench_out(file: &str) -> String {
    format!("target/bench/{file}")
}

/// Write `report` to `path`, creating its directory; on failure print a
/// diagnostic and exit 2.
pub fn write_report(report: &BenchReport, path: &str) {
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| report.write(path)) {
        eprintln!("error: write {path}: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_renders() {
        for n in ALL_FIGURES {
            let (text, rows) = figure(n).unwrap_or_else(|| panic!("missing {n}"));
            assert!(!text.is_empty(), "{n} rendered empty");
            assert!(!rows.is_empty(), "{n} has no rows");
            assert!(
                rows.iter().all(|r| r.value.is_finite()),
                "{n} has non-finite values"
            );
        }
    }

    #[test]
    fn tables_render() {
        let t = run_tables("all");
        for needle in ["-KSVE", "Vect(mt)", "Ookami", "57.6"] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn csv_mode_produces_rows() {
        let csv = run_figures("fig1", true);
        assert!(csv.lines().count() > 20);
        assert!(csv.starts_with("experiment,"));
    }
}
