//! # ookami-bench — figure/table regenerators and measurement probes
//!
//! Binaries (run with `cargo run -p ookami-bench --release --bin <name>`;
//! every one takes `--help`):
//!
//! * regenerators: `figures [<id>|all] [--csv]`, `tables [<id>|all]`,
//!   `ablations`, `accuracy` (also writes `BENCH_accuracy.json`), and
//!   `report` (the full text report, or `--validate <file>...` /
//!   `--derive <file>` on report files);
//! * probes, each writing a `target/bench/BENCH_*.json` report and
//!   described in its own module doc: `svereplay`, `spmv`, `cachesim`,
//!   `forkjoin`, `ookamistat`, `ookamiprof` and `ookamicheck` (static
//!   verifier, translation validator, race check);
//! * the gate `benchdiff` (current reports vs the committed baselines).
//!
//! Every binary parses its arguments, and every probe runs, writes and
//! judges its report, through [`probe`]. Each regenerator evaluates its
//! figure once: the row function is the model evaluation and the text is
//! laid out from those rows.

pub mod ablations;
pub mod accuracy;
pub mod ecm;
pub mod family;
pub mod probe;

use std::path::Path;

use ookami_core::measure::{render_pivot, to_csv, Measurement};

/// Evaluate a figure by name once; returns its rows and the function that
/// lays them out as text, so a CSV caller renders nothing. `None` for an
/// unknown id.
pub fn figure(name: &str) -> Option<(Vec<Measurement>, fn(&[Measurement]) -> String)> {
    use ookami_hpcc::figures as hpcc;
    use ookami_loops::{fig1, fig2, sec4};
    use ookami_lulesh::table2;
    use ookami_npb::figures as npb;
    let (rows, render): (fn() -> Vec<Measurement>, fn(&[Measurement]) -> String) = match name {
        "fig1" => (fig1::figure1, fig1::render_figure1),
        "fig2" => (fig2::figure2, fig2::render_figure2),
        "sec4" => (sec4::toolchain_ladder, sec4::render_sec4),
        "fig3" => (npb::figure3, |r| {
            render_pivot(r, "Fig. 3 — NPB class C single-core runtime (s)", "app", 0)
        }),
        "fig4" => (npb::figure4, |r| {
            render_pivot(r, "Fig. 4 — NPB class C all-cores runtime (s)", "app", 1)
        }),
        "fig5" => (npb::figure5, |r| {
            render_pivot(r, "Fig. 5 — NPB parallel efficiency, A64FX/GCC", "app", 2)
        }),
        "fig6" => (npb::figure6, |r| {
            render_pivot(
                r,
                "Fig. 6 — NPB parallel efficiency, Skylake/Intel",
                "app",
                2,
            )
        }),
        "fig7" | "table2" => (table2::table2, table2::render_table2),
        "fig8" => (hpcc::figure8, hpcc::render_figure8),
        "fig9" => (hpcc::figure9, hpcc::render_figure9),
        _ => return None,
    };
    Some((rows(), render))
}

/// Every figure id, in paper order (`figure` also takes `table2` for
/// `fig7`).
pub const ALL_FIGURES: [&str; 10] = [
    "fig1", "fig2", "sec4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
];

/// Every table id, in paper order.
pub const ALL_TABLES: [&str; 3] = ["table1", "table2", "table3"];

/// Render one or all figures, optionally as CSV.
pub fn run_figures(which: &str, csv: bool) -> String {
    let names = if which == "all" {
        &ALL_FIGURES[..]
    } else {
        std::slice::from_ref(&which)
    };
    let mut out = String::new();
    for n in names {
        match figure(n) {
            Some((rows, _)) if csv => out.push_str(&to_csv(&rows)),
            Some((rows, render)) => {
                out.push_str(&render(&rows));
                out.push('\n');
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
    let names = if which == "all" {
        &ALL_TABLES[..]
    } else {
        std::slice::from_ref(&which)
    };
    let mut out = String::new();
    for n in names {
        match *n {
            "table1" => out.push_str(&render_table1()),
            "table2" => {
                use ookami_lulesh::table2::{render_table2, table2};
                out.push_str(&render_table2(&table2()));
            }
            "table3" => out.push_str(&ookami_uarch::peak::render_table3()),
            other => out.push_str(&format!("unknown table: {other}\n")),
        }
        out.push('\n');
    }
    out
}

/// Where a probe run writes its `BENCH_*.json` report: `target/bench/<file>`,
/// relative to the current directory, so a run from the repo root never
/// touches the committed baselines there.
/// Promoting a run to the baseline is a copy: `cp target/bench/BENCH_x.json .`.
pub fn bench_out(file: &str) -> String {
    format!("target/bench/{file}")
}

/// Write one file a probe produces: create `path`'s directory, then run
/// `write(path)` (e.g. `|p| report.write(p)`, which also validates a
/// `BenchReport`). On failure print `error: write <path>: <e>` and exit 2.
pub fn write_or_exit(path: &str, write: impl FnOnce(&str) -> std::io::Result<()>) {
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| write(path)) {
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
            let (rows, render) = figure(n).unwrap_or_else(|| panic!("missing {n}"));
            assert!(!render(&rows).is_empty(), "{n} rendered empty");
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
    fn ids_resolve_and_unknown_ids_do_not() {
        assert!(figure("table2").is_some(), "table2 is fig7's alias");
        assert!(figure("bogus").is_none());
        assert!(run_figures("bogus", false).contains("unknown figure: bogus"));
        for t in ALL_TABLES {
            assert!(!run_tables(t).contains("unknown table"), "{t}");
        }
        assert!(run_tables("bogus").contains("unknown table: bogus"));
    }

    #[test]
    fn csv_mode_produces_rows() {
        let csv = run_figures("fig1", true);
        assert!(csv.lines().count() > 20);
        assert!(csv.starts_with("experiment,"));
    }
}
