//! Golden-file snapshots of the figure regenerators. The figure pipeline
//! is a pure function of the machine/toolchain models (jitter comes from
//! fixed seeds), so its text tables and CSV must be byte-stable: any model
//! change that moves a published number shows up as a readable diff here
//! instead of silently shifting the paper's figures.
//!
//! Regenerate after an *intentional* model change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test figures_golden
//! git diff tests/golden/   # review every moved number
//! ```

use ookami_core::measure::{render_pivot, to_csv};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test figures_golden",
            path.display()
        )
    });
    assert_eq!(
        want, actual,
        "{name} drifted from its golden snapshot; if the model change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn npb_figure_tables_are_stable() {
    check(
        "npb_fig3.txt",
        &render_pivot(&ookami_npb::figures::figure3(), "Fig 3", "app", 1),
    );
    check(
        "npb_fig4.txt",
        &render_pivot(&ookami_npb::figures::figure4(), "Fig 4", "app", 1),
    );
    check(
        "npb_fig5.txt",
        &render_pivot(&ookami_npb::figures::figure5(), "Fig 5", "app", 2),
    );
    check(
        "npb_fig6.txt",
        &render_pivot(&ookami_npb::figures::figure6(), "Fig 6", "app", 2),
    );
}

#[test]
fn npb_figure_csv_is_stable() {
    let mut rows = ookami_npb::figures::figure3();
    rows.extend(ookami_npb::figures::figure4());
    rows.extend(ookami_npb::figures::figure5());
    rows.extend(ookami_npb::figures::figure6());
    check("npb_figures.csv", &to_csv(&rows));
}

#[test]
fn hpcc_figure_tables_are_stable() {
    use ookami_hpcc::figures::{figure8, figure9, render_figure8, render_figure9};
    check("hpcc_fig8.txt", &render_figure8(&figure8()));
    check("hpcc_fig9.txt", &render_figure9(&figure9()));
}

#[test]
fn hpcc_figure_csv_is_stable() {
    let mut rows = ookami_hpcc::figures::figure8();
    rows.extend(ookami_hpcc::figures::figure9());
    check("hpcc_figures.csv", &to_csv(&rows));
}

/// Ordering stability is what makes the snapshots meaningful: rerunning a
/// regenerator must produce the identical row sequence, not just the same
/// set of rows.
#[test]
fn regenerators_are_deterministic() {
    assert_eq!(
        to_csv(&ookami_npb::figures::figure3()),
        to_csv(&ookami_npb::figures::figure3())
    );
    assert_eq!(
        to_csv(&ookami_hpcc::figures::figure9()),
        to_csv(&ookami_hpcc::figures::figure9())
    );
    use ookami_hpcc::figures::{figure8, render_figure8};
    assert_eq!(render_figure8(&figure8()), render_figure8(&figure8()));
}

/// Every artifact the `figures` and `tables` binaries print, byte for byte:
/// the text tables (including Figs. 1–2, Section IV, Fig. 7/Table II and
/// Tables I–III, which no other snapshot covers) and the CSV rows.
#[test]
fn every_artifact_is_stable() {
    check("figures_all.txt", &ookami_bench::run_figures("all", false));
    check("figures_all.csv", &ookami_bench::run_figures("all", true));
    check("tables_all.txt", &ookami_bench::run_tables("all"));
}
