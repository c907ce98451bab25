//! Regenerate the paper's figures: `figures <id>|all [--csv]`.
//!
//! Also writes `target/bench/BENCH_figures.json` (shared `ookami-bench-v1` schema):
//! the row count per regenerated figure, with the obs counters/spans the
//! regeneration produced when built with `--features obs`. An unknown id
//! prints the valid ones to stderr and exits 2 without writing a report.

use ookami_bench::ALL_FIGURES;
use ookami_core::measure::to_csv;
use ookami_core::obs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);
    let names = if which == "all" {
        &ALL_FIGURES[..]
    } else {
        std::slice::from_ref(&which)
    };
    obs::reset();
    let obs_before = obs::snapshot();
    let mut report = obs::BenchReport::new("figures", which);
    for n in names {
        let Some((text, rows)) = ookami_bench::figure(n) else {
            eprintln!(
                "error: unknown figure `{n}`; valid ids: {}, table2, all",
                ALL_FIGURES.join(", ")
            );
            std::process::exit(2);
        };
        if csv {
            print!("{}", to_csv(&rows));
        } else {
            println!("{text}");
        }
        report.metric(&format!("{n}_rows"), rows.len() as f64);
    }
    report
        .flag("csv", csv)
        .attach_obs(&obs::snapshot().since(&obs_before));
    let path = ookami_bench::bench_out("BENCH_figures.json");
    ookami_bench::write_or_exit(&path, |p| report.write(p));
    eprintln!("wrote {path}");
}
