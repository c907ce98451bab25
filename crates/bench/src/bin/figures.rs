//! Regenerate the paper's figures: `figures [<id>|all] [--csv]`.
//!
//! Also writes `target/bench/BENCH_figures.json` (shared `ookami-bench-v1` schema):
//! the row count per regenerated figure, with the obs counters/spans the
//! regeneration produced when built with `--features obs`. An unknown id
//! prints the valid ones to stderr and exits 2 without writing a report.

use ookami_bench::probe::{usage_error, Cli, Probe};
use ookami_bench::ALL_FIGURES;
use ookami_core::measure::to_csv;

fn main() {
    let args = Cli {
        usage: "usage: figures [fig1|fig2|sec4|fig3|…|fig9|table2|all] [--csv] — text or CSV rows",
        switches: &["--csv"],
        positionals: 1,
        ..Cli::default()
    }
    .parse();
    let csv = args.has("--csv");
    let which = args.positionals.first().map_or("all", String::as_str);
    let names = if which == "all" {
        &ALL_FIGURES[..]
    } else {
        std::slice::from_ref(&which)
    };
    let mut probe = Probe::start("figures", which);
    for n in names {
        let Some((rows, render)) = ookami_bench::figure(n) else {
            usage_error(&format!(
                "unknown figure `{n}`; valid ids: {}, table2, all",
                ALL_FIGURES.join(", ")
            ))
        };
        if csv {
            print!("{}", to_csv(&rows));
        } else {
            println!("{}", render(&rows));
        }
        probe.report.metric(&format!("{n}_rows"), rows.len() as f64);
    }
    probe.report.flag("csv", csv);
    probe.finish(&ookami_bench::bench_out("BENCH_figures.json"));
}
