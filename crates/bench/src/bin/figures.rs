//! Regenerate the paper's figures: `figures <id>|all [--csv]`.
//!
//! Also writes `target/bench/BENCH_figures.json` (shared `ookami-bench-v1` schema):
//! the row count per regenerated figure, with the obs counters/spans the
//! regeneration produced when built with `--features obs`.

use ookami_core::obs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    obs::reset();
    let obs_before = obs::snapshot();
    print!("{}", ookami_bench::run_figures(&which, csv));

    let mut report = obs::BenchReport::new("figures", &which);
    let names: Vec<&str> = if which == "all" {
        ookami_bench::ALL_FIGURES.to_vec()
    } else {
        vec![which.as_str()]
    };
    for n in names {
        if let Some((_, rows)) = ookami_bench::figure(n) {
            report.metric(&format!("{n}_rows"), rows.len() as f64);
        }
    }
    report
        .flag("csv", csv)
        .attach_obs(&obs::snapshot().since(&obs_before));
    let path = ookami_bench::bench_out("BENCH_figures.json");
    ookami_bench::write_report(&report, &path);
    eprintln!("wrote {path}");
}
