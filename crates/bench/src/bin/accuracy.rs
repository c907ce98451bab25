//! Print the math-library accuracy study (the paper's deferred topic) and
//! write it as `target/bench/BENCH_accuracy.json` in the shared `ookami-bench-v1`
//! schema (max/mean ulp per implementation, plus the obs counters the
//! emulated sweeps produced when built with `--features obs`).

use ookami_bench::probe::{Cli, Probe};

fn main() {
    Cli {
        usage: "usage: accuracy — math-library accuracy study, also written as BENCH_accuracy.json",
        ..Cli::default()
    }
    .parse();
    let mut probe = Probe::start("accuracy", "full");
    let rows = ookami_bench::accuracy::accuracy_study();
    print!("{}", ookami_bench::accuracy::render_rows(&rows));

    for r in &rows {
        let key = format!("{} {}", r.function, r.implementation);
        probe
            .report
            .metric(&format!("max_ulp {key}"), r.acc.max_ulp as f64)
            .metric(&format!("mean_ulp {key}"), r.acc.mean_ulp);
    }
    probe.report.metric("implementations", rows.len() as f64);
    probe.finish(&ookami_bench::bench_out("BENCH_accuracy.json"));
}
