//! Print the math-library accuracy study (the paper's deferred topic) and
//! write it as `target/bench/BENCH_accuracy.json` in the shared `ookami-bench-v1`
//! schema (max/mean ulp per implementation, plus the obs counters the
//! emulated sweeps produced when built with `--features obs`).

use ookami_core::obs;

fn main() {
    obs::reset();
    let obs_before = obs::snapshot();
    let rows = ookami_bench::accuracy::accuracy_study();
    print!("{}", ookami_bench::accuracy::render_rows(&rows));

    let mut report = obs::BenchReport::new("accuracy", "full");
    for r in &rows {
        let key = format!("{} {}", r.function, r.implementation);
        report.metric(&format!("max_ulp {key}"), r.acc.max_ulp as f64);
        report.metric(&format!("mean_ulp {key}"), r.acc.mean_ulp);
    }
    report
        .metric("implementations", rows.len() as f64)
        .attach_obs(&obs::snapshot().since(&obs_before));
    let path = ookami_bench::bench_out("BENCH_accuracy.json");
    ookami_bench::write_or_exit(&path, |p| report.write(p));
    println!("wrote {path}");
}
