//! Fork/barrier overhead probe: persistent pool vs spawn-per-region.
//!
//! Measures the cost of one empty parallel region at several team sizes
//! for (a) the persistent worker pool and (b) the seed runtime's
//! spawn-per-region strategy, prints the per-region costs and their
//! ratio, then least-squares-fits the pool samples into the
//! `BarrierCost` constants the OpenMP runtime model consumes
//! (`OmpModel::calibrated`). Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin forkjoin --release [reps]
//! ```

use ookami_core::obs;
use ookami_core::pool::{measure_pool_fork_join, measure_spawn_fork_join, Pool};
use ookami_mem::scaling::BarrierCost;

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let teams = [2usize, 4, 8, 16];
    obs::reset();
    let obs_before = obs::snapshot();
    let mut report = obs::BenchReport::new("forkjoin", "full");
    report.metric("reps", reps as f64);

    println!("fork/join cost per empty region ({reps} reps per point)");
    println!(
        "{:>7}  {:>12}  {:>12}  {:>8}",
        "team", "pool µs", "spawn µs", "ratio"
    );
    let mut samples: Vec<(usize, f64)> = Vec::new();
    let mut ratio_at_8 = 0.0;
    for team in teams {
        let pool = Pool::new(team - 1);
        let pool_s = measure_pool_fork_join(&pool, team, reps);
        let spawn_s = measure_spawn_fork_join(team, reps.min(500));
        let ratio = spawn_s / pool_s;
        if team == 8 {
            ratio_at_8 = ratio;
        }
        samples.push((team, pool_s));
        report.metric(&format!("pool_us_team{team}"), pool_s * 1e6);
        report.metric(&format!("spawn_us_team{team}"), spawn_s * 1e6);
        println!(
            "{:>7}  {:>12.3}  {:>12.3}  {:>7.1}x",
            team,
            pool_s * 1e6,
            spawn_s * 1e6,
            ratio
        );
    }

    let fit = BarrierCost::from_samples(&samples);
    println!();
    println!(
        "fitted BarrierCost: base_us = {:.3}, per_thread_us = {:.4}",
        fit.base_us, fit.per_thread_us
    );
    println!("(feed these into OmpModel::calibrated to replace the per-compiler guesses)");
    println!();
    report
        .metric("barrier_base_us", fit.base_us)
        .metric("barrier_per_thread_us", fit.per_thread_us)
        .metric("ratio_at_8", ratio_at_8)
        .flag("gate", ratio_at_8 >= 5.0)
        .attach_obs(&obs::snapshot().since(&obs_before));
    let path = ookami_bench::bench_out("BENCH_forkjoin.json");
    ookami_bench::write_or_exit(&path, |p| report.write(p));
    println!("wrote {path}");
    if ratio_at_8 >= 5.0 {
        println!("OK: pool fork/join is {ratio_at_8:.1}x cheaper than spawn at 8 threads (>= 5x)");
    } else {
        println!("WARN: pool advantage at 8 threads is only {ratio_at_8:.1}x (expected >= 5x)");
        std::process::exit(1);
    }
}
