//! Fork/barrier overhead probe: persistent pool vs spawn-per-region.
//!
//! Measures the cost of one empty parallel region at several team sizes
//! for (a) the persistent worker pool and (b) the seed runtime's
//! spawn-per-region strategy, prints the per-region costs and their
//! ratio, then least-squares-fits the pool samples into the
//! `BarrierCost` constants the OpenMP runtime model consumes
//! (`OmpModel::calibrated`). Writes `target/bench/BENCH_forkjoin.json`;
//! the run fails (exit 1) unless the pool is at least 5x cheaper than
//! spawning at an 8-thread team (`ratio_at_8`, in the harness's bounds
//! table). Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin forkjoin --release
//! ```

use ookami_bench::probe::{Cli, Probe};
use ookami_core::pool::{measure_pool_fork_join, measure_spawn_fork_join, Pool};
use ookami_mem::scaling::BarrierCost;

/// Empty regions timed per pool point (spawn points take at most 500).
const REPS: u32 = 2_000;

fn main() {
    Cli {
        usage: "usage: forkjoin — fork/join cost per empty region, pool vs spawn-per-region",
        ..Cli::default()
    }
    .parse();
    let teams = [2usize, 4, 8, 16];
    let mut probe = Probe::start("forkjoin", "full");
    probe.report.metric("reps", f64::from(REPS));

    println!("fork/join cost per empty region ({REPS} reps per point)");
    println!(
        "{:>7}  {:>12}  {:>12}  {:>8}",
        "team", "pool µs", "spawn µs", "ratio"
    );
    let mut samples: Vec<(usize, f64)> = Vec::new();
    let mut ratio_at_8 = 0.0;
    for team in teams {
        let pool = Pool::new(team - 1);
        let pool_s = measure_pool_fork_join(&pool, team, REPS);
        let spawn_s = measure_spawn_fork_join(team, REPS.min(500));
        let ratio = spawn_s / pool_s;
        if team == 8 {
            ratio_at_8 = ratio;
        }
        samples.push((team, pool_s));
        probe
            .report
            .metric(&format!("pool_us_team{team}"), pool_s * 1e6)
            .metric(&format!("spawn_us_team{team}"), spawn_s * 1e6);
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
    probe
        .report
        .metric("barrier_base_us", fit.base_us)
        .metric("barrier_per_thread_us", fit.per_thread_us)
        .metric("ratio_at_8", ratio_at_8);
    probe.finish(&ookami_bench::bench_out("BENCH_forkjoin.json"));
}
