//! Fork/barrier overhead probe: persistent pool vs spawn-per-region.
//!
//! Times one empty parallel region at several team sizes for (a) the
//! seed runtime's spawn-per-region strategy and (b) the persistent worker
//! pool, as interleaved pairs: each pair runs `REPS` regions each way,
//! back to back, so host drift that moves both sides cancels in the
//! pair's ratio. Prints each side's per-region cost (its fastest pair,
//! like every rate the harness reports) and the median ratio per team,
//! then least-squares-fits the per-team pool costs into the
//! `BarrierCost` constants the OpenMP runtime model consumes
//! (`OmpModel::calibrated`). Writes `target/bench/BENCH_forkjoin.json`;
//! the run fails (exit 1) unless the pool is at least 5x cheaper than
//! spawning at an 8-thread team (`ratio_at_8`, the median of `PAIRS`
//! pair ratios, in the harness's bounds table). Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin forkjoin --release
//! ```

use ookami_bench::probe::{self, Cli, Probe};
use ookami_core::pool::{measure_pool_fork_join, measure_spawn_fork_join, Pool};
use ookami_mem::scaling::BarrierCost;

/// Interleaved spawn/pool pairs per team size.
const PAIRS: usize = 20;

/// Empty regions each side of a pair runs.
const REPS: u32 = 25;

fn main() {
    Cli {
        usage: "usage: forkjoin — fork/join cost per empty region, pool vs spawn-per-region",
        ..Cli::default()
    }
    .parse();
    let teams = [2usize, 4, 8, 16];
    let mut probe = Probe::start("forkjoin", "full");
    probe
        .report
        .metric("reps", f64::from(REPS))
        .metric("pairs", PAIRS as f64);

    println!("fork/join cost per empty region: fastest of {PAIRS} pairs, {REPS} regions a side");
    println!(
        "{:>7}  {:>12}  {:>12}  {:>8}",
        "team", "pool µs", "spawn µs", "ratio"
    );
    let mut samples: Vec<(usize, f64)> = Vec::new();
    for team in teams {
        let pool = Pool::new(team - 1);
        // Warm the pool so worker start-up is not billed to a region.
        pool.run(team, |_| {});
        let p = probe::pairs(
            PAIRS,
            || {
                measure_spawn_fork_join(team, REPS);
            },
            || {
                measure_pool_fork_join(&pool, team, REPS);
            },
        );
        let ratio = if team == 8 {
            probe.ratio("ratio_at_8", &p)
        } else {
            p.ratios().median()
        };
        let spawn_s = p.best_a() / f64::from(REPS);
        let pool_s = p.best_b() / f64::from(REPS);
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
        .metric("barrier_per_thread_us", fit.per_thread_us);
    probe.finish(&ookami_bench::bench_out("BENCH_forkjoin.json"));
}
