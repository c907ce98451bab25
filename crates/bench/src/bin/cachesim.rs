//! Cache-simulator probe: the sharded set-associative simulator
//! (`ookami_mem::ShardedCacheSim`) vs the serial `CacheSim` on
//! deterministic synthetic traces.
//!
//! Two gates:
//!
//! 1. **Identity** (always enforced, exit 1 on failure): the sharded
//!    simulator — serial dispatch and pool-parallel replay at several
//!    thread counts — must produce hit/miss/eviction counts *exactly*
//!    equal to the serial simulator, on both the A64FX and Skylake
//!    memory geometries. Sharding by set index is a bijection that
//!    preserves per-set LRU order, so any drift is a bug, not noise.
//! 2. **Parallel floor** (full mode, obs-independent, only on hosts with
//!    ≥ 4 cores): pool-parallel replay at 4 threads must be at least 2×
//!    the serial simulator on the same trace.
//!
//! Writes `target/bench/BENCH_mem.json` (schema `ookami-bench-v1`) with the headline
//! A64FX numbers plus `host_cores`, so `benchdiff` can apply the same
//! capability-gated floor to committed baselines. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin cachesim --release [--smoke]
//! ```

use ookami_core::{auto_threads, obs};
use ookami_mem::{AccessStats, CacheSim, ShardedCacheSim};
use ookami_uarch::{machines, MemSpec};
use std::time::Instant;

/// Deterministic synthetic trace mixing the three behaviors the cache
/// model has to get right: streaming fills (compulsory misses + high reuse
/// within a line), power-of-two strides (conflict evictions), and an LCG
/// scatter (capacity pressure across many sets).
fn synth_trace(n: usize) -> Vec<(u64, usize)> {
    let mut out = Vec::with_capacity(n);
    let third = n / 3;
    // Streaming doubles over a working set larger than L2.
    for i in 0..third {
        out.push(((i as u64 * 8) % (1 << 24), 8));
    }
    // Strided doubles: 4 KiB stride folds onto few sets.
    for i in 0..third {
        out.push(((i as u64 * 4096) % (1 << 26), 8));
    }
    // LCG scatter with occasional multi-line vector touches.
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    while out.len() < n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let addr = (x >> 17) % (1 << 25);
        let bytes = if x.trailing_zeros() >= 3 { 256 } else { 8 };
        out.push((addr, bytes));
    }
    out
}

fn serial_stats(spec: MemSpec, trace: &[(u64, usize)]) -> AccessStats {
    let mut c = CacheSim::new(spec);
    c.replay(trace.iter().copied())
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Exact-equality check for one machine across dispatch strategies.
/// Returns false (and prints) on any mismatch.
fn identity_check(name: &str, spec: MemSpec, trace: &[(u64, usize)]) -> bool {
    let want = serial_stats(spec, trace);
    let mut ok = true;
    let mut sharded = ShardedCacheSim::new(spec, 8);
    let got = sharded.replay(trace);
    if got != want {
        eprintln!("FAIL: {name}: sharded serial replay {got:?} != serial {want:?}");
        ok = false;
    }
    for threads in [0usize, 1, 2, 4] {
        let mut s = ShardedCacheSim::new(spec, 8);
        let got = s.replay_par(threads, trace);
        if got != want {
            eprintln!(
                "FAIL: {name}: replay_par({threads}) over {} shard(s) {got:?} != serial {want:?}",
                s.n_shards()
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    obs::reset();
    let obs_before = obs::snapshot();
    let n = if smoke { 30_000 } else { 600_000 };
    let reps = if smoke { 2 } else { 5 };
    let trace = synth_trace(n);
    let host_cores = auto_threads();

    // --- identity gates on both machine geometries ---
    let a64 = machines::a64fx().mem;
    let skx = machines::skylake_6140().mem;
    let gate = identity_check("a64fx", a64, &trace) && identity_check("skylake_6140", skx, &trace);

    // --- throughput: serial vs pool-parallel sharded, A64FX geometry ---
    let stats = serial_stats(a64, &trace);
    let lines = stats.accesses;
    let mut serial = CacheSim::new(a64);
    serial.replay(trace.iter().copied()); // warm
    let serial_s = best_of(reps, || {
        std::hint::black_box(serial.replay(trace.iter().copied()));
    });
    let mut sharded = ShardedCacheSim::new(a64, 8);
    let shards = sharded.n_shards();
    sharded.replay_par(4, &trace); // warm
    let par_s = best_of(reps, || {
        std::hint::black_box(sharded.replay_par(4, &trace));
    });
    let serial_lps = lines as f64 / serial_s;
    let par_lps = lines as f64 / par_s;
    let par_speedup = serial_s / par_s;

    println!("cachesim: {n} accesses ({lines} line touches), a64fx geometry");
    println!(
        "  serial      : {serial_lps:>12.0} lines/s  (l1 {} l2 {} l3 {} mem {} evict {})",
        stats.l1_hits, stats.l2_hits, stats.l3_hits, stats.mem, stats.evictions
    );
    println!(
        "  sharded par4: {par_lps:>12.0} lines/s  ({par_speedup:.2}x, {shards} shard(s), \
         {host_cores} host core(s))"
    );
    println!("  identity (serial == sharded == par over both machines): {gate}");

    let mut report = obs::BenchReport::new("cachesim", if smoke { "smoke" } else { "full" });
    report
        .metric("accesses", n as f64)
        .metric("line_touches", lines as f64)
        .metric("l1_hits", stats.l1_hits as f64)
        .metric("l2_hits", stats.l2_hits as f64)
        .metric("l3_hits", stats.l3_hits as f64)
        .metric("mem_fills", stats.mem as f64)
        .metric("evictions", stats.evictions as f64)
        .metric("serial_lines_per_sec", serial_lps)
        .metric("par4_lines_per_sec", par_lps)
        .metric("cachesim_par_speedup", par_speedup)
        .metric("shards", shards as f64)
        .metric("host_cores", host_cores as f64)
        .flag("machine", "a64fx")
        .flag("gate", gate)
        .attach_obs(&obs::snapshot().since(&obs_before));
    let path = ookami_bench::bench_out("BENCH_mem.json");
    ookami_bench::write_or_exit(&path, |p| report.write(p));
    println!("wrote {path}");

    if !gate {
        std::process::exit(1);
    }
    // Capability-gated parallel floor, mirroring benchdiff: on < 4 cores
    // the pool runs shard tasks inline and the ratio is meaningless.
    if !smoke && host_cores >= 4 && par_speedup < 2.0 {
        eprintln!("FAIL: sharded par4 speedup {par_speedup:.2}x < 2x on a {host_cores}-core host");
        std::process::exit(1);
    }
    if smoke {
        println!("OK (smoke): identity holds; par4 {par_speedup:.2}x (not gated)");
    } else {
        println!("OK: identity holds; par4 {par_speedup:.2}x");
    }
}
