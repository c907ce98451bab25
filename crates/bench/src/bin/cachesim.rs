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
//! 2. **Parallel floor** (obs-independent, only on hosts with ≥ 4 cores): pool-parallel replay at 4 threads must be at least 2×
//!    the serial simulator on the same trace. `cachesim_par_speedup` is
//!    the median over interleaved serial/parallel pairs.
//!
//! Writes `target/bench/BENCH_mem.json` (schema `ookami-bench-v1`) with the headline
//! A64FX numbers plus `host_cores`, which the harness's bounds table
//! reads. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin cachesim --release
//! ```

use ookami_bench::probe::{self, Cli, Probe};
use ookami_core::auto_threads;
use ookami_mem::{AccessStats, CacheSim, ShardedCacheSim};
use ookami_uarch::{machines, MemSpec};

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

/// Exact-equality check for one machine across dispatch strategies.
/// Returns false (and prints) on any mismatch.
fn identity_check(probe: &mut Probe, name: &str, spec: MemSpec, trace: &[(u64, usize)]) -> bool {
    let want = serial_stats(spec, trace);
    let got = ShardedCacheSim::new(spec, 8).replay(trace);
    let mut ok = probe.check(
        got == want,
        format_args!("{name}: sharded serial replay {got:?} != serial {want:?}"),
    );
    for threads in [0usize, 1, 2, 4] {
        let mut s = ShardedCacheSim::new(spec, 8);
        let got = s.replay_par(threads, trace);
        ok &= probe.check(
            got == want,
            format_args!(
                "{name}: replay_par({threads}) over {} shard(s) {got:?} != serial {want:?}",
                s.n_shards()
            ),
        );
    }
    ok
}

fn main() {
    Cli {
        usage: "usage: cachesim — sharded vs serial cache sim",
        ..Cli::default()
    }
    .parse();
    let mut probe = Probe::start("cachesim", "full");
    let n = 600_000;
    let reps = 5;
    let trace = synth_trace(n);
    let host_cores = auto_threads();

    // --- identity gates on both machine geometries ---
    let a64 = machines::a64fx().mem;
    let skx = machines::skylake_6140().mem;
    let identical = identity_check(&mut probe, "a64fx", a64, &trace)
        & identity_check(&mut probe, "skylake_6140", skx, &trace);

    // --- throughput: serial vs pool-parallel sharded, A64FX geometry ---
    let stats = serial_stats(a64, &trace);
    let lines = stats.accesses;
    let mut serial = CacheSim::new(a64);
    serial.replay(trace.iter().copied()); // warm
    let mut sharded = ShardedCacheSim::new(a64, 8);
    let shards = sharded.n_shards();
    sharded.replay_par(4, &trace); // warm
    let k = reps * 4;
    let par = probe::pairs(
        k,
        || {
            std::hint::black_box(serial.replay(trace.iter().copied()));
        },
        || {
            std::hint::black_box(sharded.replay_par(4, &trace));
        },
    );
    let serial_lps = lines as f64 / par.best_a();
    let par_lps = lines as f64 / par.best_b();
    let par_speedup = probe.ratio("cachesim_par_speedup", &par);

    println!("cachesim: {n} accesses ({lines} line touches), a64fx geometry");
    println!(
        "  serial      : {serial_lps:>12.0} lines/s  (l1 {} l2 {} l3 {} mem {} evict {})",
        stats.l1_hits, stats.l2_hits, stats.l3_hits, stats.mem, stats.evictions
    );
    println!(
        "  sharded par4: {par_lps:>12.0} lines/s  ({par_speedup:.2}x median of {k} pairs, \
         {shards} shard(s), {host_cores} host core(s))"
    );
    println!("  identity (serial == sharded == par over both machines): {identical}");

    probe
        .report
        .metric("accesses", n as f64)
        .metric("line_touches", lines as f64)
        .metric("l1_hits", stats.l1_hits as f64)
        .metric("l2_hits", stats.l2_hits as f64)
        .metric("l3_hits", stats.l3_hits as f64)
        .metric("mem_fills", stats.mem as f64)
        .metric("evictions", stats.evictions as f64)
        .metric("serial_lines_per_sec", serial_lps)
        .metric("par4_lines_per_sec", par_lps)
        .metric("pairs", k as f64)
        .metric("shards", shards as f64)
        .metric("host_cores", host_cores as f64)
        .flag("machine", "a64fx");
    probe.finish(&ookami_bench::bench_out("BENCH_mem.json"));
}
