//! Set-associative multi-level cache simulator.
//!
//! The simulator replays an address trace through up to three inclusive
//! levels with true-LRU replacement. It is used to ground the locality
//! claims in the loop suite (the Section III working sets are sized to
//! "collectively fill the L1 cache"), to quantify the effect of the A64FX's
//! 256-byte line versus the x86 64-byte line, and in tests of the gather
//! analysis.
//!
//! A round of accesses made many times in a row goes through
//! [`CacheSim::repeat`], which walks passes only until one hits L1 on
//! every line and counts the rest.
//!
//! Two drivers share the level machinery: the serial [`CacheSim`] and the
//! [`ShardedCacheSim`], which partitions the hierarchy by set index across
//! the worker pool so full-sweep replays stop being serial. Sharding is
//! exact, not approximate — see the invariant note on [`ShardedCacheSim`].

use ookami_core::par_chunks_mut;
use ookami_uarch::MemSpec;

/// One cache level: `sets × assoc` ways with true-LRU replacement,
/// addressed by line number.
///
/// A way stores the full line number as its tag, so a lookup needs no
/// division, and a recency stamp from a per-level clock that ticks once
/// per access; stamp 0 marks an empty way. Valid stamps are therefore
/// distinct and ≥ 1, so a strict-min scan over a set's stamps picks its
/// first empty way if it has one and its LRU way otherwise.
#[derive(Debug, Clone)]
struct Level {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two, so the set index is a
    /// mask; other set counts (SKX's 24,576-set L3) index with `%`.
    set_mask: Option<u64>,
    assoc: usize,
    /// Set `s` owns `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Way>,
    clock: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    line: u64,
    /// Clock value of the last touch; 0 = empty.
    stamp: u64,
}

/// Result of one line access at one level: hit, or a filling miss that may
/// have displaced a resident line.
#[derive(Debug, Clone, Copy)]
struct LineOutcome {
    hit: bool,
    evicted: bool,
}

impl Level {
    /// A level with an explicit set count — the sharded simulator carves
    /// each full-size level into `sets / n_shards`-set slices.
    fn with_geometry(sets: usize, assoc: usize) -> Self {
        assert!(sets > 0 && assoc > 0);
        Level {
            sets,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            assoc,
            ways: vec![Way::default(); sets * assoc],
            clock: 0,
        }
    }

    /// Access one line. Misses fill (allocate-on-miss); `evicted` reports
    /// whether the fill displaced a resident line.
    #[inline]
    fn access(&mut self, line: u64) -> LineOutcome {
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets as u64,
        } as usize;
        self.clock += 1;
        let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
        // One pass: return on a hit, else remember the strict-min stamp.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, w) in ways.iter_mut().enumerate() {
            if w.line == line && w.stamp != 0 {
                w.stamp = self.clock;
                return LineOutcome {
                    hit: true,
                    evicted: false,
                };
            }
            if w.stamp < oldest {
                oldest = w.stamp;
                victim = i;
            }
        }
        let evicted = oldest != 0;
        ways[victim] = Way {
            line,
            stamp: self.clock,
        };
        LineOutcome {
            hit: false,
            evicted,
        }
    }

    fn flush(&mut self) {
        self.ways.fill(Way::default());
        self.clock = 0;
    }
}

/// Set count of a level sized `bytes` with `assoc` ways of `line_bytes`
/// lines (shared by the serial simulator and the shard carver).
fn level_sets(bytes: usize, assoc: usize, line_bytes: usize) -> usize {
    assert!(bytes > 0 && assoc > 0 && line_bytes.is_power_of_two());
    let lines = (bytes / line_bytes).max(assoc);
    (lines / assoc).max(1)
}

/// Associativity of the optional L3 (not part of [`MemSpec`]).
const L3_ASSOC: usize = 16;

/// The inclusive L1/L2/(L3) stack walked one line at a time: all of
/// [`CacheSim`], and one shard of [`ShardedCacheSim`].
#[derive(Debug, Clone)]
struct Hierarchy {
    l1: Level,
    l2: Level,
    l3: Option<Level>,
}

impl Hierarchy {
    /// The levels of `spec` with every set count divided by `n` (1 for
    /// the full-size serial hierarchy).
    fn carved(spec: &MemSpec, n: usize) -> Self {
        let (s1, s2, s3) = spec_sets(spec);
        Hierarchy {
            l1: Level::with_geometry(s1 / n, spec.l1_assoc),
            l2: Level::with_geometry(s2 / n, spec.l2_assoc),
            l3: s3.map(|s| Level::with_geometry(s / n, L3_ASSOC)),
        }
    }

    /// Walk `line` down the levels until one hits, filling every level
    /// that missed, and count the outcome into `stats`.
    #[inline]
    fn access_line(&mut self, line: u64, stats: &mut AccessStats) {
        stats.accesses += 1;
        let o = self.l1.access(line);
        stats.evictions += u64::from(o.evicted);
        if o.hit {
            stats.l1_hits += 1;
        } else {
            self.below_l1(line, stats);
        }
    }

    /// The L1-miss tail of [`Hierarchy::access_line`]. Kept out of line so
    /// that callers inline only the L1 probe: most accesses hit L1, and
    /// inlining all three levels into an address generator's loops costs
    /// more than the call.
    #[inline(never)]
    fn below_l1(&mut self, line: u64, stats: &mut AccessStats) {
        let o = self.l2.access(line);
        stats.evictions += u64::from(o.evicted);
        if o.hit {
            stats.l2_hits += 1;
            return;
        }
        if let Some(l3) = &mut self.l3 {
            let o = l3.access(line);
            stats.evictions += u64::from(o.evicted);
            if o.hit {
                stats.l3_hits += 1;
                return;
            }
        }
        stats.mem += 1;
    }

    fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        if let Some(l3) = &mut self.l3 {
            l3.flush();
        }
    }
}

/// Full-size set counts of `spec`'s L1, L2 and optional L3.
fn spec_sets(spec: &MemSpec) -> (usize, usize, Option<usize>) {
    (
        level_sets(spec.l1_bytes, spec.l1_assoc, spec.line_bytes),
        level_sets(spec.l2_bytes, spec.l2_assoc, spec.line_bytes),
        spec.l3
            .map(|(bytes, _, _)| level_sets(bytes, L3_ASSOC, spec.line_bytes)),
    )
}

/// Lines `[first, last]` touched by `bytes` bytes at `addr` (at least
/// one), for lines of `1 << shift` bytes.
#[inline]
fn line_span(addr: u64, bytes: usize, shift: u32) -> (u64, u64) {
    (addr >> shift, (addr + bytes.max(1) as u64 - 1) >> shift)
}

/// Hit/miss/eviction counts from a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    /// Accesses served by main memory.
    pub mem: u64,
    /// Resident lines displaced by fills, summed over every level.
    pub evictions: u64,
}

impl AccessStats {
    /// Component-wise sum — the sharded simulator's merge step.
    fn accumulate(&mut self, o: &AccessStats) {
        self.accesses += o.accesses;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.l3_hits += o.l3_hits;
        self.mem += o.mem;
        self.evictions += o.evictions;
    }

    fn since(&self, before: &AccessStats) -> AccessStats {
        AccessStats {
            accesses: self.accesses - before.accesses,
            l1_hits: self.l1_hits - before.l1_hits,
            l2_hits: self.l2_hits - before.l2_hits,
            l3_hits: self.l3_hits - before.l3_hits,
            mem: self.mem - before.mem,
            evictions: self.evictions - before.evictions,
        }
    }
    pub fn l1_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }

    /// Average load-to-use latency under `spec`'s level latencies.
    pub fn avg_latency(&self, spec: &MemSpec) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let l3lat = spec.l3.map_or(spec.mem_latency, |(_, lat, _)| lat);
        (self.l1_hits as f64 * spec.l1_latency
            + self.l2_hits as f64 * spec.l2_latency
            + self.l3_hits as f64 * l3lat
            + self.mem as f64 * spec.mem_latency)
            / self.accesses as f64
    }

    /// Bytes fetched from main memory (miss traffic), given the line size.
    pub fn mem_bytes(&self, spec: &MemSpec) -> u64 {
        self.mem * spec.line_bytes as u64
    }

    /// Lines crossing the L1↔L2 link: every access the L1 could not
    /// serve (fills from L2, L3 or memory all traverse it). One of the
    /// two transfer volumes the ECM model in `obs::derive` consumes.
    /// Writeback/eviction traffic is not counted separately, matching
    /// the simulator's write-allocate store treatment.
    pub fn l1_l2_lines(&self) -> u64 {
        self.l2_hits + self.l3_hits + self.mem
    }

    /// Lines crossing the L2↔memory link (through L3 where one exists) —
    /// the ECM model's memory-transfer volume.
    pub fn l2_mem_lines(&self) -> u64 {
        self.mem
    }
}

/// A single-core view of one machine's cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheSim {
    spec: MemSpec,
    /// `log2(line_bytes)`: the line of an address is `addr >> line_shift`.
    line_shift: u32,
    levels: Hierarchy,
    pub stats: AccessStats,
}

impl CacheSim {
    pub fn new(spec: MemSpec) -> Self {
        CacheSim {
            spec,
            line_shift: spec.line_bytes.trailing_zeros(),
            levels: Hierarchy::carved(&spec, 1),
            stats: AccessStats::default(),
        }
    }

    pub fn spec(&self) -> &MemSpec {
        &self.spec
    }

    /// Access `bytes` starting at `addr`; each touched line counts once.
    #[inline]
    pub fn access(&mut self, addr: u64, bytes: usize) {
        let (first, last) = line_span(addr, bytes, self.line_shift);
        for line in first..=last {
            self.levels.access_line(line, &mut self.stats);
        }
    }

    /// Make the accesses of `round` `reps` times in a row: the same
    /// stats and the same later behaviour as [`CacheSim::replay`] over
    /// `round` repeated `reps` times.
    ///
    /// Passes are walked until one hits L1 on every line; the passes
    /// left are added to `accesses` and `l1_hits` without touching a set.
    /// That is exact under true LRU. An all-hit pass fills nothing, so
    /// every set keeps its lines and the next pass hits them all again.
    /// It leaves each set's recency order as the pass itself sets it, so
    /// every later pass ends in that same order. Skipping them leaves
    /// the L1 stamps in the same relative order, and L2 and L3 are never
    /// reached. A round with more lines in one set than the set has ways
    /// never has an all-hit pass, so it is walked in full.
    #[inline]
    pub fn repeat(&mut self, round: &[(u64, usize)], reps: usize) {
        if reps == 1 {
            for &(addr, bytes) in round {
                self.access(addr, bytes);
            }
        } else {
            self.repeat_passes(round, reps);
        }
    }

    /// The passes of [`CacheSim::repeat`]. Kept out of line so that
    /// callers inline only the one-pass walk: every run of a gather
    /// stream is one element, and inlining this loop at each run site
    /// costs those streams more than the call.
    #[inline(never)]
    fn repeat_passes(&mut self, round: &[(u64, usize)], reps: usize) {
        for left in (0..reps as u64).rev() {
            let (accesses, l1_hits) = (self.stats.accesses, self.stats.l1_hits);
            for &(addr, bytes) in round {
                self.access(addr, bytes);
            }
            let lines = self.stats.accesses - accesses;
            if self.stats.l1_hits - l1_hits == lines {
                self.stats.accesses += left * lines;
                self.stats.l1_hits += left * lines;
                return;
            }
        }
    }

    /// Replay a slice of (addr, bytes) accesses.
    pub fn replay(&mut self, trace: impl IntoIterator<Item = (u64, usize)>) -> AccessStats {
        let before = self.stats;
        for (a, b) in trace {
            self.access(a, b);
        }
        self.stats.since(&before)
    }

    /// Drop all cached state and counters.
    pub fn reset(&mut self) {
        self.levels.flush();
        self.stats = AccessStats::default();
    }

    /// Warm the hierarchy by streaming over a buffer once.
    pub fn warm(&mut self, base: u64, bytes: usize) {
        let lb = self.spec.line_bytes;
        let mut a = base;
        let end = base + bytes as u64;
        while a < end {
            self.access(a, 8);
            a += lb as u64;
        }
    }
}

/// One set-index partition of the full hierarchy: every level carved down
/// to `sets / n_shards` sets, with its own stats and LRU clocks.
#[derive(Debug, Clone)]
struct Shard {
    /// This shard's line residue: it owns lines with
    /// `line & (n_shards - 1) == r`.
    r: u64,
    levels: Hierarchy,
    stats: AccessStats,
}

/// [`CacheSim`] partitioned by set index across the worker pool.
///
/// Sharding is **exact**. Take `n` a power of two dividing every level's
/// set count `S`, and write a line as `L = q·n + r` with `r < n`. In the
/// serial level, `L` lives in set `L mod S = n·(q mod S/n) + r` under tag
/// `L`. Shard `r` sees the local line `q = L >> log2 n`; its carved level
/// (`S/n` sets) puts it in set `q mod (S/n)` under tag `q`. For a fixed
/// `r`, `L ↔ q` is one-to-one and the two set maps agree up to the fixed
/// `·n + r`, so serial set `n·j + r` and carved set `j` of shard `r` hold
/// the same lines, and two tags match in one iff they match in the other.
/// Every access to one serial set carries the same residue `r`, so it
/// lands in exactly one shard, in serial order; per-shard LRU clocks
/// preserve the serial per-set recency order (LRU only compares stamps
/// within a set). Hence hit/miss/eviction counts are identical to
/// [`CacheSim`] on any trace, access by access — the property tests pin
/// this against the serial simulator and a textbook-LRU oracle.
///
/// `n` is the largest power of two ≤ the requested shard count that
/// divides every level's set count (1 if the hint is 0 or geometry
/// forbids sharding, degenerating to the serial simulator).
#[derive(Debug, Clone)]
pub struct ShardedCacheSim {
    spec: MemSpec,
    /// `log2(line_bytes)`, as in [`CacheSim`].
    line_shift: u32,
    /// `log2(n_shards)`: shard of a line is `line & (n_shards - 1)`, the
    /// shard-local line is `line >> shift`.
    shift: u32,
    shards: Vec<Shard>,
}

impl ShardedCacheSim {
    pub fn new(spec: MemSpec, shards_hint: usize) -> Self {
        let (s1, s2, s3) = spec_sets(&spec);
        // Largest power of two ≤ hint dividing every level's set count.
        let mut n = shards_hint.max(1).next_power_of_two();
        if n > shards_hint.max(1) {
            n >>= 1;
        }
        let align = |sets: usize| 1usize << sets.trailing_zeros().min(63);
        n = n.min(align(s1)).min(align(s2));
        if let Some(s3) = s3 {
            n = n.min(align(s3));
        }
        let shards = (0..n as u64)
            .map(|r| Shard {
                r,
                levels: Hierarchy::carved(&spec, n),
                stats: AccessStats::default(),
            })
            .collect();
        ShardedCacheSim {
            spec,
            line_shift: spec.line_bytes.trailing_zeros(),
            shift: n.trailing_zeros(),
            shards,
        }
    }

    pub fn spec(&self) -> &MemSpec {
        &self.spec
    }

    /// Shards actually carved (≤ the hint; 1 means effectively serial).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Serial access path (single address, no pool round trip).
    pub fn access(&mut self, addr: u64, bytes: usize) {
        let mask = self.shards.len() as u64 - 1;
        let (first, last) = line_span(addr, bytes, self.line_shift);
        for line in first..=last {
            let shard = &mut self.shards[(line & mask) as usize];
            shard
                .levels
                .access_line(line >> self.shift, &mut shard.stats);
        }
    }

    /// Replay a trace serially (shard dispatch inline, no pool).
    pub fn replay(&mut self, trace: &[(u64, usize)]) -> AccessStats {
        let before = self.stats();
        for &(a, b) in trace {
            self.access(a, b);
        }
        self.stats().since(&before)
    }

    /// Replay a trace with one pool task per shard: every worker scans
    /// the whole trace and simulates only its shard's lines. Deterministic
    /// and bit-identical to [`ShardedCacheSim::replay`] — shards never
    /// share a serial set, and the merge sums per-shard stats in shard
    /// index order. `threads == 0` means auto.
    pub fn replay_par(&mut self, threads: usize, trace: &[(u64, usize)]) -> AccessStats {
        let before = self.stats();
        let line_shift = self.line_shift;
        let mask = self.shards.len() as u64 - 1;
        let shift = self.shift;
        par_chunks_mut(threads, &mut self.shards, 1, |_, chunk| {
            for shard in chunk.iter_mut() {
                for &(addr, bytes) in trace {
                    let (first, last) = line_span(addr, bytes, line_shift);
                    for line in first..=last {
                        if line & mask == shard.r {
                            shard.levels.access_line(line >> shift, &mut shard.stats);
                        }
                    }
                }
            }
        });
        self.stats().since(&before)
    }

    /// Merged stats, summed in shard index order (deterministic).
    pub fn stats(&self) -> AccessStats {
        let mut total = AccessStats::default();
        for s in &self.shards {
            total.accumulate(&s.stats);
        }
        total
    }

    /// Drop all cached state and counters.
    pub fn reset(&mut self) {
        for s in &mut self.shards {
            s.levels.flush();
            s.stats = AccessStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_uarch::machines;

    fn a64fx_spec() -> MemSpec {
        machines::a64fx().mem
    }

    fn skx_spec() -> MemSpec {
        machines::skylake_6140().mem
    }

    #[test]
    fn l1_resident_stream_hits_after_warm() {
        let mut c = CacheSim::new(a64fx_spec());
        // 32 KiB working set in a 64 KiB L1.
        c.warm(0, 32 * 1024);
        c.stats = AccessStats::default();
        let st = c.replay((0..4096).map(|i| (i * 8u64, 8usize)));
        assert_eq!(st.mem, 0, "{st:?}");
        assert!(st.l1_hit_rate() > 0.999, "{st:?}");
    }

    #[test]
    fn streaming_larger_than_l2_misses_to_memory() {
        let mut c = CacheSim::new(a64fx_spec());
        // Stream 64 MiB, touching one double per line: every line misses.
        let lb = a64fx_spec().line_bytes as u64;
        let n = (64 * 1024 * 1024) / a64fx_spec().line_bytes;
        let st = c.replay((0..n as u64).map(|i| (i * lb, 8usize)));
        assert_eq!(st.mem, n as u64);
        assert_eq!(st.l1_hits, 0);
    }

    #[test]
    fn line_size_difference_a64fx_vs_skx() {
        // A dense 8-byte-stride stream over 16 KiB touches 4× fewer lines
        // on A64FX (256-B lines) than on SKX (64-B lines) but the miss
        // *bytes* are identical.
        let mut a = CacheSim::new(a64fx_spec());
        let mut s = CacheSim::new(skx_spec());
        // Make both cold-miss every new line by streaming far.
        let n = 1 << 20; // 8 MiB of doubles
        let trace: Vec<(u64, usize)> = (0..n).map(|i| (i * 8u64, 8usize)).collect();
        let sa = a.replay(trace.iter().copied());
        let ss = s.replay(trace.iter().copied());
        let a_miss = sa.mem;
        let s_miss = ss.mem;
        assert_eq!(s_miss, 4 * a_miss, "a={a_miss} s={s_miss}");
        assert_eq!(sa.mem_bytes(&a64fx_spec()), ss.mem_bytes(&skx_spec()));
    }

    #[test]
    fn lru_eviction_within_set() {
        // Direct-mapped-like thrash: assoc+1 lines mapping to one set.
        let spec = MemSpec {
            line_bytes: 64,
            l1_bytes: 64 * 4 * 8, // 8 sets × 4 ways
            l1_assoc: 4,
            l1_latency: 4.0,
            l2_bytes: 1 << 20,
            l2_assoc: 16,
            l2_latency: 14.0,
            l2_shared_by: 1,
            l3: None,
            mem_latency: 200.0,
            l1_l2_bytes_per_cycle: 32.0,
        };
        let mut c = CacheSim::new(spec);
        let sets = 8u64;
        // 5 lines in set 0; repeated round-robin touches always miss L1.
        let conflict: Vec<(u64, usize)> = (0..5)
            .map(|w| (w * sets * 64, 8usize))
            .cycle()
            .take(50)
            .collect();
        let st = c.replay(conflict);
        assert_eq!(st.l1_hits, 0, "{st:?}");
        // ... but hit in the big L2 after the first 5 cold misses.
        assert_eq!(st.mem, 5, "{st:?}");
        assert_eq!(st.l2_hits, 45, "{st:?}");
    }

    #[test]
    fn repeat_walks_a_pass_that_evicts_a_line_it_needs() {
        // 8 sets × 2 ways: lines 0, 8 and 16 share set 0. After [0, 8],
        // the round [0, 8, 16] hits twice and then misses, evicting line
        // 0, so every later pass misses in full.
        let spec = MemSpec {
            line_bytes: 64,
            l1_bytes: 64 * 2 * 8,
            l1_assoc: 2,
            l1_latency: 4.0,
            l2_bytes: 1 << 20,
            l2_assoc: 16,
            l2_latency: 14.0,
            l2_shared_by: 1,
            l3: None,
            mem_latency: 200.0,
            l1_l2_bytes_per_cycle: 32.0,
        };
        let round = [(0, 8), (8 * 64, 8), (16 * 64, 8)];
        let mut fast = CacheSim::new(spec);
        let mut flat = CacheSim::new(spec);
        fast.replay(round[..2].iter().copied());
        flat.replay(round[..2].iter().copied());
        fast.repeat(&round, 10);
        flat.replay(round.iter().copied().cycle().take(30));
        assert_eq!(fast.stats, flat.stats);
        assert_eq!(fast.stats.l1_hits, 2, "{:?}", fast.stats);
    }

    #[test]
    fn avg_latency_monotone_in_miss_rate() {
        let spec = a64fx_spec();
        let hit = AccessStats {
            accesses: 100,
            l1_hits: 100,
            ..Default::default()
        };
        let miss = AccessStats {
            accesses: 100,
            mem: 100,
            ..Default::default()
        };
        assert!(hit.avg_latency(&spec) < miss.avg_latency(&spec));
        assert_eq!(hit.avg_latency(&spec), spec.l1_latency);
        assert_eq!(miss.avg_latency(&spec), spec.mem_latency);
    }

    #[test]
    fn multi_byte_access_spanning_lines() {
        let mut c = CacheSim::new(skx_spec());
        // A 64-byte vector load at offset 32 spans two 64-byte lines.
        c.access(32, 64);
        assert_eq!(c.stats.accesses, 2);
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = CacheSim::new(skx_spec());
        c.access(0, 8);
        c.reset();
        c.access(0, 8);
        assert_eq!(c.stats.mem + c.stats.l3_hits, 1); // cold again
    }
}
