//! Property tests for the cache simulator: capacity, LRU and determinism
//! invariants that must hold for arbitrary traces, and exact agreement
//! with a textbook-LRU oracle on random geometries, for flat replay and
//! for `CacheSim::repeat`.

use ookami_mem::cache::CacheSim;
use ookami_mem::{AccessStats, ShardedCacheSim};
use ookami_uarch::MemSpec;
use proptest::prelude::*;

fn small_spec() -> MemSpec {
    MemSpec {
        line_bytes: 64,
        l1_bytes: 4 * 1024,
        l1_assoc: 4,
        l1_latency: 4.0,
        l2_bytes: 32 * 1024,
        l2_assoc: 8,
        l2_latency: 14.0,
        l2_shared_by: 1,
        l3: None,
        mem_latency: 200.0,
        l1_l2_bytes_per_cycle: 32.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying the same trace twice on fresh simulators is deterministic.
    #[test]
    fn deterministic(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let t: Vec<(u64, usize)> = addrs.iter().map(|&a| (a, 8)).collect();
        let mut s1 = CacheSim::new(small_spec());
        let mut s2 = CacheSim::new(small_spec());
        prop_assert_eq!(s1.replay(t.clone()), s2.replay(t));
    }

    /// Hits + misses account for every access; counters never exceed the
    /// number of line-touches.
    #[test]
    fn conservation(addrs in prop::collection::vec(0u64..100_000, 1..300)) {
        let t: Vec<(u64, usize)> = addrs.iter().map(|&a| (a, 8)).collect();
        let mut s = CacheSim::new(small_spec());
        let st = s.replay(t);
        prop_assert_eq!(st.accesses, st.l1_hits + st.l2_hits + st.l3_hits + st.mem);
    }

    /// Immediately repeating an access always hits L1 (aligned, so the
    /// touch covers exactly one line).
    #[test]
    fn temporal_locality(addr in 0u64..1_000_000) {
        let aligned = addr & !63;
        let mut s = CacheSim::new(small_spec());
        s.access(aligned, 8);
        let before = s.stats;
        s.access(aligned, 8);
        prop_assert_eq!(s.stats.l1_hits, before.l1_hits + 1);
    }

    /// A working set within L1 capacity, accessed twice, misses at most
    /// once per line (no pathological self-eviction for sequential lines).
    #[test]
    fn l1_resident_second_pass_hits(lines in 1usize..48) {
        let spec = small_spec(); // 64 lines, 4-way × 16 sets
        let mut s = CacheSim::new(spec);
        let t: Vec<(u64, usize)> = (0..lines as u64).map(|i| (i * 64, 8)).collect();
        s.replay(t.clone());
        let st2 = s.replay(t);
        prop_assert_eq!(st2.l1_hits, lines as u64, "{:?}", st2);
    }

    /// Misses to memory never decrease when the trace is extended.
    #[test]
    fn monotone_misses(addrs in prop::collection::vec(0u64..1_000_000, 2..200)) {
        let t: Vec<(u64, usize)> = addrs.iter().map(|&a| (a, 8)).collect();
        let mut s1 = CacheSim::new(small_spec());
        let partial = s1.replay(t[..t.len() / 2].to_vec());
        let mut s2 = CacheSim::new(small_spec());
        let full = s2.replay(t);
        prop_assert!(full.mem >= partial.mem);
        prop_assert!(full.accesses >= partial.accesses);
    }
}

/// One level of the oracle: per set, a recency list with the most recent
/// line first. A hit moves the line to the front; a miss inserts it at
/// the front and, past `assoc` lines, evicts the back.
struct LruLevel {
    assoc: usize,
    sets: Vec<Vec<u64>>,
}

impl LruLevel {
    fn new(sets: usize, assoc: usize) -> Self {
        LruLevel {
            assoc,
            sets: vec![Vec::new(); sets],
        }
    }

    /// `(hit, evicted)` for one line.
    fn access(&mut self, line: u64) -> (bool, bool) {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.insert(0, line);
            return (true, false);
        }
        set.insert(0, line);
        let evicted = set.len() > self.assoc;
        if evicted {
            set.pop();
        }
        (false, evicted)
    }
}

/// Textbook model of the inclusive hierarchy the simulators implement:
/// walk the levels in order, fill every level that misses, stop at the
/// first hit.
struct LruOracle {
    line_bytes: u64,
    geometry: Vec<(usize, usize)>,
    levels: Vec<LruLevel>,
    stats: AccessStats,
}

impl LruOracle {
    fn new(g: &Geometry) -> Self {
        let mut o = LruOracle {
            line_bytes: g.line_bytes as u64,
            geometry: g.levels(),
            levels: Vec::new(),
            stats: AccessStats::default(),
        };
        o.reset();
        o
    }

    fn reset(&mut self) {
        self.levels = self
            .geometry
            .iter()
            .map(|&(sets, assoc)| LruLevel::new(sets, assoc))
            .collect();
        self.stats = AccessStats::default();
    }

    fn replay(&mut self, trace: &[(u64, usize)]) -> AccessStats {
        let before = self.stats;
        for &(addr, bytes) in trace {
            let last = (addr + bytes.max(1) as u64 - 1) / self.line_bytes;
            for line in addr / self.line_bytes..=last {
                self.stats.accesses += 1;
                let mut served = None;
                for (i, level) in self.levels.iter_mut().enumerate() {
                    let (hit, evicted) = level.access(line);
                    self.stats.evictions += u64::from(evicted);
                    if hit {
                        served = Some(i);
                        break;
                    }
                }
                match served {
                    Some(0) => self.stats.l1_hits += 1,
                    Some(1) => self.stats.l2_hits += 1,
                    Some(_) => self.stats.l3_hits += 1,
                    None => self.stats.mem += 1,
                }
            }
        }
        AccessStats {
            accesses: self.stats.accesses - before.accesses,
            l1_hits: self.stats.l1_hits - before.l1_hits,
            l2_hits: self.stats.l2_hits - before.l2_hits,
            l3_hits: self.stats.l3_hits - before.l3_hits,
            mem: self.stats.mem - before.mem,
            evictions: self.stats.evictions - before.evictions,
        }
    }
}

/// A random hierarchy: `(sets, assoc)` per level, the L3 at the
/// simulator's fixed 16 ways.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    line_bytes: usize,
    l1: (usize, usize),
    l2: (usize, usize),
    l3_sets: Option<usize>,
}

impl Geometry {
    fn levels(&self) -> Vec<(usize, usize)> {
        let mut v = vec![self.l1, self.l2];
        v.extend(self.l3_sets.map(|s| (s, 16)));
        v
    }

    fn spec(&self) -> MemSpec {
        let bytes = |(sets, assoc): (usize, usize)| sets * assoc * self.line_bytes;
        MemSpec {
            line_bytes: self.line_bytes,
            l1_bytes: bytes(self.l1),
            l1_assoc: self.l1.1,
            l1_latency: 4.0,
            l2_bytes: bytes(self.l2),
            l2_assoc: self.l2.1,
            l2_latency: 14.0,
            l2_shared_by: 1,
            l3: self.l3_sets.map(|s| (bytes((s, 16)), 40.0, 1)),
            mem_latency: 200.0,
            l1_l2_bytes_per_cycle: 32.0,
        }
    }
}

/// Set counts `odd · 2^k`: powers of two (mask indexing, deep sharding)
/// and counts like 3·2^k or 7 (`%` indexing, shallow or no sharding).
fn sets_strategy(max_k: u32) -> impl Strategy<Value = usize> {
    (0usize..5, 0..=max_k).prop_map(|(i, k)| [1, 1, 3, 5, 7][i] << k)
}

fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    (
        4u32..=8,
        (sets_strategy(4), 1usize..=8),
        (sets_strategy(5), 1usize..=16),
        (any::<bool>(), sets_strategy(4)),
    )
        .prop_map(|(shift, l1, l2, (has_l3, s3))| Geometry {
            line_bytes: 1 << shift,
            l1,
            l2,
            l3_sets: has_l3.then_some(s3),
        })
}

/// Traces mixing a hot window (L1-sized or smaller: hits), a warm one
/// (L2/L3-sized: lower-level hits and evictions) and a cold one (misses),
/// with line-spanning vector accesses and power-of-two strides that pile
/// onto few sets.
fn oracle_trace_strategy() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1 << 11, 1usize..16).prop_map(|(a, b)| (a, b)),
            (0u64..1 << 11, 1usize..16).prop_map(|(a, b)| (a, b)),
            (0u64..1 << 15, 1usize..16).prop_map(|(a, b)| (a, b)),
            (0u64..1 << 18, 16usize..1024).prop_map(|(a, b)| (a, b)),
            (0u64..64, 4u32..14).prop_map(|(i, k)| (i << k, 8usize)),
        ],
        1..600,
    )
}

/// Rounds for `CacheSim::repeat`: a small window (lines repeated inside
/// the round), line-spanning accesses, and power-of-two strides that can
/// put more lines in one set than it has ways, so that no pass hits in
/// full.
fn round_strategy() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1 << 9, 1usize..16).prop_map(|(a, b)| (a, b)),
            (0u64..1 << 12, 16usize..600).prop_map(|(a, b)| (a, b)),
            (0u64..24, 4u32..14).prop_map(|(i, k)| (i << k, 8usize)),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `repeat(round, reps)` leaves every `AccessStats` field equal to
    /// `reps` flat passes of `round` and to the textbook oracle, and so
    /// does a trace replayed after it (the state it leaves behind behaves
    /// the same). The warm-up ends with part of the round, so a first
    /// pass can hit almost everywhere and still evict a line it needs.
    #[test]
    fn repeat_equals_flat_passes_and_textbook_lru(
        g in geometry_strategy(),
        trace in oracle_trace_strategy(),
        round in round_strategy(),
        cut in 0usize..24,
        reps in 0usize..40,
        after in oracle_trace_strategy(),
    ) {
        let mut warm = trace;
        warm.extend_from_slice(&round[..cut.min(round.len())]);
        let passes: Vec<(u64, usize)> =
            round.iter().copied().cycle().take(round.len() * reps).collect();
        let mut oracle = LruOracle::new(&g);
        let mut flat = CacheSim::new(g.spec());
        let mut fast = CacheSim::new(g.spec());
        oracle.replay(&warm);
        flat.replay(warm.iter().copied());
        fast.replay(warm.iter().copied());

        oracle.replay(&passes);
        flat.replay(passes.iter().copied());
        fast.repeat(&round, reps);
        prop_assert_eq!(fast.stats, flat.stats, "{:?} x{}", g, reps);
        prop_assert_eq!(fast.stats, oracle.stats, "{:?} x{}", g, reps);

        oracle.replay(&after);
        flat.replay(after.iter().copied());
        fast.replay(after.iter().copied());
        prop_assert_eq!(fast.stats, flat.stats, "{:?} x{} then more", g, reps);
        prop_assert_eq!(fast.stats, oracle.stats, "{:?} x{} then more", g, reps);
    }

    /// Every `AccessStats` field of the serial simulator, the sharded
    /// simulator's serial replay and its pool replay equals the textbook
    /// oracle, before and after a `reset()` at a random point.
    #[test]
    fn simulators_equal_textbook_lru(
        g in geometry_strategy(),
        trace in oracle_trace_strategy(),
        cut in 0usize..600,
        hint in 1usize..16,
    ) {
        let (head, tail) = trace.split_at(cut % (trace.len() + 1));
        let spec = g.spec();
        let mut oracle = LruOracle::new(&g);
        let want_head = oracle.replay(head);
        oracle.reset();
        let want_tail = oracle.replay(tail);

        let mut serial = CacheSim::new(spec);
        prop_assert_eq!(serial.replay(head.iter().copied()), want_head, "{:?}", g);
        serial.reset();
        prop_assert_eq!(serial.replay(tail.iter().copied()), want_tail, "{:?}", g);
        prop_assert_eq!(serial.stats, want_tail);

        let mut sharded = ShardedCacheSim::new(spec, hint);
        let n = sharded.n_shards();
        prop_assert_eq!(sharded.replay(head), want_head, "{:?} {} shards", g, n);
        sharded.reset();
        prop_assert_eq!(sharded.replay(tail), want_tail, "{:?} {} shards", g, n);

        for threads in [0usize, 1, 2] {
            let mut par = ShardedCacheSim::new(spec, hint);
            prop_assert_eq!(par.replay_par(threads, head), want_head, "{:?} t{}", g, threads);
            par.reset();
            prop_assert_eq!(par.replay_par(threads, tail), want_tail, "{:?} t{}", g, threads);
            prop_assert_eq!(par.stats(), want_tail);
        }
    }
}
