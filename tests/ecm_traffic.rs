//! Exact cache traffic behind the ECM table: the `AccessStats` of the
//! eight family address streams (`ookami_spmv::memtrace`) replayed cold on
//! the A64FX and Skylake-SP hierarchies, pinned field by field.
//!
//! The ECM golden table only sees these counts through rounded per-CL
//! ratios; the pins catch any drift in the cache simulator or in an
//! address generator directly. They were recorded from the simulator
//! before its division-free rewrite, so they also pin that rewrite as an
//! exact refactor. A second test checks that streaming a family's
//! addresses straight into the simulator (what `ecm_families` does) equals
//! replaying the materialized trace (what `memtrace::simulate` does). The
//! last two pin the materialized traces themselves, and check that the
//! line runs the simulator replays expand to exactly those traces.

use ookami_bench::ecm::{ecm_spmv_fixture, ecm_stencil4, ecm_stencil7, ECM_STREAM_N};
use ookami_mem::AccessStats;
use ookami_spmv::memtrace::{self, AddrStream};
use ookami_spmv::{Crs, SellCSigma, Stencil, StreamKernel};
use ookami_uarch::machines;

/// `[accesses, l1_hits, l2_hits, l3_hits, mem, evictions]` per family.
type Pin = (&'static str, [u64; 6]);

const A64FX: [Pin; 8] = [
    ("spmv_crs", [155648, 108762, 41510, 0, 5376, 46630]),
    ("spmv_sell", [151552, 104844, 41460, 0, 5248, 46452]),
    ("copy", [262144, 253952, 0, 0, 8192, 7936]),
    ("scale", [262144, 253952, 0, 0, 8192, 7936]),
    ("add", [393216, 380928, 0, 0, 12288, 12032]),
    ("triad", [393216, 380928, 0, 0, 12288, 12032]),
    ("stencil4", [393216, 389104, 16, 0, 4096, 3856]),
    ("stencil7", [524288, 520064, 128, 0, 4096, 3968]),
];

const SKYLAKE_6140: [Pin; 8] = [
    ("spmv_crs", [155648, 95537, 38436, 192, 21483, 64890]),
    ("spmv_sell", [151552, 91967, 38444, 170, 20971, 63830]),
    ("copy", [262144, 229376, 0, 0, 32768, 48640]),
    ("scale", [262144, 229376, 0, 0, 32768, 48640]),
    ("add", [393216, 344064, 0, 0, 49152, 81408]),
    ("triad", [393216, 344064, 0, 0, 49152, 81408]),
    ("stencil4", [393216, 376768, 64, 0, 16384, 15936]),
    ("stencil7", [524288, 491504, 16400, 0, 16384, 32272]),
];

/// The ECM fixtures, owned so the streams can borrow them.
struct Fixtures {
    crs: Crs,
    sell: SellCSigma,
    stencil4: Stencil,
    stencil7: Stencil,
}

impl Fixtures {
    /// As `ecm_families(m, 8)` builds them (SELL with C = vl = 8).
    fn new() -> Self {
        let (crs, _) = ecm_spmv_fixture();
        let sell = SellCSigma::from_crs(&crs, 8, crs.n_rows);
        Fixtures {
            crs,
            sell,
            stencil4: ecm_stencil4(),
            stencil7: ecm_stencil7(),
        }
    }

    /// Every family's stream, named as in the ECM table.
    fn streams(&self) -> Vec<(&'static str, AddrStream<'_>)> {
        let mut v = vec![
            ("spmv_crs", AddrStream::Crs(&self.crs)),
            ("spmv_sell", AddrStream::Sell(&self.sell)),
        ];
        for k in StreamKernel::ALL {
            v.push((k.name(), AddrStream::Stream(k, ECM_STREAM_N)));
        }
        v.push(("stencil4", AddrStream::Stencil(&self.stencil4)));
        v.push(("stencil7", AddrStream::Stencil(&self.stencil7)));
        v
    }
}

fn pinned(p: [u64; 6]) -> AccessStats {
    let [accesses, l1_hits, l2_hits, l3_hits, mem, evictions] = p;
    AccessStats {
        accesses,
        l1_hits,
        l2_hits,
        l3_hits,
        mem,
        evictions,
    }
}

#[test]
fn ecm_stream_traffic_is_pinned() {
    let f = Fixtures::new();
    for (machine, pins) in [
        (machines::a64fx(), &A64FX),
        (machines::skylake_6140(), &SKYLAKE_6140),
    ] {
        let streams = f.streams();
        assert_eq!(streams.len(), pins.len());
        for ((name, s), (pin_name, pin)) in streams.into_iter().zip(pins) {
            assert_eq!(name, *pin_name);
            assert_eq!(
                s.simulate(machine.mem),
                pinned(*pin),
                "{name} on {}",
                machine.name
            );
        }
    }
}

#[test]
fn streamed_replay_equals_materialized_replay() {
    let f = Fixtures::new();
    for machine in [machines::a64fx(), machines::skylake_6140()] {
        for (name, s) in f.streams() {
            assert_eq!(
                s.simulate(machine.mem),
                memtrace::simulate(machine.mem, &s.to_vec()),
                "{name} on {}",
                machine.name
            );
        }
    }
}

/// `(accesses, FNV-1a)` of each family's `to_vec()`, recorded from the
/// element-by-element generator that the runs replaced.
const TRACES: [(&str, usize, u64); 8] = [
    ("spmv_crs", 155648, 0x6012_c3ee_b6ca_0a08),
    ("spmv_sell", 151552, 0xe76d_b29a_4587_e410),
    ("copy", 262144, 0x413c_3600_b1bb_eb25),
    ("scale", 262144, 0x413c_3600_b1bb_eb25),
    ("add", 393216, 0xa2cd_067c_5724_2b25),
    ("triad", 393216, 0xa2cd_067c_5724_2b25),
    ("stencil4", 393216, 0x02b1_63e3_1920_d4d5),
    ("stencil7", 524288, 0x104b_077e_afe0_e1b5),
];

/// FNV-1a over every `(addr, bytes)` pair, both as little-endian u64.
fn fnv1a(trace: &[(u64, usize)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &(addr, bytes) in trace {
        for b in addr
            .to_le_bytes()
            .into_iter()
            .chain((bytes as u64).to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn materialized_traces_are_pinned() {
    let f = Fixtures::new();
    for ((name, s), (pin_name, len, hash)) in f.streams().into_iter().zip(TRACES) {
        assert_eq!(name, pin_name);
        let t = s.to_vec();
        assert_eq!((t.len(), fnv1a(&t)), (len, hash), "{name}");
    }
}

/// The runs `simulate` replays at 64-B and 256-B lines expand to exactly
/// `to_vec()`, and every access of a run stays on its first element's line.
#[test]
fn expanded_runs_equal_the_materialized_trace() {
    let f = Fixtures::new();
    for line_bytes in [64, 256] {
        for (name, s) in f.streams() {
            let line = |addr: u64| addr / line_bytes as u64;
            let mut t = Vec::new();
            s.for_each_run(line_bytes, |round, count| {
                let last = 8 * (count as u64 - 1);
                for &(addr, bytes) in round {
                    assert_eq!(line(addr), line(addr + last + bytes as u64 - 1), "{name}");
                }
                for j in 0..count as u64 {
                    t.extend(round.iter().map(|&(addr, bytes)| (addr + 8 * j, bytes)));
                }
            });
            assert_eq!(t, s.to_vec(), "{name} at {line_bytes}-B lines");
        }
    }
}
