//! Rows of the thread-scaling table that every traced run measures: the
//! two 2-thread slowdowns the parallel-scale machinery is questioned on,
//! and the cost of entering the pool for an empty region.

use crate::{median_time, ScaleRow, THREADS};
use ookami_mem::{CacheSim, ShardedCacheSim};
use ookami_npb::{lu::Lu, Class};

/// LU.S over 20 SSOR steps, and the sharded cache simulator at
/// [`THREADS`] threads against the serial `CacheSim` on the CRS address
/// stream of the ECM fixture.
pub(crate) fn common_rows() -> Vec<ScaleRow> {
    let lu = |t: usize| median_time(5, || Lu::new(Class::S).run(20, t));
    let (mat, _) = ookami_bench::ecm::ecm_spmv_fixture();
    let addrs = ookami_spmv::memtrace::crs_addr_trace(&mat);
    let spec = ookami_uarch::machines::a64fx().mem;
    vec![
        ScaleRow {
            path: "LU.S, 20 SSOR steps".into(),
            layer: None,
            own: false,
            t1_s: lu(1),
            t2_s: lu(THREADS),
        },
        ScaleRow {
            path: format!(
                "CacheSim::replay vs ShardedCacheSim::replay_par({THREADS}), {} accesses",
                addrs.len()
            ),
            layer: Some("mem.sharded"),
            own: false,
            t1_s: median_time(5, || CacheSim::new(spec).replay(addrs.iter().copied())),
            t2_s: median_time(5, || {
                ShardedCacheSim::new(spec, THREADS).replay_par(THREADS, &addrs)
            }),
        },
    ]
}

/// Median wall time of an empty `par_for` region at [`THREADS`] threads.
pub(crate) fn empty_region_s() -> f64 {
    median_time(201, || ookami_core::par_for(THREADS, THREADS, |_, _, _| {}))
}
