//! Element-level address streams for the cache simulator.
//!
//! The ECM model needs per-family L1↔L2 and L2↔memory line traffic.
//! Rather than hand-derive it, each family emits the exact `(addr,
//! bytes)` sequence its kernel touches — value/column streams, the
//! gathered `x` accesses in true column order, output stores — and
//! `ookami_mem::CacheSim` replays it against a machine's `MemSpec`,
//! either as generated ([`AddrStream::simulate`]) or from a materialized
//! trace ([`simulate`]).
//! Arrays live at disjoint 4 GiB-aligned bases so they never alias.
//!
//! Each family's one generator, [`AddrStream::for_each_run`], emits the
//! stream as runs: consecutive elements whose accesses stay on the same
//! lines. A run is the first element's round of accesses and a count;
//! element `j` of the run makes each access `8·j` bytes further on.
//! [`AddrStream::for_each`] and the materialized traces expand the runs,
//! so they visit every access in kernel order. [`AddrStream::simulate`]
//! hands each run to [`CacheSim::repeat`]: a line-level simulator sees
//! the same lines from every element of a run, so replaying the first
//! round `count` times is the run, exactly. A STREAM run is the rest of
//! a line (32 elements at 256-B lines, 8 at 64-B lines); a stencil run
//! ends where any neighbour crosses a line or wraps; CRS and SELL-C-σ
//! runs are one element, because their `x` gathers break every run.
//!
//! A writeback simplification is deliberate: stores count as accesses at
//! the store's address (write-allocate), and dirty-eviction traffic is
//! not modeled separately — consistent with how the rest of the repo's
//! cache model treats stores.

use crate::matrix::{Crs, SellCSigma};
use crate::stencil::Stencil;
use crate::stream::StreamKernel;
use ookami_mem::{AccessStats, CacheSim};
use ookami_uarch::MemSpec;

const VAL_BASE: u64 = 1 << 32;
const COL_BASE: u64 = 2 << 32;
const X_BASE: u64 = 3 << 32;
const Y_BASE: u64 = 4 << 32;
const PTR_BASE: u64 = 5 << 32;
const B_BASE: u64 = 6 << 32;

/// One family's element-level address stream. Each variant has exactly
/// one generator, [`AddrStream::for_each_run`]; the materialized traces
/// and the cold-cache replay are both views of it, so they cannot
/// disagree.
#[derive(Debug, Clone, Copy)]
pub enum AddrStream<'a> {
    /// CRS SpMV: per row, one row-pointer load, then `val[j]` + `col[j]` +
    /// `x[col[j]]` per entry, then the `y[r]` store.
    Crs(&'a Crs),
    /// SELL-C-σ SpMV: the value/column slabs stream contiguously in chunk
    /// order (padding included — it is fetched even though it is
    /// predicated off), `x` is gathered for real entries only, `y` stored
    /// per row.
    Sell(&'a SellCSigma),
    /// One STREAM pass of `n` elements (loads then store per element).
    Stream(StreamKernel, usize),
    /// One stencil sweep: neighbor gathers in offset order, the center
    /// load, the output store.
    Stencil(&'a Stencil),
}

impl AddrStream<'_> {
    /// Call `visit(round, count)` for every run, in kernel order: `count`
    /// consecutive elements whose accesses stay on the same `line_bytes`
    /// lines. `round` is the first element's accesses; element `j` of the
    /// run makes each of them `8·j` bytes further on.
    pub fn for_each_run(self, line_bytes: usize, mut visit: impl FnMut(&[(u64, usize)], usize)) {
        // Elements per line: every access is one f64, and the bases are
        // line-aligned, so element `p` of an array starts a line exactly
        // when `p % per_line == 0`.
        let per_line = (line_bytes / 8).max(1);
        match self {
            AddrStream::Crs(m) => {
                for r in 0..m.n_rows {
                    visit(&[(PTR_BASE + 8 * r as u64, 8)], 1);
                    for j in m.ptr[r]..m.ptr[r + 1] {
                        let round = [
                            (VAL_BASE + 8 * j as u64, 8),
                            (COL_BASE + 8 * j as u64, 8),
                            (X_BASE + 8 * m.col[j] as u64, 8),
                        ];
                        visit(&round, 1);
                    }
                    visit(&[(Y_BASE + 8 * r as u64, 8)], 1);
                }
            }
            AddrStream::Sell(s) => {
                for ck in 0..s.n_chunks() {
                    let p0 = ck * s.c;
                    let rows = (p0 + s.c).min(s.n_rows) - p0;
                    for j in 0..s.chunk_len[ck] {
                        for l in 0..s.c {
                            let o = s.chunk_ptr[ck] + j * s.c + l;
                            let v = (VAL_BASE + 8 * o as u64, 8);
                            let c = (COL_BASE + 8 * o as u64, 8);
                            if l < rows && j < s.row_len[p0 + l] {
                                visit(&[v, c, (X_BASE + 8 * s.col[o] as u64, 8)], 1);
                            } else {
                                visit(&[v, c], 1);
                            }
                        }
                    }
                    for l in 0..rows {
                        visit(&[(Y_BASE + 8 * s.row_order[p0 + l] as u64, 8)], 1);
                    }
                }
            }
            AddrStream::Stream(k, n) => {
                let mut i = 0;
                while i < n {
                    // All arrays sit at the same offset in their lines,
                    // so a run is the rest of element `i`'s line.
                    let count = (per_line - i % per_line).min(n - i);
                    let a = 8 * i as u64;
                    let (x, b, y) = ((X_BASE + a, 8), (B_BASE + a, 8), (Y_BASE + a, 8));
                    if k.inputs() == 2 {
                        visit(&[x, b, y], count);
                    } else {
                        visit(&[x, y], count);
                    }
                    i += count;
                }
            }
            AddrStream::Stencil(st) => {
                let mut round = Vec::with_capacity(st.points() + 1);
                let mut i = 0;
                while i < st.n {
                    round.clear();
                    // The neighbor sites, then the center, each read up to
                    // the end of its line or the lattice's wrap; the store
                    // shares the center's line offset.
                    let mut count = st.n - i;
                    for p in st.offsets.iter().map(|&d| (i + d) & (st.n - 1)).chain([i]) {
                        count = count.min(per_line - p % per_line).min(st.n - p);
                        round.push((X_BASE + 8 * p as u64, 8));
                    }
                    round.push((Y_BASE + 8 * i as u64, 8));
                    visit(&round, count);
                    i += count;
                }
            }
        }
    }

    /// Call `visit(addr, bytes)` for every access, in kernel order: the
    /// runs, expanded.
    #[inline]
    pub fn for_each(self, mut visit: impl FnMut(u64, usize)) {
        // Every line size expands to the same accesses; one wider than
        // any array splits runs only where an address wraps.
        self.for_each_run(usize::MAX, |round, count| {
            for j in 0..count as u64 {
                for &(addr, bytes) in round {
                    visit(addr + 8 * j, bytes);
                }
            }
        });
    }

    /// Number of accesses [`AddrStream::for_each`] visits.
    fn accesses(self) -> usize {
        match self {
            AddrStream::Crs(m) => 3 * m.nnz() + 2 * m.n_rows,
            AddrStream::Sell(s) => 2 * s.padded_nnz() + s.nnz + s.n_rows,
            AddrStream::Stream(k, n) => (k.inputs() + 1) * n,
            AddrStream::Stencil(st) => (st.points() + 1) * st.n,
        }
    }

    /// The stream as a `Vec` of `(addr, bytes)`.
    pub fn to_vec(self) -> Vec<(u64, usize)> {
        let mut t = Vec::with_capacity(self.accesses());
        self.for_each(|a, b| t.push((a, b)));
        debug_assert_eq!(t.len(), self.accesses());
        t
    }

    /// Replay the stream against a cold hierarchy of `spec` as it is
    /// generated — equal to [`simulate`] over [`AddrStream::to_vec`],
    /// without materializing the trace. Each run goes through
    /// [`CacheSim::repeat`] at `spec`'s line size.
    pub fn simulate(self, spec: MemSpec) -> AccessStats {
        let mut sim = CacheSim::new(spec);
        self.for_each_run(spec.line_bytes, |round, count| sim.repeat(round, count));
        sim.stats
    }
}

/// [`AddrStream::Crs`], materialized.
pub fn crs_addr_trace(m: &Crs) -> Vec<(u64, usize)> {
    AddrStream::Crs(m).to_vec()
}

/// [`AddrStream::Sell`], materialized.
pub fn sell_addr_trace(s: &SellCSigma) -> Vec<(u64, usize)> {
    AddrStream::Sell(s).to_vec()
}

/// [`AddrStream::Stream`], materialized.
pub fn stream_addr_trace(k: StreamKernel, n: usize) -> Vec<(u64, usize)> {
    AddrStream::Stream(k, n).to_vec()
}

/// [`AddrStream::Stencil`], materialized.
pub fn stencil_addr_trace(st: &Stencil) -> Vec<(u64, usize)> {
    AddrStream::Stencil(st).to_vec()
}

/// Replay an address trace against a cold hierarchy of `spec`.
pub fn simulate(spec: MemSpec, trace: &[(u64, usize)]) -> AccessStats {
    CacheSim::new(spec).replay(trace.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MemSpec {
        ookami_uarch::machines::a64fx().mem
    }

    #[test]
    fn crs_trace_has_expected_access_count() {
        let m = Crs::ragged(64, 64, 10, 3);
        let t = crs_addr_trace(&m);
        assert_eq!(t.len(), 3 * m.nnz() + 2 * m.n_rows);
        let st = simulate(spec(), &t);
        assert_eq!(st.accesses as usize, t.len());
        assert!(st.mem > 0, "cold caches must miss");
    }

    #[test]
    fn sell_padding_streams_but_never_gathers() {
        let m = Crs::ragged(64, 64, 10, 3);
        let s = SellCSigma::from_crs(&m, 8, 64);
        let t = sell_addr_trace(&s);
        // Slabs include padding; x gathers count real entries only.
        assert_eq!(t.len(), 2 * s.padded_nnz() + s.nnz + s.n_rows);
    }

    #[test]
    fn banded_crs_is_friendlier_than_random() {
        // Column locality must show up as strictly fewer memory lines.
        let band = Crs::banded(256, 4);
        let rand = Crs::random_fixed(256, 256, 9, 17);
        let sb = simulate(spec(), &crs_addr_trace(&band));
        let sr = simulate(spec(), &crs_addr_trace(&rand));
        let lines = |s: &AccessStats| s.mem;
        assert!(
            lines(&sb) <= lines(&sr),
            "banded {} vs random {}",
            lines(&sb),
            lines(&sr)
        );
    }

    #[test]
    fn stream_and_stencil_traces_cover_all_arrays() {
        let t = stream_addr_trace(StreamKernel::Triad, 100);
        assert_eq!(t.len(), 300);
        let st = Stencil::d2(8, 8, 0.5, -0.125);
        let tr = stencil_addr_trace(&st);
        assert_eq!(tr.len(), st.n * (st.points() + 1));
    }
}
