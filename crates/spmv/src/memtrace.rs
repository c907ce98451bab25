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
/// one generator, [`AddrStream::for_each`]; the materialized traces and
/// the cold-cache replay are both views of it, so they cannot disagree.
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
    /// Call `visit(addr, bytes)` for every access, in kernel order.
    #[inline]
    pub fn for_each(self, mut visit: impl FnMut(u64, usize)) {
        match self {
            AddrStream::Crs(m) => {
                for r in 0..m.n_rows {
                    visit(PTR_BASE + 8 * r as u64, 8);
                    for j in m.ptr[r]..m.ptr[r + 1] {
                        visit(VAL_BASE + 8 * j as u64, 8);
                        visit(COL_BASE + 8 * j as u64, 8);
                        visit(X_BASE + 8 * m.col[j] as u64, 8);
                    }
                    visit(Y_BASE + 8 * r as u64, 8);
                }
            }
            AddrStream::Sell(s) => {
                for ck in 0..s.n_chunks() {
                    let p0 = ck * s.c;
                    let rows = (p0 + s.c).min(s.n_rows) - p0;
                    for j in 0..s.chunk_len[ck] {
                        for l in 0..s.c {
                            let o = s.chunk_ptr[ck] + j * s.c + l;
                            visit(VAL_BASE + 8 * o as u64, 8);
                            visit(COL_BASE + 8 * o as u64, 8);
                            if l < rows && j < s.row_len[p0 + l] {
                                visit(X_BASE + 8 * s.col[o] as u64, 8);
                            }
                        }
                    }
                    for l in 0..rows {
                        visit(Y_BASE + 8 * s.row_order[p0 + l] as u64, 8);
                    }
                }
            }
            AddrStream::Stream(k, n) => {
                for i in 0..n {
                    visit(X_BASE + 8 * i as u64, 8);
                    if k.inputs() == 2 {
                        visit(B_BASE + 8 * i as u64, 8);
                    }
                    visit(Y_BASE + 8 * i as u64, 8);
                }
            }
            AddrStream::Stencil(st) => {
                for i in 0..st.n {
                    for &d in &st.offsets {
                        visit(X_BASE + 8 * (((i + d) & (st.n - 1)) as u64), 8);
                    }
                    visit(X_BASE + 8 * i as u64, 8);
                    visit(Y_BASE + 8 * i as u64, 8);
                }
            }
        }
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
    /// without materializing the trace.
    pub fn simulate(self, spec: MemSpec) -> AccessStats {
        let mut sim = CacheSim::new(spec);
        self.for_each(|a, b| sim.access(a, b));
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
