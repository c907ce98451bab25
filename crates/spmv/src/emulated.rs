//! Row-per-lane SpMV kernels through the SVE trace engine.
//!
//! Both formats use the same execution shape: lane `l` of a vector block
//! owns one matrix row, and step `k` folds that row's `k`-th entry into a
//! carried accumulator with one predicated FMA. An activity stream
//! (`1.0` while `k < nnz(row)`, else `0.0`) drives a `fcmgt`-derived
//! predicate, so exhausted rows and SELL padding are architecturally
//! inactive — they touch no memory and bump no gather counters.
//!
//! * **CRS** binds an index stream and gathers *everything*: the value,
//!   the column (stored as an exact-integer `f64` table, converted back
//!   with `fcvtzs`), and finally `x[col]` — three gathers per active
//!   lane-step, the fully irregular end of the spectrum.
//! * **SELL-C-σ** streams the value/column slabs contiguously
//!   (`bind_f64`/`bind_i64`, C-lane chunks are column-major by
//!   construction) and gathers only `x[col]` — one gather per active
//!   lane-step, the vectorization win the format exists for.
//!
//! Every runner mirrors the recorded trace op for op, so interpreter,
//! replayer and parallel replay agree in bits *and* obs counter totals;
//! gather-element counters come out to exactly `3·nnz` (CRS) and `nnz`
//! (SELL). Row blocks are independent accumulation chains — the replayer
//! runs many per arena via [`ookami_sve::Replayer::reset_carries`].

use crate::matrix::{Crs, SellCSigma};
use ookami_core::obs::{self, Counter};
use ookami_core::Schedule;
use ookami_sve::{SveCtx, Trace, TraceBuilder};

/// Gather micro-op hints baked into a recorded trace (see
/// `ookami_mem::analyze_indices`; the port model consumes them, the
/// numerics never do). Identity tests only need both executors to see
/// the same constants, which holds because the hints are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherHints {
    /// Crack factor for the CRS value/column gathers (quasi-streaming
    /// indices `ptr[row] + k`).
    pub stream_uops: u32,
    /// Crack factor for the `x[col]` gather (matrix-dependent).
    pub x_uops: u32,
}

impl GatherHints {
    pub fn uniform(uops: u32) -> GatherHints {
        GatherHints {
            stream_uops: uops,
            x_uops: uops,
        }
    }
}

/// The CRS inner kernel as a trace: activity + value-index inputs, three
/// gathers, one carried FMA. Captures `val`, `col` (as f64) and `x` as
/// gather tables, so the trace is specific to one `(matrix, x)` pair.
pub fn crs_trace(m: &Crs, x: &[f64], vl: usize, hints: GatherHints) -> Trace {
    assert!(x.len() >= m.n_cols);
    let colf: Vec<f64> = m.col.iter().map(|&c| c as f64).collect();
    let mut b = TraceBuilder::new(vl);
    let pg = b.loop_pred();
    let act = b.input_f64(); // ord 0: 1.0 while the lane's row has entries
    let vidx = b.input_i64(); // ord 1: ptr[row] + k (0 when inactive)
    b.begin_body();
    let ctx = b.ctx();
    let half = ctx.dup_f64(0.5);
    let acc0 = ctx.dup_f64(0.0);
    let p = ctx.fcmgt(&pg, &act, &half);
    let a = ctx.ld1d_gather(&p, &m.val, &vidx, hints.stream_uops);
    let cf = ctx.ld1d_gather(&p, &colf, &vidx, hints.stream_uops);
    let ci = ctx.fcvtzs(&p, &cf);
    let xv = ctx.ld1d_gather(&p, x, &ci, hints.x_uops);
    let acc1 = ctx.fmla(&p, &acc0, &a, &xv);
    b.carry(&acc0, &acc1);
    b.finish(&[&acc1])
}

/// The SELL-C-σ inner kernel as a trace: activity + streamed value/column
/// inputs, a single `x` gather, one carried FMA. `vl` must equal the
/// format's chunk height C.
pub fn sell_trace(s: &SellCSigma, x: &[f64], hints: GatherHints) -> Trace {
    assert!(x.len() >= s.n_cols);
    let mut b = TraceBuilder::new(s.c);
    let pg = b.loop_pred();
    let act = b.input_f64(); // ord 0
    let a = b.input_f64(); // ord 1: value slab, streamed
    let ci = b.input_i64(); // ord 2: column slab, streamed
    b.begin_body();
    let ctx = b.ctx();
    let half = ctx.dup_f64(0.5);
    let acc0 = ctx.dup_f64(0.0);
    let p = ctx.fcmgt(&pg, &act, &half);
    let xv = ctx.ld1d_gather(&p, x, &ci, hints.x_uops);
    let acc1 = ctx.fmla(&p, &acc0, &a, &xv);
    b.carry(&acc0, &acc1);
    b.finish(&[&acc1])
}

/// CRS input streams for step `k` of the block starting at `r0`
/// (`nr ≤ vl` live rows): activity flags and value indices.
fn crs_streams(m: &Crs, r0: usize, nr: usize, k: usize) -> (Vec<f64>, Vec<i64>) {
    let mut act = Vec::with_capacity(nr);
    let mut vidx = Vec::with_capacity(nr);
    for l in 0..nr {
        let r = r0 + l;
        if k < m.row_nnz(r) {
            act.push(1.0);
            vidx.push((m.ptr[r] + k) as i64);
        } else {
            act.push(0.0);
            vidx.push(0);
        }
    }
    (act, vidx)
}

/// SELL input streams for step `j` of chunk `ck` (`nr ≤ C` live rows):
/// activity flags and the contiguous value/column slab slices.
fn sell_streams(s: &SellCSigma, ck: usize, nr: usize, j: usize) -> (Vec<f64>, Vec<f64>, Vec<i64>) {
    let p0 = ck * s.c;
    let o = s.chunk_ptr[ck] + j * s.c;
    let act: Vec<f64> = (0..nr)
        .map(|l| if j < s.row_len[p0 + l] { 1.0 } else { 0.0 })
        .collect();
    let val = s.val[o..o + nr].to_vec();
    let col: Vec<i64> = s.col[o..o + nr].iter().map(|&c| c as i64).collect();
    (act, val, col)
}

/// CRS SpMV through the per-op interpreter — the measured baseline the
/// replayer is differential-tested against. Mirrors [`crs_trace`]'s body
/// exactly (same ops, same predicates, manual byte accounting matching
/// `Replayer::bind_*`), so counters agree bit for bit.
pub fn run_crs_interp(m: &Crs, x: &[f64], vl: usize, hints: GatherHints) -> Vec<f64> {
    assert!(x.len() >= m.n_cols);
    let colf: Vec<f64> = m.col.iter().map(|&c| c as f64).collect();
    let mut ctx = SveCtx::new(vl);
    let mut y = vec![0.0; m.n_rows];
    let mut r0 = 0;
    while r0 < m.n_rows {
        let nr = vl.min(m.n_rows - r0);
        let kmax = (0..nr).map(|l| m.row_nnz(r0 + l)).max().unwrap_or(0);
        if kmax > 0 {
            let pg = ctx.whilelt(r0, m.n_rows);
            let half = ctx.dup_f64(0.5);
            let mut acc = ctx.dup_f64(0.0);
            for k in 0..kmax {
                let (actl, vidxl) = crs_streams(m, r0, nr, k);
                let (actl, vidxl) = (pad_f64(&actl, vl), pad_i64(&vidxl, vl));
                // Staged input loads: count the bytes `Replayer::bind_*`
                // counts for this step.
                obs::add(Counter::BytesLoaded, 8 * nr as u64);
                let act = ctx.input_f64(&actl);
                obs::add(Counter::BytesLoaded, 8 * nr as u64);
                let vidx = ctx.input_i64(&vidxl);
                let p = ctx.fcmgt(&pg, &act, &half);
                let a = ctx.ld1d_gather(&p, &m.val, &vidx, hints.stream_uops);
                let cf = ctx.ld1d_gather(&p, &colf, &vidx, hints.stream_uops);
                let ci = ctx.fcvtzs(&p, &cf);
                let xv = ctx.ld1d_gather(&p, x, &ci, hints.x_uops);
                acc = ctx.fmla(&p, &acc, &a, &xv);
            }
            for l in 0..nr {
                y[r0 + l] = acc.f64_lane(l);
            }
        }
        r0 += vl;
    }
    y
}

/// SELL-C-σ SpMV through the interpreter, mirroring [`sell_trace`].
pub fn run_sell_interp(s: &SellCSigma, x: &[f64], hints: GatherHints) -> Vec<f64> {
    assert!(x.len() >= s.n_cols);
    let c = s.c;
    let mut ctx = SveCtx::new(c);
    let mut y = vec![0.0; s.n_rows];
    for ck in 0..s.n_chunks() {
        let p0 = ck * c;
        let nr = (p0 + c).min(s.n_rows) - p0;
        let kmax = s.chunk_len[ck];
        if kmax > 0 {
            let pg = ctx.whilelt(p0, s.n_rows);
            let half = ctx.dup_f64(0.5);
            let mut acc = ctx.dup_f64(0.0);
            for j in 0..kmax {
                let (actl, vall, coll) = sell_streams(s, ck, nr, j);
                let (actl, vall, coll) = (pad_f64(&actl, c), pad_f64(&vall, c), pad_i64(&coll, c));
                obs::add(Counter::BytesLoaded, 8 * nr as u64);
                let act = ctx.input_f64(&actl);
                obs::add(Counter::BytesLoaded, 8 * nr as u64);
                let a = ctx.input_f64(&vall);
                obs::add(Counter::BytesLoaded, 8 * nr as u64);
                let ci = ctx.input_i64(&coll);
                let p = ctx.fcmgt(&pg, &act, &half);
                let xv = ctx.ld1d_gather(&p, x, &ci, hints.x_uops);
                acc = ctx.fmla(&p, &acc, &a, &xv);
            }
            for l in 0..nr {
                y[s.row_order[p0 + l]] = acc.f64_lane(l);
            }
        }
    }
    y
}

fn pad_f64(v: &[f64], w: usize) -> Vec<f64> {
    let mut out = vec![0.0; w];
    out[..v.len()].copy_from_slice(v);
    out
}

fn pad_i64(v: &[i64], w: usize) -> Vec<i64> {
    let mut out = vec![0i64; w];
    out[..v.len()].copy_from_slice(v);
    out
}

/// Replay one CRS row-block range `[rows.0, rows.1)` into `y` (indexed
/// from `rows.0`) through a fresh replayer of `t`.
fn crs_replay_range(t: &Trace, m: &Crs, rows: (usize, usize), y: &mut [f64]) {
    let vl = t.vl();
    let out = t.output(0);
    let mut r = t.replayer();
    let mut r0 = rows.0;
    while r0 < rows.1 {
        let nr = vl.min(rows.1 - r0);
        let kmax = (0..nr).map(|l| m.row_nnz(r0 + l)).max().unwrap_or(0);
        if kmax > 0 {
            r.reset_carries();
            r.set_block(r0, m.n_rows);
            for k in 0..kmax {
                let (act, vidx) = crs_streams(m, r0, nr, k);
                r.bind_f64(0, &act);
                r.bind_i64(1, &vidx);
                r.step();
                r.advance();
            }
            for l in 0..nr {
                y[r0 - rows.0 + l] = r.lane_f64(out, l);
            }
        }
        r0 += vl;
    }
}

/// CRS SpMV through the trace replayer. `t` must come from [`crs_trace`]
/// over the same `(m, x)`.
pub fn run_crs_replay(t: &Trace, m: &Crs) -> Vec<f64> {
    let mut y = vec![0.0; m.n_rows];
    crs_replay_range(t, m, (0, m.n_rows), &mut y);
    y
}

/// Parallel CRS replay over the fork/join pool: disjoint row ranges, one
/// worker-resident replayer per task. Bitwise equal to serial replay for
/// any thread count (0 = auto).
pub fn run_crs_replay_par(threads: usize, t: &Trace, m: &Crs) -> Vec<f64> {
    let vl = t.vl();
    let mut y = vec![0.0; m.n_rows];
    // Whole vl-blocks per task so no block straddles two workers.
    let chunk = chunk_rows(m.n_rows, vl);
    ookami_core::par_chunks_mut_with(threads, &mut y, chunk, Schedule::Static, |ci, part| {
        let r0 = ci * chunk;
        crs_replay_range(t, m, (r0, r0 + part.len()), part);
    });
    y
}

fn sell_replay_chunks(t: &Trace, s: &SellCSigma, chunks: (usize, usize), y: &mut [f64]) {
    let c = s.c;
    let out = t.output(0);
    let mut r = t.replayer();
    for ck in chunks.0..chunks.1 {
        let p0 = ck * c;
        let nr = (p0 + c).min(s.n_rows) - p0;
        let kmax = s.chunk_len[ck];
        if kmax > 0 {
            r.reset_carries();
            r.set_block(p0, s.n_rows);
            for j in 0..kmax {
                let (act, val, col) = sell_streams(s, ck, nr, j);
                r.bind_f64(0, &act);
                r.bind_f64(1, &val);
                r.bind_i64(2, &col);
                r.step();
                r.advance();
            }
            for l in 0..nr {
                y[p0 - chunks.0 * c + l] = r.lane_f64(out, l);
            }
        }
    }
}

/// SELL-C-σ SpMV through the trace replayer; returns `y` in original row
/// order. `t` must come from [`sell_trace`] over the same `(s, x)`.
pub fn run_sell_replay(t: &Trace, s: &SellCSigma) -> Vec<f64> {
    let mut packed = vec![0.0; s.n_chunks() * s.c];
    sell_replay_chunks(t, s, (0, s.n_chunks()), &mut packed);
    unpermute(s, &packed)
}

/// Parallel SELL replay: disjoint chunk ranges per task.
pub fn run_sell_replay_par(threads: usize, t: &Trace, s: &SellCSigma) -> Vec<f64> {
    let mut packed = vec![0.0; s.n_chunks() * s.c];
    let c = s.c;
    let chunk = chunk_rows(s.n_chunks(), 1) * c;
    ookami_core::par_chunks_mut_with(threads, &mut packed, chunk, Schedule::Static, |ci, part| {
        let ck0 = ci * (chunk / c);
        sell_replay_chunks(t, s, (ck0, ck0 + part.len() / c), part);
    });
    unpermute(s, &packed)
}

fn unpermute(s: &SellCSigma, packed: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; s.n_rows];
    for (p, &r) in s.row_order.iter().enumerate() {
        y[r] = packed[p];
    }
    y
}

/// Rows (or chunks) per parallel task: at least one vector block, at
/// most ~64 blocks, so small matrices still fan out.
fn chunk_rows(total: usize, unit: usize) -> usize {
    let blocks = total.div_ceil(unit).max(1);
    let per_task = blocks
        .div_ceil(ookami_core::auto_threads().max(1) * 4)
        .max(1);
    per_task.min(64) * unit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_for(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.5 + 0.125 * i as f64).collect()
    }

    #[test]
    fn crs_interp_replay_ref_agree_bitwise() {
        let m = Crs::ragged(53, 40, 9, 5);
        let x = x_for(m.n_cols);
        let hints = GatherHints::uniform(8);
        let want = m.spmv_ref(&x);
        let yi = run_crs_interp(&m, &x, 8, hints);
        let t = crs_trace(&m, &x, 8, hints);
        let yr = run_crs_replay(&t, &m);
        let yp = run_crs_replay_par(4, &t, &m);
        for r in 0..m.n_rows {
            assert_eq!(want[r].to_bits(), yi[r].to_bits(), "interp row {r}");
            assert_eq!(want[r].to_bits(), yr[r].to_bits(), "replay row {r}");
            assert_eq!(want[r].to_bits(), yp[r].to_bits(), "par row {r}");
        }
    }

    #[test]
    fn sell_executors_agree_bitwise_with_crs() {
        let m = Crs::ragged(41, 32, 7, 9);
        let x = x_for(m.n_cols);
        let hints = GatherHints::uniform(8);
        let want = m.spmv_ref(&x);
        let s = SellCSigma::from_crs(&m, 8, 16);
        let yi = run_sell_interp(&s, &x, hints);
        let t = sell_trace(&s, &x, hints);
        let yr = run_sell_replay(&t, &s);
        let yp = run_sell_replay_par(3, &t, &s);
        for r in 0..m.n_rows {
            assert_eq!(want[r].to_bits(), yi[r].to_bits(), "interp row {r}");
            assert_eq!(want[r].to_bits(), yr[r].to_bits(), "replay row {r}");
            assert_eq!(want[r].to_bits(), yp[r].to_bits(), "par row {r}");
        }
    }

    #[test]
    fn gather_elems_count_nnz_exactly() {
        let m = Crs::ragged(29, 24, 6, 13);
        let x = x_for(m.n_cols);
        let hints = GatherHints::uniform(8);
        if !obs::enabled() {
            return;
        }
        // This thread's counters: tests running beside this one gather too.
        let t0 = obs::thread_snapshot();
        let _ = run_crs_interp(&m, &x, 8, hints);
        let crs_elems = obs::thread_snapshot().since(&t0).get(Counter::GatherElems);
        assert_eq!(crs_elems, 3 * m.nnz() as u64);
        let s = SellCSigma::from_crs(&m, 8, 29);
        let t1 = obs::thread_snapshot();
        let _ = run_sell_interp(&s, &x, hints);
        let sell_elems = obs::thread_snapshot().since(&t1).get(Counter::GatherElems);
        assert_eq!(sell_elems, m.nnz() as u64);
    }
}
