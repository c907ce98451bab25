//! The four STREAM kernels (McCalpin) as pure streaming traces — the
//! bandwidth anchors of the A64FX modeling papers (arXiv 2009.13903
//! measures exactly these four on this machine).
//!
//! Each kernel is a one-op trace body over bound input streams:
//!
//! | kernel | body            | arrays |
//! |--------|-----------------|--------|
//! | copy   | `c[i] = a[i]`   | 2      |
//! | scale  | `b[i] = s·c[i]` | 2      |
//! | add    | `c[i] = a[i]+b[i]` | 3   |
//! | triad  | `a[i] = b[i]+s·c[i]` | 3 |
//!
//! Copy is an `ORR` move alias, so it is bit-faithful for every payload
//! including NaNs. All four are carry-free and gather-free, which makes
//! them batchable in the replayer *and* compilable to native closures —
//! the streaming counterpart to SpMV's replayer-fallback path.

use ookami_sve::Trace;

/// The STREAM scalar `s` (McCalpin's reference value).
pub const STREAM_SCALAR: f64 = 3.0;

/// Which STREAM kernel a trace/runner implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    Copy,
    Scale,
    Add,
    Triad,
}

impl StreamKernel {
    pub const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
        }
    }

    /// Number of bound input streams (1 or 2).
    pub fn inputs(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 1,
            StreamKernel::Add | StreamKernel::Triad => 2,
        }
    }
}

/// Record one STREAM kernel at vector length `vl`.
pub fn stream_trace(k: StreamKernel, vl: usize) -> Trace {
    match k {
        // MOV is an ORR alias on SVE; a one-op body keeps the trace
        // non-empty and the move bit-faithful.
        StreamKernel::Copy => Trace::record1(vl, |ctx, pg, x| ctx.orr_u(pg, x, x)),
        StreamKernel::Scale => Trace::record1(vl, |ctx, pg, x| {
            let s = ctx.dup_f64(STREAM_SCALAR);
            ctx.fmul(pg, x, &s)
        }),
        StreamKernel::Add => Trace::record2(vl, ookami_sve::SveCtx::fadd),
        StreamKernel::Triad => Trace::record2(vl, |ctx, pg, b, c| {
            let s = ctx.dup_f64(STREAM_SCALAR);
            ctx.fmla(pg, b, &s, c)
        }),
    }
}

/// Scalar reference, bit-identical to the emulated kernels: scale is a
/// bare product, triad a fused `s·c + b` (the emulator's FMLA is fused).
pub fn stream_ref(k: StreamKernel, a: &[f64], b: Option<&[f64]>) -> Vec<f64> {
    match k {
        StreamKernel::Copy => a.to_vec(),
        StreamKernel::Scale => a.iter().map(|&x| STREAM_SCALAR * x).collect(),
        StreamKernel::Add => {
            let b = b.expect("add takes two streams");
            a.iter().zip(b).map(|(&x, &y)| x + y).collect()
        }
        StreamKernel::Triad => {
            let b = b.expect("triad takes two streams");
            a.iter()
                .zip(b)
                .map(|(&x, &y)| STREAM_SCALAR.mul_add(y, x))
                .collect()
        }
    }
}

/// Run a recorded STREAM trace through the chosen executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamExec {
    Interp,
    Replay,
    Compiled,
}

/// One entry point for the differential tests: run kernel `k` over the
/// stream(s) with `threads` workers (0 = auto, 1 = serial path).
pub fn run_stream(
    t: &Trace,
    k: StreamKernel,
    exec: StreamExec,
    threads: usize,
    a: &[f64],
    b: Option<&[f64]>,
) -> Vec<f64> {
    match (k.inputs(), exec, threads) {
        (1, StreamExec::Interp, _) => t.map(a),
        (1, StreamExec::Replay, 1) => t.replay_map(a),
        (1, StreamExec::Replay, n) => t.replay_par_map(n, a),
        (1, StreamExec::Compiled, 1) => t.compile().map(a),
        (1, StreamExec::Compiled, n) => t.compile().par_map(n, a),
        (2, StreamExec::Interp, _) => t.map2(a, b.expect("two streams")),
        (2, StreamExec::Replay, 1) => t.replay_map2(a, b.expect("two streams")),
        (2, StreamExec::Replay, n) => t.replay_par_map2(n, a, b.expect("two streams")),
        (2, StreamExec::Compiled, 1) => t.compile().map2(a, b.expect("two streams")),
        (2, StreamExec::Compiled, n) => t.compile().par_map2(n, a, b.expect("two streams")),
        _ => unreachable!("inputs() is 1 or 2"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_kernels_match_reference_bitwise() {
        let n = 77;
        let a: Vec<f64> = (0..n).map(|i| 1.0 + 0.5 * i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 0.25 * i as f64 - 3.0).collect();
        for k in StreamKernel::ALL {
            let t = stream_trace(k, 8);
            let bb = (k.inputs() == 2).then_some(b.as_slice());
            let want = stream_ref(k, &a, bb);
            for exec in [StreamExec::Interp, StreamExec::Replay, StreamExec::Compiled] {
                let got = run_stream(&t, k, exec, 1, &a, bb);
                assert_eq!(got.len(), want.len());
                for i in 0..n {
                    assert_eq!(
                        want[i].to_bits(),
                        got[i].to_bits(),
                        "{} {exec:?} elem {i}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn copy_is_bit_faithful_for_nan_payloads() {
        let weird = f64::from_bits(0x7FF0_0000_0000_BEEF); // signaling-ish NaN payload
        let a = vec![weird, -0.0, f64::INFINITY, 1.5];
        let t = stream_trace(StreamKernel::Copy, 8);
        let y = t.replay_map(&a);
        for i in 0..a.len() {
            assert_eq!(a[i].to_bits(), y[i].to_bits());
        }
    }

    #[test]
    fn stream_traces_compile_natively() {
        // No gathers, no carries: the compiled engine must take the
        // native path for all four (SpMV takes the fallback — tested in
        // its own module).
        for k in StreamKernel::ALL {
            let t = stream_trace(k, 8);
            assert!(t.compile().is_native(), "{} fell back", k.name());
        }
    }
}
