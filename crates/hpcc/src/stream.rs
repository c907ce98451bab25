//! STREAM-style bandwidth kernels (copy / scale / add / triad).
//!
//! Not an HPCC figure in the paper, but the quantity its §II hardware
//! claims rest on ("32 GB of high-bandwidth memory (1 TB/s)", "256
//! Gbyte/s" per CMG): the model's sustained-bandwidth numbers are exactly
//! what a STREAM triad measures, and the native kernels here are what the
//! `ookamistat` probe drives.

use ookami_core::runtime::{par_for, SendPtr};
use ookami_uarch::Machine;

/// STREAM working arrays.
#[derive(Debug, Clone)]
pub struct Stream {
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub c: Vec<f64>,
}

impl Stream {
    pub fn new(n: usize) -> Self {
        Stream {
            a: (0..n).map(|i| 1.0 + i as f64 * 1e-9).collect(),
            b: (0..n).map(|i| 2.0 - i as f64 * 1e-9).collect(),
            c: vec![0.0; n],
        }
    }

    fn split_write(dst: &mut [f64], threads: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
        let base = SendPtr::new(dst.as_mut_ptr());
        let n = dst.len();
        par_for(threads, n, |_, s, e| {
            // SAFETY: static ranges [s, e) are disjoint and `dst` outlives
            // the region.
            let chunk = unsafe { base.slice_mut(s, e - s) };
            f(s, chunk);
        });
    }

    /// c = a  (2 words/iter of traffic).
    pub fn copy(&mut self, threads: usize) {
        let _span = ookami_core::obs::region("hpcc_stream_copy");
        let a = &self.a;
        Self::split_write(&mut self.c, threads, |s, chunk| {
            chunk.copy_from_slice(&a[s..s + chunk.len()]);
        });
    }

    /// b = α·c  (2 words/iter).
    pub fn scale(&mut self, alpha: f64, threads: usize) {
        let _span = ookami_core::obs::region("hpcc_stream_scale");
        let c = &self.c;
        Self::split_write(&mut self.b, threads, |s, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = alpha * c[s + i];
            }
        });
    }

    /// c = a + b  (3 words/iter).
    pub fn add(&mut self, threads: usize) {
        let _span = ookami_core::obs::region("hpcc_stream_add");
        let a = &self.a;
        let b = &self.b;
        Self::split_write(&mut self.c, threads, |s, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = a[s + i] + b[s + i];
            }
        });
    }

    /// a = b + α·c  (3 words/iter) — the headline STREAM kernel.
    pub fn triad(&mut self, alpha: f64, threads: usize) {
        let _span = ookami_core::obs::region("hpcc_stream_triad");
        let b = &self.b;
        let c = &self.c;
        Self::split_write(&mut self.a, threads, |s, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = b[s + i] + alpha * c[s + i];
            }
        });
    }
}

/// Modeled triad bandwidth (GB/s) at `threads` threads under first-touch —
/// what the model says a STREAM run on the machine would report.
pub fn modeled_triad_gbs(m: &Machine, threads: usize) -> f64 {
    ookami_mem::placement::effective_bandwidth_gbs(
        &m.numa,
        ookami_mem::placement::Placement::FirstTouch,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_uarch::machines;

    #[test]
    fn kernels_compute_correctly() {
        let n = 10_000;
        let mut s = Stream::new(n);
        s.copy(4);
        assert_eq!(s.c, s.a);
        s.scale(2.5, 4);
        for i in 0..n {
            assert_eq!(s.b[i], 2.5 * s.c[i]);
        }
        s.add(4);
        for i in 0..n {
            assert_eq!(s.c[i], s.a[i] + s.b[i]);
        }
        let b0 = s.b.clone();
        let c0 = s.c.clone();
        s.triad(3.0, 4);
        for i in 0..n {
            assert_eq!(s.a[i], b0[i] + 3.0 * c0[i]);
        }
    }

    #[test]
    fn threading_matches_serial() {
        let n = 8191; // ragged
        let mut s1 = Stream::new(n);
        let mut s8 = Stream::new(n);
        s1.triad(1.7, 1);
        s8.triad(1.7, 8);
        assert_eq!(s1.a, s8.a);
    }

    #[test]
    fn modeled_triad_matches_paper_hardware_claims() {
        let m = machines::a64fx();
        // §II: 256 GB/s per CMG, 1 TB/s per node.
        assert!((modeled_triad_gbs(m, 12) - 256.0).abs() < 1.0);
        assert!((modeled_triad_gbs(m, 48) - 1024.0).abs() < 1.0);
        // single core cannot saturate a CMG
        assert!(modeled_triad_gbs(m, 1) < 256.0 * 0.3);
    }
}
