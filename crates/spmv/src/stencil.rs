//! A Wilson-Dslash-flavored lattice stencil family.
//!
//! Lattice QCD's Dslash is, memory-wise, a nearest-neighbor gather over a
//! periodic lattice followed by a short arithmetic chain per site — the
//! second workload arXiv 2103.03013 models on A64FX. This module keeps
//! that shape at `f64` granularity:
//!
//! ```text
//! out[i] = mass·u[i] + kappa · Σ_d u[(i + d) mod n]
//! ```
//!
//! with 4 neighbors (±1, ±nx on a 2-D helical lattice) or 6 neighbors
//! (±1, ±nx, ±nx·ny in 3-D). The lattice size is a power of two, so the
//! periodic wrap is an `AND` with `n-1` — every gather index is provably
//! in `[0, n)`, which the `ookamicheck` bounds pass can see.
//!
//! The trace takes a single `f64` input (the site index), converts it
//! with `fcvtzs`, and builds every neighbor index in-register: that makes
//! the family expressible through the one-input `map` drivers on all
//! three executors, and — because the body is gather-heavy — the compiled
//! engine takes its replayer *fallback* path, which this family exists to
//! exercise (the STREAM family covers the native path).

use ookami_sve::{SveCtx, Trace, TraceBuilder, VVal};

/// Stencil geometry: neighbor offsets on a helical periodic lattice of
/// `n` sites (`n` a power of two).
#[derive(Debug, Clone)]
pub struct Stencil {
    pub n: usize,
    /// Neighbor offsets, already reduced to positive representatives
    /// mod `n` (so in-register index math never goes negative).
    pub offsets: Vec<usize>,
    pub mass: f64,
    pub kappa: f64,
}

impl Stencil {
    /// 4-point stencil on an `nx × ny` helical lattice (±1, ±nx).
    pub fn d2(nx: usize, ny: usize, mass: f64, kappa: f64) -> Stencil {
        let n = nx * ny;
        assert!(n.is_power_of_two(), "lattice size must be a power of two");
        Stencil {
            n,
            offsets: vec![1, n - 1, nx % n, (n - nx % n) % n],
            mass,
            kappa,
        }
    }

    /// 7-point stencil on an `nx × ny × nz` lattice (±1, ±nx, ±nx·ny).
    pub fn d3(nx: usize, ny: usize, nz: usize, mass: f64, kappa: f64) -> Stencil {
        let n = nx * ny * nz;
        assert!(n.is_power_of_two(), "lattice size must be a power of two");
        let (dx, dy) = (1, nx % n);
        let dz = (nx * ny) % n;
        Stencil {
            n,
            offsets: vec![dx, n - dx, dy, (n - dy) % n, dz, (n - dz) % n],
            mass,
            kappa,
        }
    }

    pub fn points(&self) -> usize {
        self.offsets.len() + 1
    }

    /// The site-index input every runner maps over: `0.0, 1.0, …`.
    pub fn sites_f64(&self) -> Vec<f64> {
        (0..self.n).map(|i| i as f64).collect()
    }

    /// Record the stencil over field `u` (len ≥ `n`; captured as the
    /// gather table). `x_uops` is the gather crack hint.
    pub fn trace(&self, u: &[f64], vl: usize, x_uops: u32) -> Trace {
        assert!(u.len() >= self.n);
        let mut b = TraceBuilder::new(vl);
        let pg = b.loop_pred();
        let sf = b.input_f64(); // ord 0: site index as f64
        b.begin_body();
        let ctx = b.ctx();
        let mask = ctx.dup_i64(self.n as i64 - 1);
        let ci = ctx.fcvtzs(&pg, &sf);
        let mut sum: Option<VVal> = None;
        for &d in &self.offsets {
            let dv = ctx.dup_i64(d as i64);
            let nb = ctx.add_i(&pg, &ci, &dv);
            let idx = ctx.and_u(&pg, &nb, &mask);
            let uv = ctx.ld1d_gather(&pg, u, &idx, x_uops);
            sum = Some(match sum {
                None => uv,
                Some(s) => ctx.fadd(&pg, &s, &uv),
            });
        }
        let s = sum.expect("a stencil has at least one neighbor");
        let center = ctx.ld1d_gather(&pg, u, &ci, x_uops);
        let massv = ctx.dup_f64(self.mass);
        let kappav = ctx.dup_f64(self.kappa);
        let t = ctx.fmul(&pg, &center, &massv);
        let out = ctx.fmla(&pg, &t, &kappav, &s);
        b.finish(&[&out])
    }

    /// Fused scalar reference: neighbor sum in offset order, then
    /// `kappa·sum + mass·u[i]` with the product rounded once and the
    /// final FMA fused — the emulated body's exact rounding sequence.
    pub fn apply_ref(&self, u: &[f64]) -> Vec<f64> {
        assert!(u.len() >= self.n);
        (0..self.n)
            .map(|i| {
                let mut s = u[(i + self.offsets[0]) & (self.n - 1)];
                for &d in &self.offsets[1..] {
                    s += u[(i + d) & (self.n - 1)];
                }
                self.kappa.mul_add(s, self.mass * u[i])
            })
            .collect()
    }

    /// The interpreter path, mirroring [`Stencil::trace`] op for op (the
    /// `map` driver stages inputs identically, so this is only used by
    /// counter-identity tests that want an explicit context).
    pub fn apply_interp(&self, u: &[f64], vl: usize, x_uops: u32) -> Vec<f64> {
        assert!(u.len() >= self.n);
        let mut ctx = SveCtx::new(vl);
        let mut y = Vec::with_capacity(self.n);
        let mut i = 0;
        while i < self.n {
            let pg = ctx.whilelt(i, self.n);
            let nr = vl.min(self.n - i);
            let mut lanes = vec![0.0; vl];
            for (l, lane) in lanes.iter_mut().enumerate().take(nr) {
                *lane = (i + l) as f64;
            }
            ookami_core::obs::add(ookami_core::obs::Counter::BytesLoaded, 8 * nr as u64);
            let sf = ctx.input_f64(&lanes);
            let mask = ctx.dup_i64(self.n as i64 - 1);
            let ci = ctx.fcvtzs(&pg, &sf);
            let mut sum: Option<VVal> = None;
            for &d in &self.offsets {
                let dv = ctx.dup_i64(d as i64);
                let nb = ctx.add_i(&pg, &ci, &dv);
                let idx = ctx.and_u(&pg, &nb, &mask);
                let uv = ctx.ld1d_gather(&pg, u, &idx, x_uops);
                sum = Some(match sum {
                    None => uv,
                    Some(s) => ctx.fadd(&pg, &s, &uv),
                });
            }
            let s = sum.expect("a stencil has at least one neighbor");
            let center = ctx.ld1d_gather(&pg, u, &ci, x_uops);
            let massv = ctx.dup_f64(self.mass);
            let kappav = ctx.dup_f64(self.kappa);
            let t = ctx.fmul(&pg, &center, &massv);
            let out = ctx.fmla(&pg, &t, &kappav, &s);
            for l in 0..nr {
                y.push(out.f64_lane(l));
            }
            i += vl;
        }
        y
    }

    /// Deterministic test field: a smooth wave plus a site-local term.
    pub fn field(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| 1.0 + 0.001 * i as f64 + (0.1 * i as f64).sin())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d2_executors_agree_bitwise() {
        let st = Stencil::d2(8, 8, 0.5, -0.125);
        let u = st.field();
        let want = st.apply_ref(&u);
        let t = st.trace(&u, 8, 8);
        let sites = st.sites_f64();
        let yi = t.map(&sites);
        let yr = t.replay_map(&sites);
        let yc = t.compile().map(&sites);
        let ym = st.apply_interp(&u, 8, 8);
        for i in 0..st.n {
            assert_eq!(want[i].to_bits(), yi[i].to_bits(), "map site {i}");
            assert_eq!(want[i].to_bits(), yr[i].to_bits(), "replay site {i}");
            assert_eq!(want[i].to_bits(), yc[i].to_bits(), "compiled site {i}");
            assert_eq!(want[i].to_bits(), ym[i].to_bits(), "interp site {i}");
        }
    }

    #[test]
    fn d2_gathers_share_one_captured_field() {
        // Four neighbor gathers and the center gather read the same
        // unchanged field: five table indices, one allocation.
        let st = Stencil::d2(8, 8, 0.5, -0.125);
        let t = st.trace(&st.field(), 8, 8);
        let tabs = t.tables();
        assert_eq!(tabs.len(), 5);
        assert!(tabs.iter().all(|tab| std::sync::Arc::ptr_eq(tab, &tabs[0])));
    }

    #[test]
    fn d3_wraps_periodically() {
        let st = Stencil::d3(4, 4, 4, 1.0, 1.0);
        let u = st.field();
        let y = st.apply_ref(&u);
        // Site 0's -1 neighbor is site n-1: verify the wrap contributes.
        let manual: f64 = u[1] + u[st.n - 1] + u[4] + u[st.n - 4] + u[16] + u[st.n - 16];
        assert_eq!(y[0].to_bits(), 1.0f64.mul_add(manual, u[0]).to_bits());
    }

    #[test]
    fn gather_heavy_stencil_takes_compiled_fallback() {
        let st = Stencil::d2(8, 8, 0.5, -0.125);
        let u = st.field();
        let t = st.trace(&u, 8, 8);
        // The compiled engine must still be bit-identical, but via its
        // replayer fallback: gathers keep the body off the native path.
        assert!(!t.compile().is_native());
    }
}
