//! CG — Conjugate Gradient, ported from the NPB specification: estimate
//! the smallest eigenvalue of a large sparse symmetric matrix via inverse
//! power iteration, each step solved with 25 (unpreconditioned) CG
//! iterations. Includes a faithful `makea` (geometrically weighted sum of
//! random sparse outer products, diagonal-adjusted by `rcond − shift`),
//! driven by the same 46-bit LCG as EP — the source of the "randomly
//! generated locations of entries" cache behaviour the paper highlights.

use crate::classes::Class;
use crate::randnpb::{randlc, A as AMULT};
use ookami_core::runtime::{par_for_with, par_reduce, SendPtr};
use ookami_core::Schedule;
use std::collections::BTreeMap;

const RCOND: f64 = 0.1;
const CGITMAX: usize = 25;
const TRAN0: u64 = 314_159_265;

/// Compressed-sparse-row symmetric matrix.
#[derive(Debug, Clone)]
pub struct Csr {
    pub n: usize,
    pub rowstr: Vec<usize>,
    pub colidx: Vec<u32>,
    pub a: Vec<f64>,
}

impl Csr {
    pub fn nnz(&self) -> usize {
        self.a.len()
    }

    /// y = A·x (parallel over rows; the gather `x[colidx[k]]` is the
    /// benchmark's signature access pattern).
    pub fn spmv(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let rowstr = &self.rowstr;
        let colidx = &self.colidx;
        let a = &self.a;
        // Parallel write into disjoint row ranges of y: each claimed
        // [s, e) slice is reconstructed from the base address, so no two
        // threads alias. Row cost varies with nnz, so rows are stolen in
        // dynamic chunks rather than split statically.
        let ybase = SendPtr::new(y.as_mut_ptr());
        par_for_with(
            threads,
            self.n,
            Schedule::Dynamic { chunk: 64 },
            |_, s, e| {
                // SAFETY: dynamic chunks hand out disjoint `s..e` row
                // ranges exactly once; `y` outlives the region.
                let y = unsafe { ybase.slice_mut(s, e - s) };
                for (row, yo) in (s..e).zip(y.iter_mut()) {
                    let mut sum = 0.0;
                    for k in rowstr[row]..rowstr[row + 1] {
                        sum += a[k] * x[colidx[k] as usize];
                    }
                    *yo = sum;
                }
            },
        );
    }
}

/// `sprnvc` + `vecset`: one random sparse vector with `nonzer` distinct
/// random entries plus a guaranteed `0.5` at position `iouter`.
fn sprnvc(
    n: usize,
    nonzer: usize,
    nn1: usize,
    tran: &mut u64,
    iouter: usize,
    idx: &mut Vec<u32>,
    val: &mut Vec<f64>,
) {
    idx.clear();
    val.clear();
    while idx.len() < nonzer {
        let vecelt = randlc(tran, AMULT);
        let vecloc = randlc(tran, AMULT);
        let i = (nn1 as f64 * vecloc) as usize;
        if i >= n {
            continue;
        }
        if idx.iter().any(|&j| j as usize == i) {
            continue;
        }
        idx.push(i as u32);
        val.push(vecelt);
    }
    // vecset: force entry iouter to 0.5.
    if let Some(p) = idx.iter().position(|&j| j as usize == iouter) {
        val[p] = 0.5;
    } else {
        idx.push(iouter as u32);
        val.push(0.5);
    }
}

/// `makea`: A = Σ_j size_j·x_j·x_jᵀ (size_j geometric from 1 down to
/// `rcond`) with `rcond − shift` added on the diagonal.
pub fn makea(n: usize, nonzer: usize, shift: f64) -> Csr {
    let nn1 = n.next_power_of_two();
    let ratio = RCOND.powf(1.0 / n as f64);
    let mut tran = TRAN0;
    // The reference main program burns one draw ("zeta = randlc(tran,
    // amult)") before calling makea; the sparse pattern depends on it.
    let _ = randlc(&mut tran, AMULT);
    let mut size = 1.0f64;

    let mut rows: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); n];
    let mut idx = Vec::with_capacity(nonzer + 1);
    let mut val = Vec::with_capacity(nonzer + 1);
    for iouter in 0..n {
        sprnvc(n, nonzer, nn1, &mut tran, iouter, &mut idx, &mut val);
        for (p, (&ip, &vp)) in idx.iter().zip(val.iter()).enumerate() {
            let scale = size * vp;
            for (q, (&iq, &vq)) in idx.iter().zip(val.iter()).enumerate() {
                let mut va = vq * scale;
                if ip as usize == iouter && iq as usize == iouter && p == q {
                    // exercised once per outer iteration (the 0.5 entry)
                    va += RCOND - shift;
                }
                *rows[iq as usize].entry(ip).or_insert(0.0) += va;
            }
        }
        size *= ratio;
    }

    let mut rowstr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::new();
    let mut a = Vec::new();
    rowstr.push(0);
    for row in rows {
        for (c, v) in row {
            colidx.push(c);
            a.push(v);
        }
        rowstr.push(a.len());
    }
    Csr {
        n,
        rowstr,
        colidx,
        a,
    }
}

/// Result of a CG run.
#[derive(Debug, Clone, Copy)]
pub struct CgResult {
    pub zeta: f64,
    pub rnorm: f64,
}

fn dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    par_reduce(
        threads,
        a.len(),
        0.0f64,
        |s, e, acc| {
            acc + a[s..e]
                .iter()
                .zip(&b[s..e])
                .map(|(x, y)| x * y)
                .sum::<f64>()
        },
        |x, y| x + y,
    )
}

/// One NPB `conj_grad` call: 25 CG iterations on `A z = x`; returns
/// `‖x − A z‖`.
pub fn conj_grad(m: &Csr, x: &[f64], z: &mut [f64], threads: usize) -> f64 {
    let n = m.n;
    let mut q = vec![0.0; n];
    let mut r: Vec<f64> = x.to_vec();
    let mut p = r.clone();
    z.fill(0.0);
    let mut rho = dot(&r, &r, threads);

    for _ in 0..CGITMAX {
        m.spmv(&p, &mut q, threads);
        let d = dot(&p, &q, threads);
        let alpha = rho / d;
        for i in 0..n {
            z[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho0 = rho;
        rho = dot(&r, &r, threads);
        let beta = rho / rho0;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    m.spmv(z, &mut q, threads);
    let mut sum = 0.0;
    for i in 0..n {
        let d = x[i] - q[i];
        sum += d * d;
    }
    sum.sqrt()
}

/// Full CG benchmark for `class`: returns the final eigenvalue estimate.
pub fn run(class: Class, threads: usize) -> CgResult {
    let (na, nonzer, niter, shift) = class.cg_params();
    run_params(na, nonzer, niter, shift, threads)
}

/// CG with explicit parameters.
pub fn run_params(na: usize, nonzer: usize, niter: usize, shift: f64, threads: usize) -> CgResult {
    let _span = ookami_core::obs::region("npb_cg");
    let m = makea(na, nonzer, shift);
    let mut x = vec![1.0; na];
    let mut z = vec![0.0; na];

    // Untimed warm-up iteration, then reset (as the reference does).
    let _ = conj_grad(&m, &x, &mut z, threads);
    x.fill(1.0);

    let mut zeta = 0.0;
    let mut rnorm = 0.0;
    for _ in 0..niter {
        rnorm = conj_grad(&m, &x, &mut z, threads);
        let xz = dot(&x, &z, threads);
        let zz = dot(&z, &z, threads);
        zeta = shift + 1.0 / xz;
        let norm = 1.0 / zz.sqrt();
        for i in 0..na {
            x[i] = norm * z[i];
        }
    }
    CgResult { zeta, rnorm }
}

/// Official verification zetas (NPB 3 `cg.f`), classes S/W/A.
pub fn reference_zeta(class: Class) -> Option<f64> {
    match class {
        Class::S => Some(8.597_177_507_864_8),
        Class::W => Some(10.362_595_087_124),
        Class::A => Some(17.130_235_054_029),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let m = makea(200, 5, 10.0);
        // Check A == Aᵀ by dense reconstruction of a small instance.
        let mut dense = vec![vec![0.0; m.n]; m.n];
        for i in 0..m.n {
            for k in m.rowstr[i]..m.rowstr[i + 1] {
                dense[i][m.colidx[k] as usize] = m.a[k];
            }
        }
        for i in 0..m.n {
            for j in 0..m.n {
                assert!(
                    (dense[i][j] - dense[j][i]).abs() < 1e-12,
                    "asym at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn row_nnz_is_bounded() {
        let (na, nonzer, _, shift) = Class::S.cg_params();
        let m = makea(na, nonzer, shift);
        let max_row = (0..m.n)
            .map(|i| m.rowstr[i + 1] - m.rowstr[i])
            .max()
            .unwrap();
        // each row receives contributions from ≤ ~nonzer+1 vectors × entries
        assert!(
            max_row <= (nonzer + 1) * (nonzer + 1) * 4,
            "max row nnz {max_row}"
        );
        assert!(m.nnz() > na * nonzer, "too sparse: {}", m.nnz());
    }

    #[test]
    fn class_s_zeta_matches_official_verification() {
        let r = run(Class::S, 4);
        let want = reference_zeta(Class::S).unwrap();
        assert!(
            (r.zeta - want).abs() < 1e-9,
            "zeta {} vs official {want}",
            r.zeta
        );
    }

    #[test]
    fn class_w_zeta_matches_official_verification() {
        let r = run(Class::W, 4);
        let want = reference_zeta(Class::W).unwrap();
        assert!(
            (r.zeta - want).abs() < 1e-9,
            "zeta {} vs official {want}",
            r.zeta
        );
    }

    #[test]
    #[ignore = "class A: run by check.sh"]
    fn class_a_zeta_matches_official_verification() {
        let r = run(Class::A, 8);
        let want = reference_zeta(Class::A).unwrap();
        assert!(
            (r.zeta - want).abs() < 1e-9,
            "zeta {} vs official {want}",
            r.zeta
        );
    }

    #[test]
    fn threads_do_not_change_zeta_materially() {
        let a = run_params(1400, 7, 5, 10.0, 1);
        let b = run_params(1400, 7, 5, 10.0, 6);
        assert!((a.zeta - b.zeta).abs() < 1e-9, "{} vs {}", a.zeta, b.zeta);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = makea(150, 4, 10.0);
        let x: Vec<f64> = (0..m.n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut y = vec![0.0; m.n];
        m.spmv(&x, &mut y, 3);
        for i in 0..m.n {
            let mut want = 0.0;
            for k in m.rowstr[i]..m.rowstr[i + 1] {
                want += m.a[k] * x[m.colidx[k] as usize];
            }
            assert!((y[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn cg_reduces_residual() {
        let m = makea(500, 6, 12.0);
        let x = vec![1.0; m.n];
        let mut z = vec![0.0; m.n];
        let rnorm = conj_grad(&m, &x, &mut z, 2);
        let x_norm = (m.n as f64).sqrt();
        assert!(rnorm < x_norm, "‖x‖ {x_norm} vs residual {rnorm}");
        assert!(z.iter().any(|&v| v != 0.0));
    }
}
