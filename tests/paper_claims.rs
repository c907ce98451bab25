//! Integration tests: the paper's headline claims, checked end-to-end
//! through the public `ookami` facade (models + emulator + native code
//! working together).

use ookami::core::measure::Measurement;
use ookami::core::MathFunc;
use ookami::loops::{fig1, fig2};
use ookami::toolchain::lower::LoopKind;
use ookami::toolchain::mathlib::math_cycles_per_element;
use ookami::toolchain::Compiler;
use ookami::uarch::machines;

/// §II: "Theoretical peak double precision speed is computed as 1.8 GHz ×
/// 2 FMA/cycle × 2 FLOPs/FMA × 8 64-bit words/vector = 57.6 GFLOP/s/core."
#[test]
fn peak_arithmetic() {
    let m = machines::a64fx();
    assert!((m.peak_gflops_per_core() - 57.6).abs() < 1e-9);
    assert!((m.node_bandwidth_gbs() - 1024.0).abs() < 1.0); // "1 TB/s"
}

/// §III: "The Intel, Fujitsu, Cray and ARM compilers vectorized all loops,
/// whereas the GNU compiler did not vectorize exp, sin, and pow."
#[test]
fn gnu_vectorization_holes() {
    for f in [MathFunc::Exp, MathFunc::Sin, MathFunc::Pow] {
        assert!(!Compiler::Gnu.vectorizes_math(f));
        for c in [
            Compiler::Fujitsu,
            Compiler::Cray,
            Compiler::Arm,
            Compiler::Intel,
        ] {
            assert!(c.vectorizes_math(f));
        }
    }
}

/// The Fig. 1/2 cell for `workload` under `c`, read from the figure's rows.
fn cell(rows: &[Measurement], workload: &str, c: Compiler) -> f64 {
    rows.iter()
        .find(|r| r.workload == workload && r.toolchain == c.label())
        .map(|r| r.value)
        .expect("figure cell")
}

/// §III: "the Fujitsu toolchain delivers the highest performance for all
/// loops, followed by Cray, and ARM/GNU."
#[test]
fn fujitsu_leads_every_loop() {
    let rows = fig1::figure1();
    for kind in LoopKind::ALL {
        let fuj = cell(&rows, kind.label(), Compiler::Fujitsu);
        for c in [Compiler::Cray, Compiler::Arm, Compiler::Gnu] {
            assert!(
                cell(&rows, kind.label(), c) >= fuj - 1e-9,
                "{kind:?}: {c:?} beat fujitsu"
            );
        }
    }
}

/// §III: Fujitsu "hovers at the factor of 2 expected from the ratio of the
/// clock speeds, except for the predicate operation that is 3-fold slower
/// and the short gather that is only circa 1.5-fold slower."
#[test]
fn fig1_shape() {
    let rows = fig1::figure1();
    let simple = cell(&rows, LoopKind::Simple.label(), Compiler::Fujitsu);
    let pred = cell(&rows, LoopKind::Predicate.label(), Compiler::Fujitsu);
    let short_g = cell(&rows, LoopKind::ShortGather.label(), Compiler::Fujitsu);
    assert!((1.5..2.7).contains(&simple), "simple {simple}");
    assert!(pred > simple && pred > 2.2, "predicate {pred}");
    assert!(
        short_g < simple,
        "short gather {short_g} vs simple {simple}"
    );
}

/// §IV: the exp cycle ladder — GNU ~32, vectorized toolchains single
/// digits on A64FX, Intel fastest on Skylake.
#[test]
fn exp_cycle_ladder() {
    let a = machines::a64fx();
    let s = machines::skylake_6140();
    let gnu = math_cycles_per_element(MathFunc::Exp, Compiler::Gnu, a);
    let fuj = math_cycles_per_element(MathFunc::Exp, Compiler::Fujitsu, a);
    let intel = math_cycles_per_element(MathFunc::Exp, Compiler::Intel, s);
    assert!((gnu - 32.0).abs() < 3.0, "gnu {gnu}");
    assert!(fuj < 3.0, "fujitsu {fuj}");
    assert!(intel < fuj, "intel {intel} vs fujitsu {fuj}");
}

/// Conclusion: with GNU "some kernels might run 30-times slower than if
/// using the Fujitsu or Cray compilers."
#[test]
fn thirty_x_cliff() {
    let rows = fig2::figure2();
    let worst = fig2::FIG2_FUNCS
        .iter()
        .map(|f| cell(&rows, f.label(), Compiler::Gnu) / cell(&rows, f.label(), Compiler::Fujitsu))
        .fold(0.0, f64::max);
    assert!(worst > 10.0, "worst gnu/fujitsu kernel ratio {worst}");
}

/// §V: EP and CG verification — the native ports match the official NPB
/// reference outputs bit-for-bit (to the stated tolerance).
#[test]
fn npb_official_verification() {
    use ookami::npb::{cg, ep, Class};
    let r = ep::run(Class::S, 4);
    let (sx, sy) = ep::reference_sums(Class::S).unwrap();
    assert!(((r.sx - sx) / sx).abs() < 1e-8);
    assert!(((r.sy - sy) / sy).abs() < 1e-8);
    let c = cg::run(Class::S, 4);
    assert!((c.zeta - cg::reference_zeta(Class::S).unwrap()).abs() < 1e-9);
}

/// §V-A2 + Fig. 4: the Fujitsu CMG-0 default placement and its first-touch
/// fix, and A64FX winning the memory-bound applications at full node.
#[test]
fn numa_placement_story() {
    use ookami::npb::figures::figure4;
    let rows = figure4();
    let get = |w: &str, t: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.toolchain == t)
            .unwrap()
            .value
    };
    assert!(get("SP", "fujitsu") / get("SP", "fujitsu-first-touch") > 1.5);
    for app in ["CG", "SP", "UA"] {
        assert!(
            get(app, "gcc") < get(app, "intel"),
            "{app}: A64FX should win"
        );
    }
    assert!(
        get("BT", "intel") < get("BT", "gcc"),
        "BT: Skylake should win"
    );
}

/// §VII: Fujitsu BLAS ≈14× OpenBLAS on DGEMM, ≈10× on HPL, Fujitsu FFTW
/// ≈4.2× stock FFTW.
#[test]
fn library_maturity_ratios() {
    use ookami::hpcc::libs::*;
    let m = machines::a64fx();
    let dg = dgemm_gflops_per_core(BlasLib::FujitsuBlas, m)
        / dgemm_gflops_per_core(BlasLib::OpenBlas, m);
    assert!((dg - 14.0).abs() < 2.0, "dgemm ratio {dg}");
    let hp =
        hpl_gflops_per_node(BlasLib::FujitsuBlas, m) / hpl_gflops_per_node(BlasLib::OpenBlas, m);
    assert!((hp - 10.0).abs() < 2.0, "hpl ratio {hp}");
    let ff =
        fft_gflops_per_node(BlasLib::FujitsuBlas, m) / fft_gflops_per_node(BlasLib::OpenBlas, m);
    assert!((ff - 4.2).abs() < 0.4, "fft ratio {ff}");
}

/// Fig. 1's gather and scatter loops move exactly one element per
/// iteration — checked through the obs hardware-counter layer rather than
/// by inspecting results, the way one would confirm it with `perf` on the
/// real machine. Vacuous unless built with `--features obs`.
#[test]
fn fig1_gather_scatter_element_counts() {
    use ookami::core::obs::{self, Counter};
    use ookami::loops::{emulated, LoopSuite};
    if !obs::enabled() {
        return;
    }
    let n = 512;
    let m = machines::a64fx();
    for vl in [4usize, 8] {
        for short in [false, true] {
            let mut s = LoopSuite::new(n, 11);
            let before = obs::thread_snapshot();
            emulated::run_gather_sve(&mut s, vl, short, m);
            let d = obs::thread_snapshot().since(&before);
            assert_eq!(
                d.get(Counter::GatherElems),
                n as u64,
                "gather vl={vl} short={short}"
            );
            // Every gathered element is an 8-byte load (on top of the
            // index stream the replayer stages).
            assert!(d.get(Counter::BytesLoaded) >= 8 * n as u64);

            let mut s = LoopSuite::new(n, 13);
            let before = obs::thread_snapshot();
            emulated::run_scatter_sve(&mut s, vl, short);
            let d = obs::thread_snapshot().since(&before);
            assert_eq!(
                d.get(Counter::ScatterElems),
                n as u64,
                "scatter vl={vl} short={short}"
            );
            assert_eq!(d.get(Counter::BytesStored), 8 * n as u64);
        }
    }
}

/// Table I: the Fujitsu-style exp issues exactly one FEXPA per vector of
/// elements — `ceil(n / vl)` issues over a range — while the portable
/// polynomial variant never touches the instruction. Vacuous unless built
/// with `--features obs`.
#[test]
fn table1_fexpa_issue_counts() {
    use ookami::core::obs::{self, Counter};
    use ookami::vecmath::{exp_trace, ExpVariant};
    if !obs::enabled() {
        return;
    }
    let xs: Vec<f64> = (0..1001).map(|i| (i as f64 - 500.0) * 0.01).collect();
    for vl in [3usize, 8] {
        let t = exp_trace(vl, ExpVariant::FexpaEstrin);
        let before = obs::thread_snapshot();
        let _ = t.map(&xs);
        let d = obs::thread_snapshot().since(&before);
        assert_eq!(
            d.get(Counter::FexpaIssues),
            xs.len().div_ceil(vl) as u64,
            "vl={vl}"
        );

        let t = exp_trace(vl, ExpVariant::Poly13);
        let before = obs::thread_snapshot();
        let _ = t.map(&xs);
        let d = obs::thread_snapshot().since(&before);
        assert_eq!(d.get(Counter::FexpaIssues), 0, "poly13 must not FEXPA");
        // The 13-term polynomial leans on the FMA pipes instead.
        assert!(d.get(Counter::PortFla) > 0);
    }
}

/// Table III values, regenerated from the machine models.
#[test]
fn table3_regenerates() {
    let t = ookami::uarch::peak::render_table3();
    for needle in ["57.6", "44.8", "36.0", "2765", "2150", "3046", "4608"] {
        assert!(t.contains(needle), "missing {needle} in:\n{t}");
    }
}
