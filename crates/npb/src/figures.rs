//! Figures 3–6: NPB class C across toolchains, machines and thread counts.

use crate::profiles::{profile, Benchmark};
use crate::Class;
use ookami_core::measure::Measurement;
use ookami_toolchain::app_model::{predict_default, predict_seconds};
use ookami_toolchain::{Compiler, OmpModel};
use ookami_uarch::machines;

/// Fig. 3 — single-core runtime (seconds) per compiler, plus Intel/SKX.
pub fn figure3() -> Vec<Measurement> {
    let a = machines::a64fx();
    let s = machines::skylake_6140();
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        let p = profile(b, Class::C);
        for c in Compiler::A64FX {
            out.push(Measurement::new(
                "fig3",
                b.label(),
                a.name,
                c.label(),
                1,
                predict_default(&p, c, a, 1),
                "seconds",
            ));
        }
        out.push(Measurement::new(
            "fig3",
            b.label(),
            s.name,
            "intel",
            1,
            predict_default(&p, Compiler::Intel, s, 1),
            "seconds",
        ));
    }
    out
}

/// Fig. 4 — all-cores runtime: 48 threads on A64FX (4 compilers + the
/// fujitsu-first-touch configuration), 36 threads Intel/SKX.
pub fn figure4() -> Vec<Measurement> {
    let a = machines::a64fx();
    let s = machines::skylake_6140();
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        let p = profile(b, Class::C);
        for c in Compiler::A64FX {
            out.push(Measurement::new(
                "fig4",
                b.label(),
                a.name,
                c.label(),
                48,
                predict_default(&p, c, a, 48),
                "seconds",
            ));
        }
        out.push(Measurement::new(
            "fig4",
            b.label(),
            a.name,
            "fujitsu-first-touch",
            48,
            predict_seconds(
                &p,
                Compiler::Fujitsu,
                a,
                48,
                &OmpModel::fujitsu_first_touch(),
            ),
            "seconds",
        ));
        out.push(Measurement::new(
            "fig4",
            b.label(),
            s.name,
            "intel",
            36,
            predict_default(&p, Compiler::Intel, s, 36),
            "seconds",
        ));
    }
    out
}

/// Thread counts plotted in the scaling figures.
pub const SCALING_THREADS_A64FX: [usize; 7] = [1, 2, 4, 8, 16, 32, 48];
pub const SCALING_THREADS_SKX: [usize; 7] = [1, 2, 4, 8, 16, 32, 36];

/// Fig. 5 — parallel efficiency on A64FX with GCC.
pub fn figure5() -> Vec<Measurement> {
    scaling_figure(
        "fig5",
        machines::a64fx(),
        Compiler::Gnu,
        &SCALING_THREADS_A64FX,
    )
}

/// Fig. 6 — parallel efficiency on Skylake with the Intel compiler.
pub fn figure6() -> Vec<Measurement> {
    scaling_figure(
        "fig6",
        machines::skylake_6140(),
        Compiler::Intel,
        &SCALING_THREADS_SKX,
    )
}

fn scaling_figure(
    exp: &str,
    m: &'static ookami_uarch::Machine,
    c: Compiler,
    threads: &[usize],
) -> Vec<Measurement> {
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        let p = profile(b, Class::C);
        let omp = OmpModel::for_compiler(c);
        let t1 = predict_seconds(&p, c, m, 1, &omp);
        for &t in threads {
            let tn = predict_seconds(&p, c, m, t, &omp);
            out.push(Measurement::new(
                exp,
                b.label(),
                m.name,
                c.label(),
                t,
                t1 / (t as f64 * tn),
                "efficiency",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(rows: &[Measurement], work: &str, tc: &str) -> f64 {
        rows.iter()
            .find(|r| r.workload == work && r.toolchain == tc)
            .map(|r| r.value)
            .expect("row")
    }

    fn eff(rows: &[Measurement], work: &str, t: usize) -> f64 {
        rows.iter()
            .find(|r| r.workload == work && r.threads == t)
            .map(|r| r.value)
            .expect("row")
    }

    #[test]
    fn fig3_gcc_best_or_comparable_except_ep() {
        let rows = figure3();
        for b in Benchmark::ALL {
            let gcc = value(&rows, b.label(), "gcc");
            let best = Compiler::A64FX
                .iter()
                .map(|c| value(&rows, b.label(), c.label()))
                .fold(f64::INFINITY, f64::min);
            if matches!(b, Benchmark::Ep) {
                // "there is a 3 fold performance difference" for EP.
                assert!(gcc / best > 2.0, "EP gcc {gcc} vs best {best}");
            } else {
                assert!(gcc / best < 1.35, "{}: gcc {gcc} vs best {best}", b.label());
            }
        }
    }

    #[test]
    fn fig3_intel_outperforms_with_ep_widest_cg_narrowest() {
        let rows = figure3();
        let mut ratios = Vec::new();
        for b in Benchmark::ALL {
            let intel = value(&rows, b.label(), "intel");
            let best = Compiler::A64FX
                .iter()
                .map(|c| value(&rows, b.label(), c.label()))
                .fold(f64::INFINITY, f64::min);
            let ratio = best / intel;
            assert!(ratio > 1.2, "{}: intel should win ({ratio})", b.label());
            assert!(ratio < 8.0, "{}: gap too wide ({ratio})", b.label());
            ratios.push((b, ratio));
        }
        let ep = ratios
            .iter()
            .find(|(b, _)| matches!(b, Benchmark::Ep))
            .unwrap()
            .1;
        let cg = ratios
            .iter()
            .find(|(b, _)| matches!(b, Benchmark::Cg))
            .unwrap()
            .1;
        assert!(ep > cg, "EP gap {ep} should exceed CG gap {cg}");
    }

    #[test]
    fn fig4_a64fx_wins_memory_bound_apps_at_full_node() {
        let rows = figure4();
        for b in [Benchmark::Sp, Benchmark::Ua, Benchmark::Cg] {
            let a64 = value(&rows, b.label(), "gcc");
            let skx = value(&rows, b.label(), "intel");
            assert!(
                a64 < skx,
                "{}: A64FX {a64} should beat SKX {skx} at full node",
                b.label()
            );
        }
        // compute-bound BT: Skylake stays ahead
        let bt_a = value(&rows, "BT", "gcc");
        let bt_s = value(&rows, "BT", "intel");
        assert!(bt_s < bt_a, "BT: skx {bt_s} vs a64fx {bt_a}");
    }

    #[test]
    fn fig4_fujitsu_first_touch_fixes_sp() {
        let rows = figure4();
        let default = value(&rows, "SP", "fujitsu");
        let ft = value(&rows, "SP", "fujitsu-first-touch");
        assert!(
            default / ft > 1.5,
            "SP: default {default} vs first-touch {ft}"
        );
        // and helps (at least does not hurt) everywhere
        for b in Benchmark::ALL {
            let d = value(&rows, b.label(), "fujitsu");
            let f = value(&rows, b.label(), "fujitsu-first-touch");
            assert!(f <= d * 1.001, "{}: ft {f} vs default {d}", b.label());
        }
    }

    #[test]
    fn fig5_a64fx_scaling_shape() {
        let rows = figure5();
        // EP nearly linear at 48, SP the worst but ≈ 0.6.
        let ep = eff(&rows, "EP", 48);
        assert!(ep > 0.9, "EP eff {ep}");
        let sp = eff(&rows, "SP", 48);
        assert!(sp > 0.35 && sp < 0.8, "SP eff {sp}");
        for b in Benchmark::ALL {
            let e = eff(&rows, b.label(), 48);
            assert!(e >= sp - 0.05, "{} eff {e} below SP {sp}", b.label());
            assert!(e <= 1.05);
        }
    }

    #[test]
    fn fig6_skylake_scales_worse() {
        let f5 = figure5();
        let f6 = figure6();
        // Paper: SKX efficiency between 0.7 (EP) and 0.25 (SP).
        let ep = eff(&f6, "EP", 36);
        let sp = eff(&f6, "SP", 36);
        assert!(sp < 0.45, "SKX SP eff {sp}");
        assert!(ep > sp, "EP {ep} vs SP {sp}");
        // A64FX scales better than SKX for every app at full node.
        for b in Benchmark::ALL {
            let ea = eff(&f5, b.label(), 48);
            let es = eff(&f6, b.label(), 36);
            assert!(ea > es, "{}: A64FX {ea} vs SKX {es}", b.label());
        }
    }

    #[test]
    fn efficiency_declines_with_threads() {
        for rows in [figure5(), figure6()] {
            for b in Benchmark::ALL {
                let mut prev = f64::INFINITY;
                for &t in &SCALING_THREADS_A64FX[..6] {
                    if let Some(r) = rows
                        .iter()
                        .find(|r| r.workload == b.label() && r.threads == t)
                    {
                        assert!(r.value <= prev + 0.02, "{}: t={t}", b.label());
                        prev = r.value;
                    }
                }
            }
        }
    }

    #[test]
    fn renders() {
        use ookami_core::measure::render_pivot;
        let s = render_pivot(&figure3(), "Fig 3", "app", 1);
        assert!(s.contains("BT") && s.contains("gcc"));
        let s5 = render_pivot(&figure5(), "Fig 5", "app", 2);
        assert!(s5.contains("48t"));
    }
}
