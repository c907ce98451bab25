//! Fig. 2 regenerator: runtime of the vectorized math-function loops on
//! A64FX relative to the Intel compiler on Skylake.

use ookami_core::measure::{render_pivot, Measurement};
use ookami_core::MathFunc;
use ookami_toolchain::mathlib::math_cycles_per_element;
use ookami_toolchain::Compiler;
use ookami_uarch::machines;

/// The five math loops of Fig. 2, in the paper's order.
pub const FIG2_FUNCS: [MathFunc; 5] = [
    MathFunc::Recip,
    MathFunc::Sqrt,
    MathFunc::Exp,
    MathFunc::Sin,
    MathFunc::Pow,
];

/// One Fig. 2 data point: clock-adjusted runtime relative to Intel/Skylake.
pub fn relative_runtime(f: MathFunc, c: Compiler) -> f64 {
    let a = machines::a64fx();
    let s = machines::skylake_6140();
    let t_a = math_cycles_per_element(f, c, a) / (a.turbo_1c_ghz * 1e9);
    let t_s = math_cycles_per_element(f, Compiler::Intel, s) / (s.turbo_1c_ghz * 1e9);
    t_a / t_s
}

/// All Fig. 2 rows.
pub fn figure2() -> Vec<Measurement> {
    let mut out = Vec::new();
    for f in FIG2_FUNCS {
        for c in Compiler::A64FX {
            out.push(Measurement::new(
                "fig2",
                f.label(),
                "Ookami A64FX",
                c.label(),
                1,
                relative_runtime(f, c),
                "runtime_rel_skx",
            ));
        }
    }
    out
}

/// Fixed-width rendering of [`figure2`]'s rows.
pub fn render_figure2(rows: &[Measurement]) -> String {
    render_pivot(
        rows,
        "Fig. 2 — runtime on A64FX of vectorized math functions, relative to Intel/Skylake",
        "function",
        2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fujitsu_is_best_and_near_clock_ratio_for_exp_sin() {
        // exp tracks the paper's ~2× closely; sin lands at 3–5× here
        // because the model's kernel does not use the FTMAD coefficient
        // tables the Fujitsu library leans on (documented in EXPERIMENTS.md).
        let exp = relative_runtime(MathFunc::Exp, Compiler::Fujitsu);
        assert!(exp > 1.0 && exp < 3.2, "exp fujitsu {exp}");
        let sin = relative_runtime(MathFunc::Sin, Compiler::Fujitsu);
        assert!(sin > 1.0 && sin < 5.0, "sin fujitsu {sin}");
        for f in [MathFunc::Exp, MathFunc::Sin] {
            let fuj = relative_runtime(f, Compiler::Fujitsu);
            for c in [Compiler::Cray, Compiler::Arm, Compiler::Gnu] {
                assert!(
                    relative_runtime(f, c) >= fuj - 1e-9,
                    "{f:?}: {c:?} beat fujitsu"
                );
            }
        }
    }

    #[test]
    fn cray_another_factor_behind_fujitsu_on_exp() {
        // Paper: "The Cray math library is fairly consistently another
        // factor of 1.5-2 slower".
        let fuj = relative_runtime(MathFunc::Exp, Compiler::Fujitsu);
        let cray = relative_runtime(MathFunc::Exp, Compiler::Cray);
        let f = cray / fuj;
        assert!(f > 1.3 && f < 2.6, "cray/fujitsu on exp = {f}");
    }

    #[test]
    fn gnu_scalar_fallback_is_tens_of_x() {
        // Conclusion: "some kernels might run 30-times slower" with GNU.
        for f in [MathFunc::Exp, MathFunc::Sin, MathFunc::Pow] {
            let gnu = relative_runtime(f, Compiler::Gnu);
            assert!(gnu > 10.0, "{f:?} gnu rel {gnu}");
        }
    }

    #[test]
    fn sqrt_instruction_pickers_pay_20x() {
        for c in [Compiler::Gnu, Compiler::Arm] {
            let r = relative_runtime(MathFunc::Sqrt, c);
            assert!(r > 10.0 && r < 30.0, "{c:?} sqrt rel {r}");
        }
        // Newton pickers stay near single digits.
        let fuj = relative_runtime(MathFunc::Sqrt, Compiler::Fujitsu);
        assert!(fuj < 6.0, "fujitsu sqrt rel {fuj}");
    }

    #[test]
    fn arm_pow_an_order_worse() {
        let arm = relative_runtime(MathFunc::Pow, Compiler::Arm);
        let fuj = relative_runtime(MathFunc::Pow, Compiler::Fujitsu);
        assert!(arm / fuj > 2.0, "arm {arm} vs fujitsu {fuj}");
        assert!(arm > 8.0, "arm pow rel {arm}");
    }

    #[test]
    fn figure2_is_complete() {
        let rows = figure2();
        assert_eq!(rows.len(), 20); // 5 funcs × 4 compilers
        assert!(rows.iter().all(|r| r.value.is_finite() && r.value > 0.5));
        assert!(render_figure2(&rows).contains("recip"));
    }
}
