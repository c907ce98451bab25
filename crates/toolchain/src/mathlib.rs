//! Cycles/element of each math function per (toolchain, machine).
//!
//! For toolchains with a vector math library, the corresponding
//! `ookami-vecmath` kernel is *recorded* on the SVE emulator — inside a
//! realistic `load → evaluate → store` loop with the compiler's bookkeeping
//! style — and the stream is analyzed against the machine's cost table.
//! For the GNU scalar fallback ("no vector math library within glibc for
//! ARM+SVE"), the cost is the machine's serial-libm call cost times a
//! per-function weight.

use crate::compiler::Compiler;
use ookami_core::MathFunc;
use ookami_sve::{record_kernel, SveCtx};
use ookami_uarch::Machine;
use ookami_vecmath::exp::{exp_fexpa, exp_poly13, ExpVariant, Poly13Style, PolyForm};
use ookami_vecmath::log::{log, DivStyle};
use ookami_vecmath::pow::pow;
use ookami_vecmath::recip::{recip, RecipStyle};
use ookami_vecmath::sin::sin;
use ookami_vecmath::sqrt::sqrt;

/// Weight of one scalar libm call relative to the machine's base
/// `ScalarLibmCall` cost (which is calibrated to `exp`: ~32 cycles on
/// A64FX per Section IV).
fn scalar_weight(f: MathFunc) -> f64 {
    match f {
        MathFunc::Exp => 1.0,
        MathFunc::Sin => 1.25,
        MathFunc::Pow => 3.4,
        MathFunc::Log => 1.15,
        MathFunc::Sqrt => 0.9,
        MathFunc::Recip => 1.3,
    }
}

/// Cycles per element of a `y[i] = f(x[i])` loop.
pub fn math_cycles_per_element(f: MathFunc, c: Compiler, m: &Machine) -> f64 {
    if !c.vectorizes_math(f) {
        let call = m
            .table
            .cost(ookami_uarch::OpClass::ScalarLibmCall, m.vector_width);
        return call.latency * scalar_weight(f);
    }
    let vl = m.vector_width.lanes_f64();
    let two_input = matches!(f, MathFunc::Pow);
    let rec = record_kernel(vl, vl as f64, |ctx| {
        let pg = ctx.ptrue();
        // Benign in-range inputs; values don't affect the recorded stream.
        let data = vec![1.234567f64; vl];
        let mut out = vec![0.0f64; vl];
        let x = ctx.ld1d(&pg, &data, 0);
        let y = if two_input {
            Some(ctx.ld1d(&pg, &data, 0))
        } else {
            None
        };
        let r = eval(ctx, &pg, &x, y.as_ref(), f, c);
        ctx.st1d(&pg, &r, &mut out, 0);
        // VLA loop structure (all A64FX toolchains emit whilelt loops; the
        // x86 side gets an equivalent mask-free loop, which the cheap
        // PredOp entry on SKX reflects).
        let p_next = ctx.whilelt(0, 2 * vl);
        ctx.ptest(&p_next);
        ctx.loop_overhead(2 + c.loop_overhead_uops());
        vec![]
    });
    ookami_uarch::analyze_cached(&rec.kernel, m).cycles_per_element()
}

fn eval(
    ctx: &mut SveCtx,
    pg: &ookami_sve::Pred,
    x: &ookami_sve::VVal,
    y: Option<&ookami_sve::VVal>,
    f: MathFunc,
    c: Compiler,
) -> ookami_sve::VVal {
    match f {
        MathFunc::Exp => match c.exp_variant().expect("vector exp") {
            ExpVariant::FexpaHorner => exp_fexpa(ctx, pg, x, PolyForm::Horner, false),
            ExpVariant::FexpaEstrin => exp_fexpa(ctx, pg, x, PolyForm::Estrin, false),
            ExpVariant::FexpaEstrinCorrected => exp_fexpa(ctx, pg, x, PolyForm::Estrin, true),
            ExpVariant::Poly13 => exp_poly13(ctx, pg, x, Poly13Style::Plain),
            ExpVariant::Poly13Sleef => exp_poly13(ctx, pg, x, Poly13Style::Sleef),
        },
        MathFunc::Sin => {
            let r = if c.ftmad_sin() {
                ookami_vecmath::sin::sin_ftmad(ctx, pg, x)
            } else {
                sin(ctx, pg, x)
            };
            if c.hardened_sin() {
                // Portable-library special-case masks: two compares and
                // selects for huge/NaN inputs.
                let big = ctx.dup_f64(1e15);
                let nan = ctx.dup_f64(f64::NAN);
                let p1 = ctx.fcmgt(pg, x, &big);
                let r = ctx.sel(&p1, &nan, &r);
                let small = ctx.dup_f64(-1e15);
                let p2 = ctx.fcmgt(pg, &small, x);
                ctx.sel(&p2, &nan, &r)
            } else {
                r
            }
        }
        MathFunc::Pow => {
            let yy = y.expect("pow needs two inputs");
            pow(ctx, pg, x, yy, c.pow_style().expect("vector pow"))
        }
        MathFunc::Log => {
            let div = match c.recip_style() {
                RecipStyle::Newton => DivStyle::Newton,
                RecipStyle::Fdiv => DivStyle::Fdiv,
            };
            log(ctx, pg, x, div)
        }
        MathFunc::Sqrt => sqrt(ctx, pg, x, c.sqrt_style()),
        MathFunc::Recip => recip(ctx, pg, x, c.recip_style()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_uarch::machines;

    fn a64fx() -> &'static Machine {
        machines::a64fx()
    }

    fn skx() -> &'static Machine {
        machines::skylake_6140()
    }

    #[test]
    fn section4_exp_cycle_ladder() {
        // Paper §IV: GNU ≈ 32, ARM ≈ 6, Cray ≈ 4.2, Fujitsu ≈ 2.1 c/e on
        // A64FX; Intel ≈ 1.6 on Skylake. Require the ladder and the rough
        // magnitudes (±40%).
        let gnu = math_cycles_per_element(MathFunc::Exp, Compiler::Gnu, a64fx());
        let arm = math_cycles_per_element(MathFunc::Exp, Compiler::Arm, a64fx());
        let cray = math_cycles_per_element(MathFunc::Exp, Compiler::Cray, a64fx());
        let fuj = math_cycles_per_element(MathFunc::Exp, Compiler::Fujitsu, a64fx());
        let intel = math_cycles_per_element(MathFunc::Exp, Compiler::Intel, skx());
        assert!(
            fuj < cray && cray < arm && arm < gnu,
            "{fuj} {cray} {arm} {gnu}"
        );
        assert!((gnu - 32.0).abs() < 3.0, "gnu {gnu}");
        assert!(fuj > 1.4 && fuj < 3.0, "fujitsu {fuj}");
        assert!(cray > 2.5 && cray < 6.0, "cray {cray}");
        assert!(arm > 4.0 && arm < 9.0, "arm {arm}");
        assert!(intel > 0.9 && intel < 2.3, "intel {intel}");
    }

    #[test]
    fn sqrt_instruction_choice_is_20x() {
        // GNU/ARM pick the blocking FSQRT; Fujitsu/Cray do Newton. The
        // paper's "20×" is relative to Intel/Skylake (Fig. 2's y-axis).
        let gnu = math_cycles_per_element(MathFunc::Sqrt, Compiler::Gnu, a64fx());
        let fuj = math_cycles_per_element(MathFunc::Sqrt, Compiler::Fujitsu, a64fx());
        let intel = math_cycles_per_element(MathFunc::Sqrt, Compiler::Intel, skx());
        assert!(
            gnu / fuj > 3.0,
            "gnu/fujitsu {} (gnu {gnu}, fujitsu {fuj})",
            gnu / fuj
        );
        assert!(
            gnu > 15.0,
            "gnu sqrt {gnu} c/e should reflect the 134-cycle block"
        );
        // Relative-to-Skylake runtime, clock-adjusted (the figure's metric).
        let rel = (gnu / 1.8) / (intel / 3.6);
        assert!(rel > 10.0 && rel < 30.0, "gnu-vs-skx sqrt ratio {rel}");
    }

    #[test]
    fn gnu_recip_pays_blocking_fdiv() {
        let gnu = math_cycles_per_element(MathFunc::Recip, Compiler::Gnu, a64fx());
        let fuj = math_cycles_per_element(MathFunc::Recip, Compiler::Fujitsu, a64fx());
        assert!(gnu / fuj > 5.0, "gnu {gnu} fujitsu {fuj}");
    }

    #[test]
    fn arm_pow_an_order_of_magnitude_slower() {
        // Paper: the Sleef-based library is "10x slower on pow" (Fig. 2's
        // y-axis: runtime relative to Intel on Skylake, clock-adjusted).
        let arm = math_cycles_per_element(MathFunc::Pow, Compiler::Arm, a64fx());
        let fuj = math_cycles_per_element(MathFunc::Pow, Compiler::Fujitsu, a64fx());
        let intel = math_cycles_per_element(MathFunc::Pow, Compiler::Intel, skx());
        assert!(arm / fuj > 2.0, "arm {arm} fujitsu {fuj}");
        let rel = (arm / 1.8) / (intel / 3.6);
        assert!(rel > 8.0 && rel < 30.0, "arm-vs-skx pow ratio {rel}");
    }

    #[test]
    fn scalar_fallbacks_scale_with_weight() {
        let exp = math_cycles_per_element(MathFunc::Exp, Compiler::Gnu, a64fx());
        let pow = math_cycles_per_element(MathFunc::Pow, Compiler::Gnu, a64fx());
        assert!((pow / exp - 3.4).abs() < 1e-9);
    }

    #[test]
    fn all_pairs_are_finite_and_positive() {
        for f in MathFunc::ALL {
            for c in Compiler::A64FX {
                let v = math_cycles_per_element(f, c, a64fx());
                assert!(v.is_finite() && v > 0.0, "{f:?} {c:?}: {v}");
            }
            let v = math_cycles_per_element(f, Compiler::Intel, skx());
            assert!(v.is_finite() && v > 0.0, "{f:?} intel: {v}");
        }
    }
}
