//! Section IV regenerator: the exponential-function deep dive.
//!
//! Reproduces (a) the toolchain ladder — "The serial GNU implementation …
//! takes nearly 32 cycles per evaluation. The vectorized ARM, Cray, and
//! Fujitsu compilers take 6, 4.2, and 2.1 cycles … the Intel compiler on
//! Skylake takes 1.6" — and (b) the kernel-structure study: 2.2
//! cycles/element with the vector-length-agnostic loop, 2.0 with a fixed
//! width, 1.9 unrolled once; Estrin slightly faster than Horner.

use ookami_core::measure::{Measurement, Table};
use ookami_core::MathFunc;
use ookami_sve::record_kernel;
use ookami_toolchain::mathlib::math_cycles_per_element;
use ookami_toolchain::Compiler;
use ookami_uarch::machines;
use ookami_vecmath::exp::{exp_fexpa, PolyForm};

/// Loop structure for the hand-written FEXPA exp kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopStructure {
    /// `whilelt`-governed vector-length-agnostic loop.
    Vla,
    /// Fixed-width loop (counted; no per-iteration predicate upkeep).
    Fixed,
    /// Fixed-width, unrolled once (two vectors per iteration).
    Unrolled2,
}

impl LoopStructure {
    pub const ALL: [LoopStructure; 3] = [
        LoopStructure::Vla,
        LoopStructure::Fixed,
        LoopStructure::Unrolled2,
    ];

    pub fn label(self) -> &'static str {
        match self {
            LoopStructure::Vla => "VLA (whilelt)",
            LoopStructure::Fixed => "fixed-width",
            LoopStructure::Unrolled2 => "unrolled x2",
        }
    }
}

/// Cycles/element of our FEXPA exp kernel on A64FX under the given loop
/// structure and polynomial form.
pub fn our_exp_cycles(structure: LoopStructure, form: PolyForm, corrected: bool) -> f64 {
    let m = machines::a64fx();
    let vl = 8;
    let bodies = if matches!(structure, LoopStructure::Unrolled2) {
        2
    } else {
        1
    };
    let rec = record_kernel(vl, (vl * bodies) as f64, |ctx| {
        let pg = ctx.ptrue();
        let data = vec![0.5f64; vl];
        let mut out = vec![0.0f64; vl];
        for _ in 0..bodies {
            let x = ctx.ld1d(&pg, &data, 0);
            let y = exp_fexpa(ctx, &pg, &x, form, corrected);
            ctx.st1d(&pg, &y, &mut out, 0);
        }
        if matches!(structure, LoopStructure::Vla) {
            let p = ctx.whilelt(0, 2 * vl);
            ctx.ptest(&p);
        }
        ctx.loop_overhead(2);
        vec![]
    });
    ookami_uarch::analyze_cached(&rec.kernel, m).cycles_per_element()
}

/// The toolchain ladder (cycles per evaluation of exp).
pub fn toolchain_ladder() -> Vec<Measurement> {
    let a = machines::a64fx();
    let s = machines::skylake_6140();
    let mut out = Vec::new();
    for c in Compiler::A64FX {
        out.push(Measurement::new(
            "sec4",
            "exp",
            a.name,
            c.label(),
            1,
            math_cycles_per_element(MathFunc::Exp, c, a),
            "cycles_per_elem",
        ));
    }
    out.push(Measurement::new(
        "sec4",
        "exp",
        s.name,
        "intel",
        1,
        math_cycles_per_element(MathFunc::Exp, Compiler::Intel, s),
        "cycles_per_elem",
    ));
    out
}

/// Render the Section IV summary: [`toolchain_ladder`]'s rows, then the
/// loop-structure study of our FEXPA kernel (text only, evaluated here).
pub fn render_sec4(ladder: &[Measurement]) -> String {
    let mut t = Table::new(
        "Section IV — exp cycles per element (paper: GNU 32, ARM 6, Cray 4.2, Fujitsu 2.1, Intel/SKX 1.6)",
        &["implementation", "cycles/elem"],
    );
    for m in ladder {
        t.row(&[
            format!("{} ({})", m.toolchain, m.machine),
            format!("{:.2}", m.value),
        ]);
    }
    let mut s = t.render();
    s.push('\n');
    let mut t2 = Table::new(
        "Section IV — our FEXPA kernel (paper: VLA 2.2, fixed 2.0, unrolled 1.9; Estrin ≤ Horner)",
        &["structure", "horner", "estrin", "estrin+corrected"],
    );
    for st in LoopStructure::ALL {
        t2.row(&[
            st.label().to_string(),
            format!("{:.2}", our_exp_cycles(st, PolyForm::Horner, false)),
            format!("{:.2}", our_exp_cycles(st, PolyForm::Estrin, false)),
            format!("{:.2}", our_exp_cycles(st, PolyForm::Estrin, true)),
        ]);
    }
    s.push_str(&t2.render());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_matches_paper_magnitudes() {
        let rows = toolchain_ladder();
        let get = |label: &str| rows.iter().find(|r| r.toolchain == label).unwrap().value;
        assert!((get("gcc") - 32.0).abs() < 3.0, "gcc {}", get("gcc"));
        assert!(get("arm") > 4.0 && get("arm") < 9.0, "arm {}", get("arm"));
        assert!(
            get("cray") > 2.5 && get("cray") < 6.0,
            "cray {}",
            get("cray")
        );
        assert!(
            get("fujitsu") > 1.4 && get("fujitsu") < 3.0,
            "fujitsu {}",
            get("fujitsu")
        );
        assert!(
            get("intel") > 0.9 && get("intel") < 2.3,
            "intel {}",
            get("intel")
        );
    }

    #[test]
    fn vla_costs_more_than_fixed_width() {
        // Paper: 2.2 (VLA) vs 2.0 (fixed) cycles/element.
        let vla = our_exp_cycles(LoopStructure::Vla, PolyForm::Estrin, false);
        let fixed = our_exp_cycles(LoopStructure::Fixed, PolyForm::Estrin, false);
        assert!(vla > fixed, "vla {vla} vs fixed {fixed}");
        assert!(vla > 1.6 && vla < 2.9, "vla {vla}");
        assert!(fixed > 1.4 && fixed < 2.6, "fixed {fixed}");
    }

    #[test]
    fn unrolling_does_not_hurt() {
        // Paper: unrolling once decreased 2.0 to 1.9 cycles/element.
        let fixed = our_exp_cycles(LoopStructure::Fixed, PolyForm::Estrin, false);
        let unrolled = our_exp_cycles(LoopStructure::Unrolled2, PolyForm::Estrin, false);
        assert!(
            unrolled <= fixed + 0.05,
            "unrolled {unrolled} vs fixed {fixed}"
        );
    }

    #[test]
    fn estrin_not_slower_than_horner() {
        // Paper: "the Estrin form … is slightly faster than the Horner form".
        for st in LoopStructure::ALL {
            let h = our_exp_cycles(st, PolyForm::Horner, false);
            let e = our_exp_cycles(st, PolyForm::Estrin, false);
            assert!(e <= h + 1e-9, "{st:?}: estrin {e} vs horner {h}");
        }
    }

    #[test]
    fn correction_costs_fraction_of_a_cycle() {
        // Paper estimate: +0.25 cycles/element for the corrected last FMA.
        let plain = our_exp_cycles(LoopStructure::Fixed, PolyForm::Estrin, false);
        let corr = our_exp_cycles(LoopStructure::Fixed, PolyForm::Estrin, true);
        assert!(
            (corr - plain).abs() < 0.5,
            "plain {plain}, corrected {corr}"
        );
    }

    #[test]
    fn render_mentions_paper_values() {
        let s = render_sec4(&toolchain_ladder());
        assert!(s.contains("FEXPA"));
        assert!(s.contains("VLA"));
    }
}
