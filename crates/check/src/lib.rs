//! # ookami-check — static analysis for the emulator and the runtime
//!
//! Three engines (DESIGN.md §8):
//!
//! * [`verify`] — a static verifier and lint engine over SVE trace
//!   programs: abstract interpretation of [`ookami_uarch::Instr`] streams
//!   (def-before-use/SSA, operand domains, width uniformity, a predicate
//!   lattice proving memory writes stay inside the loop bound, constant
//!   index bounds) plus lint-class diagnostics, all under stable `OCxxxx`
//!   codes with rustc-style rendering ([`diag`]);
//! * [`tv`] — a translation validator over the trace compiler's pass
//!   pipeline: each per-pass snapshot pair from
//!   `ookami_sve::Trace::pass_trail` is proved equivalent under a
//!   product abstract domain (constant lanes, intervals, NaN class, the
//!   predicate lattice) and the pass's slot-substitution witness, index
//!   bounds are re-proved post-pass, and the emission plan's static
//!   counter recipe is re-derived bit-for-bit — failures are stable
//!   `TVxxxx` codes through the same [`diag`] machinery;
//! * [`race`] — a happens-before race detector replaying the pool
//!   runtime's timeline events with vector clocks, reporting overlapping
//!   chunk writes not ordered by the fork/join protocol.
//!
//! The `ookamicheck` probe (crates/bench) drives all three in one run:
//! every shipped workload trace must verify clean, every family trace
//! must prove pass-by-pass, the [`corpus`] entries must each report
//! their expected codes, and shipped kernels must replay race-free.

pub mod corpus;
pub mod diag;
pub mod program;
pub mod race;
pub mod tv;
pub mod verify;

pub use diag::{render, render_all, Code, Diag, Severity};
pub use program::{Convention, Program};
pub use race::{detect_races, injected_race_events, Race};
pub use tv::{validate_trace, validate_trail, MutantVerdict, TvReport};
pub use verify::verify;

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_sve::Trace;

    fn poly_trace(vl: usize) -> Trace {
        // y = 2x + 3x² — the loops crate's "simple" kernel shape.
        Trace::record1(vl, |ctx, pg, x| {
            let two = ctx.dup_f64(2.0);
            let three = ctx.dup_f64(3.0);
            let t3x = ctx.fmul(pg, &three, x);
            let t3xx = ctx.fmul(pg, &t3x, x);
            let t2x = ctx.fmul(pg, &two, x);
            ctx.fadd(pg, &t2x, &t3xx)
        })
    }

    #[test]
    fn clean_trace_verifies_clean() {
        for vl in [1, 2, 4, 8] {
            let p = Program::from_trace("poly", &poly_trace(vl));
            let diags = verify(&p);
            assert!(diags.is_empty(), "vl={vl}: {diags:?}");
        }
    }

    #[test]
    fn predicated_select_trace_verifies_clean() {
        let t = Trace::record1(8, |ctx, pg, x| {
            let zero = ctx.dup_f64(0.0);
            let m = ctx.fcmgt(pg, x, &zero);
            ctx.sel(&m, x, &zero)
        });
        let p = Program::from_trace("select", &t);
        let diags = verify(&p);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mutated_traces_are_rejected_or_semantic() {
        let t = poly_trace(8);
        for seed in 0..16u64 {
            let m = t.mutated(seed);
            let diags = verify(&Program::from_trace("mutant", &m));
            let errors = diags.iter().filter(|d| d.is_error()).count();
            if seed % 4 == 3 {
                // Semantic mutants keep the wiring intact — the verifier
                // accepts them; the differential test proves the output
                // moved instead.
                assert_eq!(errors, 0, "seed={seed}: {diags:?}");
            } else {
                assert!(errors > 0, "seed={seed} mutant not rejected");
            }
        }
    }

    #[test]
    fn rendering_names_registers_by_file() {
        let e = &corpus::entries()[0]; // undefined_use
        let diags = verify(&e.program);
        let text = render_all(&e.program, &diags);
        assert!(text.contains("error[OC0001]"), "{text}");
        assert!(text.contains("v7"), "{text}");
        assert!(text.contains("--> undefined_use:0"), "{text}");
        assert!(text.contains('^'), "{text}");
    }

    #[test]
    fn lowered_streams_skip_ssa_but_keep_effect_and_width_checks() {
        use ookami_uarch::{Instr, OpClass, Width};
        // Non-SSA register reuse is fine under the Lowered convention…
        let ok = Program::from_stream(
            "lowered_ok",
            vec![
                Instr::def(OpClass::FMul, Width::V512, 1, &[0, 1]),
                Instr::def(OpClass::FMul, Width::V512, 1, &[1, 1]),
            ],
        );
        assert!(verify(&ok).is_empty());
        // …but a store defining a register is malformed in any convention.
        let bad = Program::from_stream(
            "lowered_bad",
            vec![Instr::def(OpClass::Store, Width::V512, 2, &[0, 1])],
        );
        let diags = verify(&bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::MalformedArity);
    }

    #[test]
    fn lowered_streams_get_constant_index_bounds() {
        use ookami_uarch::{Instr, OpClass, Width};
        // Gather with a constant index vector spanning [0, 20] against a
        // 16-element table: OC0004 even in a non-SSA stream.
        let mut p = Program::from_stream(
            "lowered_oob",
            vec![
                Instr::def(OpClass::Gather, Width::V512, 3, &[0, 2]),
                Instr::def(OpClass::Gather, Width::V512, 4, &[0, 2]),
            ],
        );
        p.const_lanes.push((2, vec![0, 5, 20]));
        p.table_len = vec![Some(16), Some(32)];
        let diags = verify(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::OutOfBoundsIndex);
        assert_eq!(diags[0].index, 0);
        // A redefinition kills the fact: the same shape, but the index
        // register is clobbered between the constant and the gather.
        let mut q = Program::from_stream(
            "lowered_clobber",
            vec![
                Instr::def(OpClass::FMul, Width::V512, 2, &[0, 1]),
                Instr::def(OpClass::Gather, Width::V512, 3, &[0, 2]),
            ],
        );
        q.const_lanes.push((2, vec![0, 20]));
        q.table_len = vec![None, Some(16)];
        assert!(verify(&q).is_empty());
    }
}
