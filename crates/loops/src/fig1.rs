//! Fig. 1 regenerator: runtime of the simple vector loops on A64FX,
//! relative to the Intel compiler on Skylake.

use crate::suite::LoopSuite;
use ookami_core::measure::{render_pivot, Measurement};
use ookami_mem::gather::{analyze_array, MeanPattern};
use ookami_toolchain::lower::{lower_loop, LoopKind};
use ookami_toolchain::Compiler;
use ookami_uarch::{machines, Machine};

/// Seconds per element of `kind` compiled by `c` on `m`.
pub fn seconds_per_element(
    kind: LoopKind,
    c: Compiler,
    m: &Machine,
    pattern: Option<&MeanPattern>,
) -> f64 {
    let k = lower_loop(kind, c, m, pattern);
    ookami_uarch::analyze_cached(&k, m).cycles_per_element() / (m.turbo_1c_ghz * 1e9)
}

/// Index-pattern statistics for `m`, taken from the suite's real index
/// vectors (full and short permutations).
pub fn patterns_for(m: &Machine, seed: u64) -> (MeanPattern, MeanPattern) {
    let suite = LoopSuite::for_l1(m.mem.l1_bytes, seed);
    let full = analyze_array(
        &suite.index_full,
        8,
        m.mem.line_bytes,
        &m.gather,
        m.vector_width,
    );
    let short = analyze_array(
        &suite.index_short,
        8,
        m.mem.line_bytes,
        &m.gather,
        m.vector_width,
    );
    (full, short)
}

fn pattern_for_kind<'a>(
    kind: LoopKind,
    full: &'a MeanPattern,
    short: &'a MeanPattern,
) -> Option<&'a MeanPattern> {
    match kind {
        LoopKind::Simple | LoopKind::Predicate => None,
        LoopKind::Gather | LoopKind::Scatter => Some(full),
        LoopKind::ShortGather | LoopKind::ShortScatter => Some(short),
    }
}

/// All Fig. 1 rows: runtime on A64FX under each compiler, relative to
/// Intel on Skylake (the paper's y-axis). Each machine's index patterns
/// and each loop's Skylake time are computed once and shared by the
/// loop's four cells.
pub fn figure1() -> Vec<Measurement> {
    let a = machines::a64fx();
    let s = machines::skylake_6140();
    let (fa, sa) = patterns_for(a, 42);
    let (fs, ss) = patterns_for(s, 42);
    let mut out = Vec::new();
    for kind in LoopKind::ALL {
        let t_s = seconds_per_element(kind, Compiler::Intel, s, pattern_for_kind(kind, &fs, &ss));
        for c in Compiler::A64FX {
            let t_a = seconds_per_element(kind, c, a, pattern_for_kind(kind, &fa, &sa));
            out.push(Measurement::new(
                "fig1",
                kind.label(),
                "Ookami A64FX",
                c.label(),
                1,
                t_a / t_s,
                "runtime_rel_skx",
            ));
        }
    }
    out
}

/// Fixed-width rendering of [`figure1`]'s rows (rows = loops, columns =
/// compilers).
pub fn render_figure1(rows: &[Measurement]) -> String {
    render_pivot(
        rows,
        "Fig. 1 — runtime on A64FX of simple vector loops, relative to Intel/Skylake",
        "loop",
        2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 cell for `kind` under `c`.
    fn rel(rows: &[Measurement], kind: LoopKind, c: Compiler) -> f64 {
        rows.iter()
            .find(|r| r.workload == kind.label() && r.toolchain == c.label())
            .map(|r| r.value)
            .expect("fig1 cell")
    }

    #[test]
    fn fujitsu_hovers_near_two_for_streaming_kinds() {
        // Paper: "the Fujitsu tool chain performance hovers at the factor
        // of 2 expected from the ratio of the clock speeds, except for the
        // predicate operation that is 3-fold slower and the short gather
        // that is only circa 1.5-fold slower."
        let rows = figure1();
        let simple = rel(&rows, LoopKind::Simple, Compiler::Fujitsu);
        assert!(simple > 1.5 && simple < 2.7, "simple {simple}");
        let gather = rel(&rows, LoopKind::Gather, Compiler::Fujitsu);
        assert!(gather > 1.6 && gather < 2.6, "gather {gather}");
    }

    #[test]
    fn predicate_is_the_outlier_high() {
        let rows = figure1();
        let pred = rel(&rows, LoopKind::Predicate, Compiler::Fujitsu);
        let simple = rel(&rows, LoopKind::Simple, Compiler::Fujitsu);
        assert!(pred > simple + 0.4, "pred {pred} vs simple {simple}");
    }

    #[test]
    fn short_gather_is_the_outlier_low() {
        let rows = figure1();
        let sg = rel(&rows, LoopKind::ShortGather, Compiler::Fujitsu);
        let g = rel(&rows, LoopKind::Gather, Compiler::Fujitsu);
        assert!(sg < g - 0.4, "short {sg} vs full {g}");
        assert!(sg > 0.9 && sg < 1.9, "short gather {sg}");
    }

    #[test]
    fn fujitsu_best_on_a64fx_for_every_loop() {
        // Paper: "the Fujitsu toolchain delivers the highest performance
        // for all loops".
        let rows = figure1();
        for kind in LoopKind::ALL {
            let fuj = rel(&rows, kind, Compiler::Fujitsu);
            for c in [Compiler::Cray, Compiler::Arm, Compiler::Gnu] {
                let other = rel(&rows, kind, c);
                assert!(
                    fuj <= other + 1e-9,
                    "{kind:?}: fujitsu {fuj} vs {c:?} {other}"
                );
            }
        }
    }

    #[test]
    fn figure1_is_complete() {
        let rows = figure1();
        assert_eq!(rows.len(), 24); // 6 loops × 4 compilers
        assert!(rows.iter().all(|r| r.value.is_finite() && r.value > 0.5));
        let txt = render_figure1(&rows);
        assert!(txt.contains("short gather"));
    }
}
