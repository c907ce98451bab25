//! Whole-application runtime prediction.
//!
//! Combines the pieces: a [`WorkloadProfile`] (what the application does),
//! a [`Compiler`] (how well it compiles: vectorization, math library,
//! codegen efficiency), a [`Machine`] (how fast it executes), a thread
//! count and a [`Placement`](ookami_mem::placement::Placement) (where the
//! data lives). Used by the NPB (Figs. 3–6) and LULESH (Table II / Fig. 7)
//! regenerators.

use crate::compiler::Compiler;
use crate::mathlib::math_cycles_per_element;
use crate::omp::OmpModel;
use ookami_core::WorkloadProfile;
use ookami_mem::scaling::{parallel_time_s, ParallelWorkload};
use ookami_uarch::Machine;

/// Single-thread compute time (no memory stalls), in seconds at the
/// machine's single-core frequency.
pub fn compute_time_1t_s(p: &WorkloadProfile, c: Compiler, m: &Machine) -> f64 {
    let freq = m.turbo_1c_ghz * 1e9;
    let lanes = m.vector_width.lanes_f64() as f64;
    // Vectorized loop FLOPs at a sustained fraction of peak.
    let peak_flops_per_cycle = 2.0 * m.fma_pipes as f64 * lanes;
    let vec_rate = peak_flops_per_cycle * c.loop_efficiency();
    let vec_flops = p.flops * p.vec_fraction;
    let scalar_flops = p.flops - vec_flops;
    let mut cycles = vec_flops / vec_rate + scalar_flops / c.scalar_flops_per_cycle();
    // Math-library calls (not overlapped with the loops that call them).
    for &(f, count) in &p.math_calls {
        cycles += count * math_cycles_per_element(f, c, m);
    }
    // Irregular (gather-like) element accesses are latency-bound: the
    // level holding the target region sets the latency, and the ROB depth
    // sets the memory-level parallelism hiding it. This is why CG's
    // single-core A64FX/Skylake gap (1.6×) is so much smaller than its
    // bandwidth ratio suggests — and not reversed (Fig. 3).
    if p.gather_elems > 0.0 {
        cycles += p.gather_elems * gather_cycles_per_elem(m, p.gather_target_bytes);
    }
    cycles / freq
}

/// Average cycles one randomly-indexed element access costs: issue cost
/// plus residence-level latency divided by the memory-level parallelism
/// achievable at that level (near caches, the load queue pipelines
/// accesses well; past the LLC, the ROB bounds outstanding misses).
pub fn gather_cycles_per_elem(m: &Machine, target_bytes: f64) -> f64 {
    let spec = &m.mem;
    let rob_mlp = (m.table.rob_size() / 28.0).clamp(2.0, 10.0);
    let (latency, mlp) = if target_bytes <= spec.l1_bytes as f64 {
        (spec.l1_latency, 8.0)
    } else if target_bytes <= spec.l2_bytes as f64 {
        (spec.l2_latency, 10.0)
    } else if let Some((l3b, l3lat, _)) = spec.l3 {
        if target_bytes <= l3b as f64 {
            (l3lat, rob_mlp)
        } else {
            (spec.mem_latency, rob_mlp)
        }
    } else {
        (spec.mem_latency, rob_mlp)
    };
    let g = &m.gather;
    g.gather_cycles_per_group + g.gather_line_cycles + latency / mlp
}

/// Predicted wall time in seconds.
pub fn predict_seconds(
    p: &WorkloadProfile,
    c: Compiler,
    m: &Machine,
    threads: usize,
    omp: &OmpModel,
) -> f64 {
    let w = ParallelWorkload {
        compute_1t_s: compute_time_1t_s(p, c, m),
        // strided traffic drags whole cache lines: 256-B lines amplify
        mem_bytes: p.effective_bytes(m.mem.line_bytes),
        parallel_fraction: p.parallel_fraction,
        barriers: p.barriers,
        imbalance: p.imbalance,
    };
    parallel_time_s(&w, m, omp.placement, threads, omp.barrier)
}

/// Predicted time with the compiler's default OpenMP runtime.
pub fn predict_default(p: &WorkloadProfile, c: Compiler, m: &Machine, threads: usize) -> f64 {
    predict_seconds(p, c, m, threads, &OmpModel::for_compiler(c))
}

/// Parallel efficiency T1/(n·Tn) under the compiler's default runtime —
/// the y-axis of Figs. 5 and 6.
pub fn efficiency(p: &WorkloadProfile, c: Compiler, m: &Machine, threads: usize) -> f64 {
    let omp = OmpModel::for_compiler(c);
    let t1 = predict_seconds(p, c, m, 1, &omp);
    let tn = predict_seconds(p, c, m, threads, &omp);
    t1 / (threads as f64 * tn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_core::MathFunc;
    use ookami_uarch::machines;

    /// EP-like: modest loop flops + heavy log/sqrt math calls (the real
    /// EP's per-pair Box–Muller work).
    fn ep_like() -> WorkloadProfile {
        WorkloadProfile::new("EP", 1.2e11, 2e9)
            .with_math(MathFunc::Log, 3.4e9)
            .with_math(MathFunc::Sqrt, 3.4e9)
            .with_vec_fraction(0.95)
            .with_parallel(0.9999, 100.0, 1.0)
    }

    /// CG-like: memory-bound streaming over the matrix plus latency-bound
    /// gathers into an L2-resident vector.
    fn cg_like() -> WorkloadProfile {
        WorkloadProfile::new("CG", 2.4e11, 6e11)
            .with_gather_fraction(0.45)
            .with_gathers(3.0e10, 1.2e6)
            .with_vec_fraction(0.85)
            .with_parallel(0.999, 2000.0, 1.02)
    }

    #[test]
    fn gcc_ep_penalty_from_scalar_math() {
        // Fig. 3: GCC ~3× slower on EP than the best A64FX compiler.
        let m = machines::a64fx();
        let p = ep_like();
        let gcc = predict_default(&p, Compiler::Gnu, m, 1);
        let best = Compiler::A64FX
            .iter()
            .map(|&c| predict_default(&p, c, m, 1))
            .fold(f64::INFINITY, f64::min);
        let ratio = gcc / best;
        // (the toy profile here is milder than real EP; the full claim —
        // ~3× on the real profile — is tested in ookami-npb::figures)
        assert!(ratio > 1.5 && ratio < 5.0, "gcc/best = {ratio}");
    }

    #[test]
    fn intel_single_core_advantage() {
        // Fig. 3: Intel/Skylake beats the best A64FX compiler by 1.6–5.5×.
        let a = machines::a64fx();
        let s = machines::skylake_6140();
        for p in [ep_like(), cg_like()] {
            let intel = predict_default(&p, Compiler::Intel, s, 1);
            let best = Compiler::A64FX
                .iter()
                .map(|&c| predict_default(&p, c, a, 1))
                .fold(f64::INFINITY, f64::min);
            let ratio = best / intel;
            assert!(
                ratio > 1.3 && ratio < 6.5,
                "{}: best-A64FX/intel = {ratio}",
                p.name
            );
        }
    }

    #[test]
    fn memory_bound_narrows_gap_at_full_node() {
        // Fig. 4: A64FX beats Skylake on memory-bound apps at full node.
        let a = machines::a64fx();
        let s = machines::skylake_6140();
        let p = cg_like();
        let a_t = predict_default(&p, Compiler::Gnu, a, 48);
        let s_t = predict_default(&p, Compiler::Intel, s, 36);
        assert!(
            a_t < s_t,
            "A64FX {a_t} should beat SKX {s_t} on CG-like at full node"
        );
    }

    /// SP-like: streaming memory-bound, no irregular access.
    fn sp_like() -> WorkloadProfile {
        WorkloadProfile::new("SP", 3e11, 2e12)
            .with_vec_fraction(0.92)
            .with_parallel(0.999, 4000.0, 1.0)
    }

    #[test]
    fn fujitsu_first_touch_fixes_memory_bound_apps() {
        // Fig. 4's fujitsu-first-touch bar: large win for SP-like loads.
        let m = machines::a64fx();
        let p = sp_like();
        let default = predict_default(&p, Compiler::Fujitsu, m, 48);
        let ft = predict_seconds(
            &p,
            Compiler::Fujitsu,
            m,
            48,
            &OmpModel::fujitsu_first_touch(),
        );
        assert!(default / ft > 1.5, "first-touch speedup {}", default / ft);
    }

    #[test]
    fn ep_scales_nearly_linearly_on_a64fx() {
        // Fig. 5: EP parallel efficiency ≈ 1 across 48 cores.
        let m = machines::a64fx();
        let e = efficiency(&ep_like(), Compiler::Gnu, m, 48);
        assert!(e > 0.9, "EP efficiency {e}");
    }

    #[test]
    fn a64fx_scales_better_than_skylake_when_memory_bound() {
        // Figs. 5–6: SP-like efficiency ≈ 0.6 on A64FX vs ≈ 0.25 on SKX.
        let a = machines::a64fx();
        let s = machines::skylake_6140();
        let p = cg_like();
        let ea = efficiency(&p, Compiler::Gnu, a, 48);
        let es = efficiency(&p, Compiler::Intel, s, 36);
        assert!(ea > es, "A64FX {ea} vs SKX {es}");
        assert!(ea > 0.3 && ea < 1.0, "A64FX {ea}");
        assert!(es < 0.6, "SKX {es}");
    }

    #[test]
    fn compute_time_positive_and_ordered() {
        let m = machines::a64fx();
        let p = ep_like();
        let t_arm = compute_time_1t_s(&p, Compiler::Arm, m);
        let t_fuj = compute_time_1t_s(&p, Compiler::Fujitsu, m);
        assert!(t_arm > 0.0 && t_fuj > 0.0);
        // ARM's lower loop efficiency and slower libm make it no faster.
        assert!(t_arm >= t_fuj);
    }
}
