//! The five toolchains and their modeled properties.

use ookami_core::MathFunc;
use ookami_vecmath::exp::ExpVariant;
use ookami_vecmath::pow::PowStyle;
use ookami_vecmath::recip::RecipStyle;
use ookami_vecmath::sqrt::SqrtStyle;

/// A compiler toolchain as deployed on Ookami (or, for Intel, on the
/// Skylake comparison system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compiler {
    Fujitsu,
    Cray,
    Arm,
    Gnu,
    Intel,
}

impl Compiler {
    /// The four toolchains available on the A64FX nodes.
    pub const A64FX: [Compiler; 4] = [
        Compiler::Fujitsu,
        Compiler::Cray,
        Compiler::Arm,
        Compiler::Gnu,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Compiler::Fujitsu => "fujitsu",
            Compiler::Cray => "cray",
            Compiler::Arm => "arm",
            Compiler::Gnu => "gcc",
            Compiler::Intel => "intel",
        }
    }

    /// Compiler version from Table I.
    pub fn version(self) -> &'static str {
        match self {
            Compiler::Fujitsu => "1.0.20",
            Compiler::Arm => "21",
            Compiler::Cray => "10.0.2",
            Compiler::Gnu => "11.1.0",
            Compiler::Intel => "19.1.2.254",
        }
    }

    /// Compiler flags from Table I (loop-vectorization tests).
    pub fn flags(self) -> &'static str {
        match self {
            Compiler::Fujitsu => "-Kfast -KSVE -Koptmsg=2",
            Compiler::Arm => {
                "-std=c++17 -Ofast -ffp-contract=fast -ffast-math -Wall \
                 -Rpass=loop-vectorize -march=armv8.2-a+sve -mcpu=a64fx -armpl -fopenmp"
            }
            Compiler::Cray => "-O3 -h aggress,flex_mp=tolerant,msgs,negmsgs,vector3,omp",
            Compiler::Gnu => {
                "-Ofast -ffast-math -Wall -mtune=a64fx -mcpu=a64fx -march=armv8.2-a+sve \
                 -fopt-info-vec -fopt-info-vec-missed -fopenmp"
            }
            Compiler::Intel => {
                "-xHOST -O3 -ipo -no-prec-div -fp-model fast=2 -qopt-report=5 \
                 -qopt-report-phase=vec -mkl=sequential -qopt-zmm-usage=high -qopenmp"
            }
        }
    }

    /// Does this toolchain's math library vectorize `f`? §III: "the GNU
    /// compiler did not vectorize exp, sin, and pow" (no SVE vector math
    /// library in glibc — "no activity to develop one").
    pub fn vectorizes_math(self, f: MathFunc) -> bool {
        match self {
            Compiler::Gnu => matches!(f, MathFunc::Sqrt | MathFunc::Recip),
            _ => true,
        }
    }

    /// Reciprocal algorithm. §III: ARM 20 and *current GNU* pick the
    /// blocking divide; we model the deployed ARM 21 as fixed for recip.
    pub fn recip_style(self) -> RecipStyle {
        match self {
            Compiler::Gnu => RecipStyle::Fdiv,
            _ => RecipStyle::Newton,
        }
    }

    /// Square-root algorithm. §III: "both the AMD [ARM-shipped] and GNU
    /// compilers select the SVE FSQRT instruction … Cray and Fujitsu
    /// instead employ a Newton algorithm."
    pub fn sqrt_style(self) -> SqrtStyle {
        match self {
            Compiler::Gnu | Compiler::Arm => SqrtStyle::Fsqrt,
            _ => SqrtStyle::Newton,
        }
    }

    /// Exponential algorithm (None = scalar libm calls).
    pub fn exp_variant(self) -> Option<ExpVariant> {
        match self {
            Compiler::Fujitsu => Some(ExpVariant::FexpaEstrinCorrected),
            Compiler::Cray => Some(ExpVariant::Poly13),
            Compiler::Arm => Some(ExpVariant::Poly13Sleef),
            Compiler::Gnu => None,
            Compiler::Intel => Some(ExpVariant::Poly13),
        }
    }

    /// pow algorithm (None = scalar). ARM's library routes through Sleef's
    /// double-double path — the paper's "10× slower on pow".
    pub fn pow_style(self) -> Option<PowStyle> {
        match self {
            Compiler::Fujitsu | Compiler::Intel => Some(PowStyle::FexpaFast),
            Compiler::Cray => Some(PowStyle::FdivLog),
            Compiler::Arm => Some(PowStyle::SleefDd),
            Compiler::Gnu => None,
        }
    }

    /// Does the vector sin get the portable-library hardening overhead?
    pub fn hardened_sin(self) -> bool {
        matches!(self, Compiler::Arm)
    }

    /// Inner-loop unroll factor the compiler applies to streaming loops.
    pub fn unroll(self) -> usize {
        match self {
            Compiler::Fujitsu => 4,
            Compiler::Cray => 2,
            Compiler::Intel => 4,
            Compiler::Gnu => 2,
            Compiler::Arm => 1,
        }
    }

    /// Extra bookkeeping micro-ops per loop iteration beyond the minimal
    /// set (unfused address updates, redundant predicate tests, …).
    pub fn loop_overhead_uops(self) -> usize {
        match self {
            Compiler::Fujitsu | Compiler::Intel => 0,
            Compiler::Cray => 1,
            Compiler::Gnu => 2,
            Compiler::Arm => 2,
        }
    }

    /// Sustained fraction of peak FLOP rate for compiled (non-libm)
    /// vectorized application code — the residual codegen-quality knob for
    /// whole applications (NPB §V). GCC's strong showing on A64FX compiled
    /// code (Fig. 3: "gcc seems to perform the best or comparable for 5 of
    /// the 6 apps") appears here.
    pub fn loop_efficiency(self) -> f64 {
        // Whole-application sustained fractions of peak are small (a few
        // percent single-core is typical for NPB-class codes); Skylake's
        // deeper out-of-order core and mature prefetchers sustain roughly
        // twice the fraction A64FX does on compiled code.
        match self {
            Compiler::Gnu => 0.055,
            Compiler::Fujitsu => 0.050,
            Compiler::Cray => 0.045,
            Compiler::Arm => 0.040,
            Compiler::Intel => 0.110,
        }
    }

    /// Scalar (non-vectorized) sustained FLOP/cycle for residual code.
    pub fn scalar_flops_per_cycle(self) -> f64 {
        // Scalar IPC is where the A64FX core is weakest (in-order-ish
        // integer side, long FP latencies); x86 sustains > 2× per clock —
        // the LULESH *Base* table (Table II) is the cleanest exhibit: all
        // four A64FX toolchains produce nearly identical ~2.05 s while
        // Intel/Skylake runs the same scalar code in 0.395 s.
        match self {
            Compiler::Intel => 1.5,
            Compiler::Gnu => 0.65,
            Compiler::Fujitsu => 0.65,
            Compiler::Cray => 0.65,
            Compiler::Arm => 0.65,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnu_lacks_vector_libm() {
        assert!(!Compiler::Gnu.vectorizes_math(MathFunc::Exp));
        assert!(!Compiler::Gnu.vectorizes_math(MathFunc::Sin));
        assert!(!Compiler::Gnu.vectorizes_math(MathFunc::Pow));
        // sqrt/recip are instruction-level, so "vectorized" (badly).
        assert!(Compiler::Gnu.vectorizes_math(MathFunc::Sqrt));
        for c in [
            Compiler::Fujitsu,
            Compiler::Cray,
            Compiler::Arm,
            Compiler::Intel,
        ] {
            for f in MathFunc::ALL {
                assert!(c.vectorizes_math(f), "{c:?} {f:?}");
            }
        }
    }

    #[test]
    fn paper_algorithm_choices() {
        use ookami_vecmath::sqrt::SqrtStyle;
        assert_eq!(Compiler::Gnu.sqrt_style(), SqrtStyle::Fsqrt);
        assert_eq!(Compiler::Arm.sqrt_style(), SqrtStyle::Fsqrt);
        assert_eq!(Compiler::Fujitsu.sqrt_style(), SqrtStyle::Newton);
        assert_eq!(Compiler::Cray.sqrt_style(), SqrtStyle::Newton);
        assert_eq!(
            Compiler::Gnu.recip_style(),
            ookami_vecmath::recip::RecipStyle::Fdiv
        );
        assert_eq!(
            Compiler::Fujitsu.exp_variant(),
            Some(ExpVariant::FexpaEstrinCorrected)
        );
        assert_eq!(Compiler::Gnu.exp_variant(), None);
    }

    #[test]
    fn table1_flags_present() {
        for c in [
            Compiler::Fujitsu,
            Compiler::Arm,
            Compiler::Cray,
            Compiler::Gnu,
            Compiler::Intel,
        ] {
            assert!(!c.flags().is_empty());
            assert!(!c.version().is_empty());
        }
        assert!(Compiler::Fujitsu.flags().contains("-KSVE"));
        assert!(Compiler::Gnu.flags().contains("sve"));
        assert!(Compiler::Intel.flags().contains("-qopt-zmm-usage=high"));
    }
}
