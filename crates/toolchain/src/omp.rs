//! OpenMP runtime model: data placement defaults and barrier costs.
//!
//! §V-A2 of the paper: the Fujitsu runtime's default of "allocating all
//! the data in CMG 0" cripples SP/UA at full occupancy until first-touch
//! binding is requested. The other runtimes default to first-touch.

use crate::compiler::Compiler;
use ookami_mem::placement::Placement;
use ookami_mem::scaling::BarrierCost;

/// One toolchain's OpenMP runtime behaviour.
#[derive(Debug, Clone, Copy)]
pub struct OmpModel {
    pub placement: Placement,
    pub barrier: BarrierCost,
}

impl OmpModel {
    /// Default runtime behaviour for a compiler.
    pub fn for_compiler(c: Compiler) -> Self {
        match c {
            Compiler::Fujitsu => OmpModel {
                // The paper's diagnosed default.
                placement: Placement::Domain0,
                barrier: BarrierCost {
                    base_us: 1.5,
                    per_thread_us: 0.05,
                },
            },
            Compiler::Cray => OmpModel {
                placement: Placement::FirstTouch,
                barrier: BarrierCost {
                    base_us: 1.5,
                    per_thread_us: 0.06,
                },
            },
            Compiler::Arm => OmpModel {
                placement: Placement::FirstTouch,
                barrier: BarrierCost {
                    base_us: 2.0,
                    per_thread_us: 0.08,
                },
            },
            Compiler::Gnu => OmpModel {
                placement: Placement::FirstTouch,
                barrier: BarrierCost {
                    base_us: 1.2,
                    per_thread_us: 0.05,
                },
            },
            Compiler::Intel => OmpModel {
                placement: Placement::FirstTouch,
                barrier: BarrierCost {
                    base_us: 0.8,
                    per_thread_us: 0.04,
                },
            },
        }
    }

    /// The "fujitsu-first-touch" configuration of Fig. 4: same runtime,
    /// placement policy switched to first touch.
    pub fn fujitsu_first_touch() -> Self {
        OmpModel {
            placement: Placement::FirstTouch,
            ..OmpModel::for_compiler(Compiler::Fujitsu)
        }
    }

    /// Replace the per-compiler barrier guess with constants fitted from
    /// measured `(threads, seconds_per_region)` fork/join samples, such
    /// as the per-team pool costs (fastest pair) of the `forkjoin` probe
    /// in `ookami-bench`. Placement is unchanged: it is a property of the
    /// modeled runtime, not of the host the probe ran on.
    pub fn calibrated(self, samples: &[(usize, f64)]) -> Self {
        OmpModel {
            barrier: BarrierCost::from_samples(samples),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fujitsu_defaults_to_cmg0() {
        assert_eq!(
            OmpModel::for_compiler(Compiler::Fujitsu).placement,
            Placement::Domain0
        );
        for c in [
            Compiler::Cray,
            Compiler::Arm,
            Compiler::Gnu,
            Compiler::Intel,
        ] {
            assert_eq!(
                OmpModel::for_compiler(c).placement,
                Placement::FirstTouch,
                "{c:?}"
            );
        }
    }

    #[test]
    fn calibration_replaces_barrier_but_not_placement() {
        let base = OmpModel::for_compiler(Compiler::Fujitsu);
        let truth = BarrierCost {
            base_us: 3.0,
            per_thread_us: 0.2,
        };
        let samples: Vec<(usize, f64)> = [2, 4, 8, 16]
            .iter()
            .map(|&t| (t, truth.seconds(t)))
            .collect();
        let cal = base.calibrated(&samples);
        assert_eq!(cal.placement, base.placement);
        assert!(
            (cal.barrier.base_us - 3.0).abs() < 1e-9,
            "{}",
            cal.barrier.base_us
        );
        assert!((cal.barrier.per_thread_us - 0.2).abs() < 1e-9);
    }

    #[test]
    fn first_touch_override_keeps_barrier() {
        let d = OmpModel::for_compiler(Compiler::Fujitsu);
        let ft = OmpModel::fujitsu_first_touch();
        assert_eq!(ft.placement, Placement::FirstTouch);
        assert_eq!(ft.barrier.base_us, d.barrier.base_us);
    }
}
