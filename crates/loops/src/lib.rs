//! # ookami-loops — the Section III loop-vectorization suite
//!
//! The paper probes toolchains with six tiny loops plus five math-function
//! loops, with working sets sized "to collectively fill the L1 cache". This
//! crate provides:
//!
//! * [`suite`] — *native Rust* implementations of every loop (actually
//!   executable and property-tested; [`emulated`] checks the SVE runs
//!   against them);
//! * [`fig1`] — the Fig. 1 regenerator: relative runtime (A64FX toolchain
//!   vs. Intel-on-Skylake) of the simple/predicate/gather/scatter loops,
//!   from the toolchain lowering + machine cost model;
//! * [`fig2`] — the Fig. 2 regenerator for the recip/sqrt/exp/sin/pow
//!   loops via the math-library model;
//! * [`sec4`] — the Section IV table: exp cycles/element across toolchain
//!   implementations and loop structures (VLA / fixed-width / unrolled,
//!   Horner vs. Estrin).

pub mod emulated;
pub mod fig1;
pub mod fig2;
pub mod sec4;
pub mod suite;

pub use suite::LoopSuite;
