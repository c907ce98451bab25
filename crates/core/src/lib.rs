//! # ookami-core — experiment orchestration
//!
//! Shared substrate for the workload crates and the benchmark harness:
//!
//! * [`pool`] — a persistent fork/join worker pool (workers parked between
//!   regions, sense-reversing barrier, OpenMP-style `Static`/`Dynamic`/
//!   `Guided` schedules) — the repo's stand-in for the OpenMP runtimes the
//!   paper compares;
//! * [`runtime`] — the OpenMP-like `par_for`/`par_reduce`/`par_chunks_mut`
//!   helpers the workload crates call, backed by the global [`pool::Pool`];
//! * [`profile`] — [`WorkloadProfile`]: the characterization record each
//!   workload produces (FLOPs, memory traffic, math-function calls,
//!   vectorizability, parallel structure) and the machine/toolchain model
//!   consumes;
//! * [`measure`] — measurement records and fixed-width table / CSV output
//!   used by every figure regenerator;
//! * [`obs`] — hardware-counter-style event counters and the span
//!   registry, the one aggregate record of every region close (count,
//!   latency histogram, counter delta per span path; zero-cost unless
//!   built with the `obs` feature), plus the shared `ookami-bench-v1`
//!   JSON report schema every probe binary writes;
//! * [`timeline`] — lock-free per-thread ring-buffer tracer with a Chrome
//!   trace-event exporter (span begin/end, pool fork/join/chunk/barrier,
//!   periodic counter samples), plus [`obs::derive`] — the roofline /
//!   derived-metrics engine built on the counter snapshots;
//! * [`telemetry`] — the log-bucketed latency histogram the span registry
//!   carries, and the span-tree profiler with flamegraph (collapsed-stack)
//!   export ([`telemetry::spantree`]);
//! * [`stats`] — mean/stddev/median helpers (the paper's error bars).

// Every `unsafe` operation must sit in an explicit `unsafe { }` block with
// its own `// SAFETY:` justification, even inside `unsafe fn` (the
// workspace unsafe-audit test enforces the comments).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod measure;
pub mod obs;
pub mod pool;
pub mod profile;
pub mod runtime;
pub mod stats;
pub mod telemetry;
pub mod timeline;

pub use measure::{Measurement, Table};
pub use pool::{Pool, Schedule};
pub use profile::{MathFunc, WorkloadProfile};
pub use runtime::{
    auto_threads, par_chunks_mut, par_chunks_mut_with, par_for, par_for_with, par_reduce,
    par_reduce_with, SendPtr,
};
pub use stats::Stats;
