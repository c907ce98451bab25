//! obs counter glue shared by the interpreter ([`crate::ctx`]) and the
//! trace replayer ([`crate::trace`]).
//!
//! Both executors funnel retired ops through [`bump`], so the *counter
//! identity* invariant — replaying a traced kernel over a range produces
//! exactly the totals interpreting it does — reduces to both sides
//! agreeing on `(class, instrs, lanes, uops)` per op:
//!
//! * the interpreter counts one instruction per op call, with `lanes` =
//!   active lanes of the governing predicate (the full `vl` for the
//!   unpredicated estimates/FEXPA, the result's population for `pand`),
//!   and suppresses counting entirely while a trace sink is installed
//!   (record-time execution is re-counted by the replay that re-runs it);
//! * the replayer counts `blocks` instructions per body op, where
//!   `blocks = ceil(active_block_lanes / vl)` tracks how many `vl`-wide
//!   interpreter iterations one batched step stands for, and lane counts
//!   come from the same predicate masks (block masks concatenate lanewise
//!   under batching, so popcounts sum to the interpreter's).
//!
//! Port pressure is **candidate-port pressure**: each instruction adds
//! `instrs × uops` to *every* port its class may issue to in the A64FX
//! cost table (FLA *and* FLB for an FMA). That is deterministic and
//! execution-order-independent — unlike a simulated port assignment — so
//! it can be asserted bit-equal across execution strategies.

use ookami_core::{obs, obs::Counter, timeline};
use ookami_uarch::{CostTable, OpClass, Width};

/// Retired-instruction interval between periodic timeline counter samples.
/// Large enough that sampling is invisible next to the emulation itself,
/// small enough that a bench slice produces a usable counter track.
const SAMPLE_PERIOD: u64 = 16_384;

#[cfg(feature = "obs")]
thread_local! {
    /// Instructions retired on this thread since the last timeline sample.
    static SINCE_SAMPLE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Every `SAMPLE_PERIOD` retired instructions, drop a sample of this
/// thread's cumulative hot counters into the timeline (Chrome `C` counter
/// tracks). A pure observation: counter totals are unaffected.
#[inline]
fn maybe_sample(instrs: u64) {
    #[cfg(feature = "obs")]
    {
        if !timeline::recording() {
            return;
        }
        let due = SINCE_SAMPLE.with(|s| {
            let v = s.get() + instrs;
            let due = v >= SAMPLE_PERIOD;
            s.set(if due { 0 } else { v });
            due
        });
        if due {
            let snap = obs::thread_snapshot();
            for c in [
                Counter::SveInstrs,
                Counter::SveLanesActive,
                Counter::FlopsModel,
                Counter::BytesLoaded,
                Counter::FexpaIssues,
            ] {
                timeline::counter_sample(c, snap.get(c));
            }
        }
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = instrs;
        let _ = SAMPLE_PERIOD;
        let _ = timeline::recording; // keep the import meaningful without obs
    }
}

/// Count `instrs` retired instructions of `class` touching `lanes` active
/// lanes in total, each cracking into `uops` micro-ops (1 for everything
/// but gathers, which carry the 128-byte-window pairing hint).
#[inline]
pub(crate) fn bump(class: OpClass, instrs: u64, lanes: u64, uops: u64) {
    if !obs::enabled() || instrs == 0 {
        return;
    }
    obs::add(Counter::SveInstrs, instrs);
    obs::add(Counter::SveLanesActive, lanes);
    // Model FLOPs: active lanes × the class's per-lane FLOP weight — the
    // numerator of every roofline placement in `obs::derive`.
    let flops = lanes * class.flops_per_lane() as u64;
    if flops > 0 {
        obs::add(Counter::FlopsModel, flops);
    }
    let cost = ookami_uarch::machines::A64fxTable.cost(class, Width::V512);
    for p in cost.ports.iter() {
        obs::add(Counter::port(p), instrs * uops);
    }
    maybe_sample(instrs);
}

/// [`bump`] into a local snapshot instead of the live thread counters.
/// The compiled path ([`crate::compile`]) pre-folds one block's static
/// accounting at plan-build time and [`flush`]es `blocks × snapshot` per
/// bulk call — per-block `bump`s would spend more time in thread-local
/// atomics than in the kernels themselves. Must mirror [`bump`] field for
/// field: every counter here is linear in `(instrs, lanes)`, so scaling
/// by the block count is exact, and the cross-executor identity tests
/// assert it stays that way.
pub(crate) fn bump_into(s: &mut obs::Snapshot, class: OpClass, instrs: u64, lanes: u64, uops: u64) {
    if instrs == 0 {
        return;
    }
    let mut add = |c: Counter, n: u64| s.set(c, s.get(c) + n);
    add(Counter::SveInstrs, instrs);
    add(Counter::SveLanesActive, lanes);
    let flops = lanes * class.flops_per_lane() as u64;
    if flops > 0 {
        add(Counter::FlopsModel, flops);
    }
    let cost = ookami_uarch::machines::A64fxTable.cost(class, Width::V512);
    for p in cost.ports.iter() {
        add(Counter::port(p), instrs * uops);
    }
}

/// [`bump_fexpa`] into a local snapshot (see [`bump_into`]).
pub(crate) fn bump_fexpa_into(s: &mut obs::Snapshot, instrs: u64, lanes: u64) {
    bump_into(s, OpClass::Fexpa, instrs, lanes, 1);
    s.set(Counter::FexpaIssues, s.get(Counter::FexpaIssues) + instrs);
}

/// Drain `times` copies of a pre-folded block snapshot into the live
/// counters: at most one [`obs::add`] per counter per bulk call.
pub(crate) fn flush(s: &obs::Snapshot, times: u64) {
    if !obs::enabled() || times == 0 {
        return;
    }
    for c in obs::COUNTERS {
        let v = s.get(c);
        if v != 0 {
            obs::add(c, v * times);
        }
    }
    maybe_sample(s.get(Counter::SveInstrs) * times);
}

/// Active lanes of an interpreter predicate mask.
#[inline]
pub(crate) fn popcount(mask: &[bool]) -> u64 {
    mask.iter().filter(|&&m| m).count() as u64
}

/// [`bump`] plus the gather element/byte counters.
#[inline]
pub(crate) fn bump_gather(instrs: u64, elems: u64, uops: u64) {
    if !obs::enabled() {
        return;
    }
    bump(OpClass::Gather, instrs, elems, uops);
    obs::add(Counter::GatherElems, elems);
    obs::add(Counter::BytesLoaded, 8 * elems);
}

/// [`bump`] plus the scatter element/byte counters.
#[inline]
pub(crate) fn bump_scatter(instrs: u64, elems: u64) {
    if !obs::enabled() {
        return;
    }
    bump(OpClass::Scatter, instrs, elems, 1);
    obs::add(Counter::ScatterElems, elems);
    obs::add(Counter::BytesStored, 8 * elems);
}

/// [`bump`] plus the FEXPA issue counter (Table I's signature instruction
/// gets its own line in every report).
#[inline]
pub(crate) fn bump_fexpa(instrs: u64, lanes: u64) {
    if !obs::enabled() {
        return;
    }
    bump(OpClass::Fexpa, instrs, lanes, 1);
    obs::add(Counter::FexpaIssues, instrs);
}
