//! Derived-metrics engine: turn raw counter [`Snapshot`]s into the
//! quantities the paper argues with — model FLOP/s, model bytes/s,
//! arithmetic intensity, SVE lane utilization, FEXPA issue rate, per-port
//! pressure shares — and place each span on the machine's roofline with a
//! top-bottleneck attribution.
//!
//! Everything here is *model-derived*: the counters are emulator event
//! counts (see [`super::Counter`]), not PMU reads, so the derived numbers
//! are exactly reproducible across runs and across execution strategies
//! (interpreter vs trace replay — the counter-identity invariant makes the
//! derived metrics bit-identical too, which `sve`'s tests pin).
//!
//! The roofline follows the classic formulation (Williams et al.), with
//! machine parameters from [`ookami_uarch::Machine`]:
//!
//! ```text
//! peak  = peak_gflops_per_core × threads
//! bw    = bw_per_domain × min(threads × single_core_bw_fraction, domains_used)
//! ridge = peak / bw                       (FLOP/byte)
//! attainable(AI) = min(peak, AI × bw)
//! ```
//!
//! Attribution is a fixed, documented score per candidate bottleneck
//! (memory depth below the ridge, FEXPA share of the FLA pipe, FLA/FLB
//! imbalance, inactive lanes, barrier wait share, indexed-access share);
//! the top scorer wins, `Balanced` if nothing clears 0.25. Deterministic by
//! construction — ties break in declaration order.

use super::{Counter, Json, Snapshot};
use ookami_uarch::Machine;

/// Number of issue ports in the A64FX-style port model (FLA..BR).
pub const N_PORTS: usize = 8;

/// Display names for the port-pressure share vector, in counter order.
pub const PORT_NAMES: [&str; N_PORTS] = ["FLA", "FLB", "PR", "EXA", "EXB", "EAGA", "EAGB", "BR"];

/// The bottleneck classes the attributor can assign, in priority order
/// (ties break toward the earlier variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// AI is left of the ridge and the span sits deep in the bandwidth
    /// ceiling — the STREAM/SpMV story (paper §VII, Alappat et al.).
    MemoryBandwidth,
    /// FEXPA dominates the FLA pipe: exp-bound math kernels (paper §IV —
    /// FEXPA issues on FLA only, halving the usable FP issue width).
    FexpaThroughput,
    /// FLA carries far more work than FLB (predicate-heavy or
    /// FEXPA-adjacent code that can't use the second pipe).
    FlaPortImbalance,
    /// Vectors run mostly empty: low active-lane fraction (short loops,
    /// heavy predication — paper §III).
    LaneUtilization,
    /// Threads burn their time at the pool barrier (load imbalance or
    /// too-fine regions — paper §V scaling walls).
    BarrierWait,
    /// Indexed accesses (gather/scatter) dominate the memory traffic.
    ScatterGather,
    /// Nothing clears the attribution threshold.
    Balanced,
}

impl Bottleneck {
    pub fn name(self) -> &'static str {
        match self {
            Bottleneck::MemoryBandwidth => "memory-bandwidth",
            Bottleneck::FexpaThroughput => "fexpa-throughput",
            Bottleneck::FlaPortImbalance => "fla-port-imbalance",
            Bottleneck::LaneUtilization => "lane-utilization",
            Bottleneck::BarrierWait => "barrier-wait",
            Bottleneck::ScatterGather => "scatter-gather",
            Bottleneck::Balanced => "balanced",
        }
    }
}

/// Roofline placement of one measured span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Compute ceiling for the configured thread count, GFLOP/s.
    pub peak_gflops: f64,
    /// Bandwidth ceiling for the configured thread count, GB/s.
    pub mem_bw_gbs: f64,
    /// Ridge-point arithmetic intensity, FLOP/byte.
    pub ridge_ai: f64,
    /// `min(peak, AI × bw)` at the span's measured AI, GFLOP/s.
    pub attainable_gflops: f64,
    /// Achieved model GFLOP/s as a fraction of attainable (0 when the span
    /// did no model FLOPs).
    pub achieved_frac: f64,
    /// True when the span sits left of the ridge (AI < ridge).
    pub memory_bound: bool,
}

/// All derived metrics for one counter snapshot over a wall-time window.
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    /// Model GFLOP/s: `model_flops / seconds / 1e9`.
    pub model_gflops: f64,
    /// Model GB/s: `(bytes_loaded + bytes_stored) / seconds / 1e9`.
    pub model_gbs: f64,
    /// Arithmetic intensity, FLOP/byte (`f64::INFINITY` for compute-only
    /// spans that touched no model bytes).
    pub arithmetic_intensity: f64,
    /// Mean active-lane fraction per SVE instruction (0 when no SVE
    /// instructions retired). Lanes are counted against the execution
    /// vector length, so this is exactly the paper's §III utilization axis.
    pub lane_utilization: f64,
    /// FEXPA instructions per second.
    pub fexpa_per_s: f64,
    /// FEXPA share of FLA-port issues (the §IV one-pipe pressure).
    pub fexpa_share_fla: f64,
    /// Per-port share of total port events, counter order (see
    /// [`PORT_NAMES`]); all zero when no port events were recorded.
    pub port_share: [f64; N_PORTS],
    /// Barrier wait as a fraction of `threads × wall` time.
    pub barrier_share: f64,
    /// Gather+scatter elements × 8 bytes as a fraction of model bytes.
    pub indexed_share: f64,
    /// Roofline placement at this span's AI.
    pub roofline: Roofline,
    /// Winning bottleneck attribution.
    pub bottleneck: Bottleneck,
    /// The winner's score (0 for [`Bottleneck::Balanced`]).
    pub bottleneck_score: f64,
    /// Wall seconds the metrics were normalized over.
    pub wall_seconds: f64,
}

/// Score below which no bottleneck is attributed.
const ATTRIBUTION_THRESHOLD: f64 = 0.25;

/// Roofline ceilings for `threads` cores of `m`. Bandwidth scales with
/// thread count until the occupied domains saturate: one core draws
/// `single_core_bw_fraction` of its domain, and `ceil(threads /
/// cores_per_domain)` domains (clamped to the machine) cap the total.
pub fn roofline_ceilings(m: &Machine, threads: usize) -> (f64, f64) {
    let threads = threads.max(1);
    let peak = m.peak_gflops_per_core() * threads as f64;
    let domains_used = threads
        .div_ceil(m.numa.cores_per_domain.max(1))
        .min(m.numa.domains.max(1));
    let draw = (threads as f64 * m.numa.single_core_bw_fraction).min(domains_used as f64);
    let bw = m.numa.bw_per_domain_gbs * draw;
    (peak, bw)
}

/// Derive all metrics from a counter snapshot over `wall_seconds` of wall
/// time, against machine `m` running `threads` threads.
pub fn derive(snap: &Snapshot, wall_seconds: f64, m: &Machine, threads: usize) -> Derived {
    let secs = if wall_seconds > 0.0 {
        wall_seconds
    } else {
        f64::MIN_POSITIVE
    };
    let threads = threads.max(1);

    let flops = snap.get(Counter::FlopsModel) as f64;
    let bytes = (snap.get(Counter::BytesLoaded) + snap.get(Counter::BytesStored)) as f64;
    let model_gflops = flops / secs / 1e9;
    let model_gbs = bytes / secs / 1e9;
    let arithmetic_intensity = if bytes > 0.0 {
        flops / bytes
    } else if flops > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };

    let sve_instrs = snap.get(Counter::SveInstrs) as f64;
    let lanes = snap.get(Counter::SveLanesActive) as f64;
    let max_lanes = m.vector_width.lanes_f64() as f64;
    let lane_utilization = if sve_instrs > 0.0 {
        (lanes / (sve_instrs * max_lanes)).min(1.0)
    } else {
        0.0
    };

    let fexpa = snap.get(Counter::FexpaIssues) as f64;
    let fla = snap.get(Counter::PortFla) as f64;
    let flb = snap.get(Counter::PortFlb) as f64;
    let fexpa_per_s = fexpa / secs;
    let fexpa_share_fla = if fla > 0.0 {
        (fexpa / fla).min(1.0)
    } else {
        0.0
    };

    let mut port_share = [0.0; N_PORTS];
    let mut port_total = 0.0;
    for (i, share) in port_share.iter_mut().enumerate() {
        let v = snap.get(Counter::port(i as u8)) as f64;
        *share = v;
        port_total += v;
    }
    if port_total > 0.0 {
        for share in &mut port_share {
            *share /= port_total;
        }
    }

    let barrier_ns = snap.get(Counter::BarrierWaitNs) as f64;
    let barrier_share = (barrier_ns / 1e9 / (secs * threads as f64)).min(1.0);

    let indexed_bytes =
        (snap.get(Counter::GatherElems) + snap.get(Counter::ScatterElems)) as f64 * 8.0;
    let indexed_share = if bytes > 0.0 {
        (indexed_bytes / bytes).min(1.0)
    } else {
        0.0
    };

    let (peak, bw) = roofline_ceilings(m, threads);
    let ridge = if bw > 0.0 { peak / bw } else { f64::INFINITY };
    let memory_bound = arithmetic_intensity < ridge;
    let attainable = if arithmetic_intensity.is_infinite() {
        peak
    } else {
        (arithmetic_intensity * bw).min(peak)
    };
    let achieved_frac = if attainable > 0.0 {
        (model_gflops / attainable).min(1.0)
    } else {
        0.0
    };
    let roofline = Roofline {
        peak_gflops: peak,
        mem_bw_gbs: bw,
        ridge_ai: ridge,
        attainable_gflops: attainable,
        achieved_frac,
        memory_bound,
    };

    // --- attribution: fixed scores, winner takes the label ---
    let ai_depth = if memory_bound && ridge.is_finite() && ridge > 0.0 && bytes > 0.0 {
        1.0 - (arithmetic_intensity / ridge).min(1.0)
    } else {
        0.0
    };
    let fla_imbalance = if fla + flb > 0.0 && fla > flb {
        (fla - flb) / (fla + flb)
    } else {
        0.0
    };
    let lane_waste = if sve_instrs > 0.0 {
        1.0 - lane_utilization
    } else {
        0.0
    };

    let scores = [
        (Bottleneck::MemoryBandwidth, ai_depth),
        (Bottleneck::FexpaThroughput, fexpa_share_fla),
        (Bottleneck::FlaPortImbalance, fla_imbalance),
        (Bottleneck::LaneUtilization, lane_waste),
        (Bottleneck::BarrierWait, barrier_share),
        (Bottleneck::ScatterGather, indexed_share),
    ];
    let (mut bottleneck, mut bottleneck_score) = (Bottleneck::Balanced, 0.0);
    for (b, s) in scores {
        if s >= ATTRIBUTION_THRESHOLD && s > bottleneck_score {
            bottleneck = b;
            bottleneck_score = s;
        }
    }

    Derived {
        model_gflops,
        model_gbs,
        arithmetic_intensity,
        lane_utilization,
        fexpa_per_s,
        fexpa_share_fla,
        port_share,
        barrier_share,
        indexed_share,
        roofline,
        bottleneck,
        bottleneck_score,
        wall_seconds: secs,
    }
}

/// Parse a validated `ookami-bench-v1` document and derive one row per
/// span carrying counters, plus a `"(total)"` row from the root counters
/// normalized over the summed top-level span time. Returns
/// `(path, Derived)` rows in document order.
pub fn derive_bench_doc(
    doc: &Json,
    m: &Machine,
    threads: usize,
) -> Result<Vec<(String, Derived)>, String> {
    let spans = match doc.get("spans") {
        Some(Json::Arr(a)) => a.as_slice(),
        _ => &[],
    };
    let mut rows = Vec::new();
    let mut top_level_ns = 0u64;
    for s in spans {
        let path = match s.get("path") {
            Some(Json::Str(p)) => p.clone(),
            _ => return Err("span missing string `path`".to_string()),
        };
        let total_ns = match s.get("total_ns") {
            Some(Json::Num(n)) if *n >= 0.0 => *n as u64,
            _ => return Err(format!("span `{path}` missing numeric `total_ns`")),
        };
        if !path.contains('/') {
            top_level_ns += total_ns;
        }
        let counters = match s.get("counters") {
            Some(c) => super::snapshot_from_json(c),
            None => Snapshot::zero(),
        };
        if counters.is_zero() {
            continue; // spans without counters have nothing to derive
        }
        rows.push((path, derive(&counters, total_ns as f64 / 1e9, m, threads)));
    }
    if let Some(root) = doc.get("counters") {
        let snap = super::snapshot_from_json(root);
        if !snap.is_zero() && top_level_ns > 0 {
            rows.push((
                "(total)".to_string(),
                derive(&snap, top_level_ns as f64 / 1e9, m, threads),
            ));
        }
    }
    Ok(rows)
}

fn fmt_ai(ai: f64) -> String {
    if ai.is_infinite() {
        "inf".to_string()
    } else {
        format!("{ai:.3}")
    }
}

/// Render derived rows as the fixed-width roofline/bottleneck table
/// `report --derive` prints.
pub fn render_table(rows: &[(String, Derived)], m: &Machine, threads: usize) -> String {
    use std::fmt::Write as _;
    let (peak, bw) = roofline_ceilings(m, threads);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "roofline: machine {} · {} thread(s) · peak {:.1} GF/s · bw {:.1} GB/s · ridge {:.3} F/B",
        m.name,
        threads,
        peak,
        bw,
        if bw > 0.0 { peak / bw } else { f64::INFINITY }
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>8} {:>7} {:>12} {:>6} {:>8}  bottleneck",
        "span", "GF/s", "GB/s", "AI", "lanes", "fexpa/s", "bound", "of-roof"
    );
    for (path, d) in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>10.4} {:>10.4} {:>8} {:>6.1}% {:>12.3e} {:>6} {:>7.1}%  {}",
            path,
            d.model_gflops,
            d.model_gbs,
            fmt_ai(d.arithmetic_intensity),
            d.lane_utilization * 100.0,
            d.fexpa_per_s,
            if d.roofline.memory_bound {
                "mem"
            } else {
                "comp"
            },
            d.roofline.achieved_frac * 100.0,
            d.bottleneck.name(),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// ECM (execution-cache-memory) model — Alappat/Hager/Wellein, arXiv
// 2103.03013 / 2009.13903, the two papers that extend this machine model
// to irregular kernels. Where the roofline asks "which single ceiling am
// I under", ECM *composes* the time one cache line of results costs from
// an in-core term and per-link transfer terms:
//
// ```text
// T_L1L2 = lines_L1↔L2 × line_bytes / l1_l2_bytes_per_cycle
// T_L2Mem = lines_L2↔Mem × line_bytes / (single-core mem B/cy)
// T_data = T_L1L2 + T_L2Mem          (A64FX: no overlap between links)
// T_CL   = max(T_core, T_data)       (in-core overlaps with transfers)
// ```
//
// The no-overlap-between-links assumption is the published A64FX finding
// (the single-ported L1 serializes the traffic); `T_core` still overlaps
// because the core computes on data already in registers while the next
// line streams. Multicore scaling inside one CMG is linear until the
// domain bandwidth saturates at `n_sat` cores.
//
// Everything is per **cache line of result elements** (`line_bytes / 8`
// f64 elements), the papers' unit of account. `T_core` comes from the
// deterministic port analyzer (`ookami_uarch::analyze_cached`), the line
// volumes from the cache simulator (`ookami_mem::CacheSim` +
// `AccessStats::{l1_l2_lines, l2_mem_lines}`), so the whole model is
// reproducible without wall-clock input — it coexists with the roofline
// attribution rather than replacing it.
// ---------------------------------------------------------------------------

/// ECM model inputs, normalized per cache line of result data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcmInput {
    /// In-core execution cycles per result cache line (port model).
    pub t_core: f64,
    /// Cache lines crossing L1↔L2 per result cache line.
    pub l1_l2_lines: f64,
    /// Cache lines crossing L2↔memory per result cache line.
    pub l2_mem_lines: f64,
}

/// The composed ECM prediction for one kernel on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcmModel {
    pub t_core: f64,
    pub t_l1l2: f64,
    pub t_l2mem: f64,
    /// `t_l1l2 + t_l2mem` — serialized transfer time.
    pub t_data: f64,
    /// `max(t_core, t_data)` — predicted cycles per result cache line.
    pub t_cl: f64,
    /// True when the data terms dominate: the kernel cannot go faster
    /// without moving fewer bytes.
    pub bandwidth_bound: bool,
    /// Cores of one NUMA domain needed to saturate its memory bandwidth
    /// (`≥ domain size` means the kernel never saturates it).
    pub n_sat: usize,
    /// Predicted single-core result cache lines per second.
    pub cl_per_s_1c: f64,
    /// Domain-bandwidth ceiling on cache lines per second
    /// (`f64::INFINITY` for in-cache kernels with no memory traffic).
    pub cl_per_s_bw_cap: f64,
}

impl EcmModel {
    /// The attribution string BENCH documents carry (coexists with the
    /// roofline's `Bottleneck` vocabulary; deliberately distinct names).
    pub fn bound_name(&self) -> &'static str {
        if self.bandwidth_bound {
            "bandwidth_bound"
        } else {
            "core_bound"
        }
    }

    /// Predicted result cache lines per second at `cores` of one domain:
    /// linear in cores until the domain bandwidth cap.
    pub fn cl_per_s(&self, cores: usize) -> f64 {
        (cores as f64 * self.cl_per_s_1c).min(self.cl_per_s_bw_cap)
    }
}

/// Compose the ECM model for one kernel (see the module commentary on
/// units). Deterministic in all inputs.
pub fn ecm(m: &Machine, inp: &EcmInput) -> EcmModel {
    let lb = m.mem.line_bytes as f64;
    let ghz = m.base_ghz;
    let t_l1l2 = inp.l1_l2_lines * lb / m.mem.l1_l2_bytes_per_cycle;
    // Single-core draw on the domain's memory: GB/s ÷ Gcy/s = bytes/cy.
    let mem_bcy_1c = m.numa.bw_per_domain_gbs * m.numa.single_core_bw_fraction / ghz;
    let t_l2mem = inp.l2_mem_lines * lb / mem_bcy_1c;
    let t_data = t_l1l2 + t_l2mem;
    let t_cl = inp.t_core.max(t_data);
    // Full-domain memory time per result line decides saturation: core
    // count where `n × (1/T_CL)` meets the bandwidth roof.
    let mem_bcy_domain = m.numa.bw_per_domain_gbs / ghz;
    let t_mem_full = inp.l2_mem_lines * lb / mem_bcy_domain;
    let n_sat = if t_mem_full > 0.0 {
        (t_cl / t_mem_full).ceil() as usize
    } else {
        m.numa.cores_per_domain
    };
    let cl_per_s_1c = ghz * 1e9 / t_cl;
    let cl_per_s_bw_cap = if inp.l2_mem_lines > 0.0 {
        m.numa.bw_per_domain_gbs * 1e9 / (inp.l2_mem_lines * lb)
    } else {
        f64::INFINITY
    };
    EcmModel {
        t_core: inp.t_core,
        t_l1l2,
        t_l2mem,
        t_data,
        t_cl,
        bandwidth_bound: t_data >= inp.t_core,
        n_sat,
        cl_per_s_1c,
        cl_per_s_bw_cap,
    }
}

/// Render ECM rows as the fixed-width per-family table the `spmv` probe
/// prints and the golden tests snapshot. All columns are model-derived,
/// so the rendering is bit-stable across runs.
pub fn render_ecm_table(rows: &[(String, EcmModel)], m: &Machine) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ecm: machine {} · {:.0} B lines · L1↔L2 {:.0} B/cy · mem {:.1} GB/s/domain (1c ×{:.2})",
        m.name,
        m.mem.line_bytes as f64,
        m.mem.l1_l2_bytes_per_cycle,
        m.numa.bw_per_domain_gbs,
        m.numa.single_core_bw_fraction,
    );
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>12}  bound",
        "family", "T_core", "T_L1L2", "T_L2Mem", "T_data", "T_CL", "n_sat", "CL/s(1c)"
    );
    for (name, e) in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>6} {:>12.4e}  {}",
            name,
            e.t_core,
            e.t_l1l2,
            e.t_l2mem,
            e.t_data,
            e.t_cl,
            e.n_sat,
            e.cl_per_s_1c,
            e.bound_name(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_uarch::machines;

    fn snap_with(pairs: &[(Counter, u64)]) -> Snapshot {
        let mut s = Snapshot::zero();
        for &(c, v) in pairs {
            s.set(c, v);
        }
        s
    }

    #[test]
    fn roofline_ceilings_match_paper_arithmetic() {
        let m = machines::a64fx();
        let (peak1, bw1) = roofline_ceilings(m, 1);
        assert!((peak1 - 57.6).abs() < 1e-9, "A64FX §II peak: {peak1}");
        // One core draws single_core_bw_fraction of its CMG.
        let expect_bw1 = m.numa.bw_per_domain_gbs * m.numa.single_core_bw_fraction;
        assert!((bw1 - expect_bw1).abs() < 1e-9);
        // A full CMG saturates its HBM stack.
        let (_, bw12) = roofline_ceilings(m, m.numa.cores_per_domain);
        assert!(bw12 <= m.numa.bw_per_domain_gbs + 1e-9);
        // Peak scales linearly with threads.
        let (peak4, _) = roofline_ceilings(m, 4);
        assert!((peak4 - 4.0 * peak1).abs() < 1e-9);
    }

    #[test]
    fn stream_like_span_is_memory_bound() {
        let m = machines::a64fx();
        // Triad: 2 flops per 24 bytes → AI ≈ 0.083, far left of any ridge.
        let s = snap_with(&[
            (Counter::FlopsModel, 2_000_000),
            (Counter::BytesLoaded, 16_000_000),
            (Counter::BytesStored, 8_000_000),
            (Counter::SveInstrs, 1_000),
            (Counter::SveLanesActive, 8_000),
        ]);
        let d = derive(&s, 0.01, m, 1);
        assert!(d.roofline.memory_bound);
        assert_eq!(d.bottleneck, Bottleneck::MemoryBandwidth);
        assert!((d.arithmetic_intensity - 2.0 / 24.0).abs() < 1e-12);
        assert!((d.lane_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fexpa_heavy_span_attributes_to_fexpa() {
        let m = machines::a64fx();
        // §IV exp: every FLA issue is FEXPA-adjacent, high AI.
        let s = snap_with(&[
            (Counter::FlopsModel, 80_000_000),
            (Counter::BytesLoaded, 800_000),
            (Counter::PortFla, 1_000_000),
            (Counter::PortFlb, 900_000),
            (Counter::FexpaIssues, 600_000),
            (Counter::SveInstrs, 2_000_000),
            (Counter::SveLanesActive, 16_000_000),
        ]);
        let d = derive(&s, 0.01, m, 1);
        assert!(!d.roofline.memory_bound, "AI = {}", d.arithmetic_intensity);
        assert_eq!(d.bottleneck, Bottleneck::FexpaThroughput);
        assert!((d.fexpa_share_fla - 0.6).abs() < 1e-12);
    }

    #[test]
    fn barrier_heavy_span_attributes_to_barrier() {
        let m = machines::a64fx();
        // 4 threads, 10 ms wall, 30 ms cumulative barrier wait = 75%.
        let s = snap_with(&[
            (Counter::FlopsModel, 8_000_000),
            (Counter::BytesLoaded, 8_000),
            (Counter::BarrierWaitNs, 30_000_000),
        ]);
        let d = derive(&s, 0.01, m, 4);
        assert_eq!(d.bottleneck, Bottleneck::BarrierWait);
        assert!((d.barrier_share - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_balanced() {
        let m = machines::a64fx();
        let d = derive(&Snapshot::zero(), 1.0, m, 1);
        assert_eq!(d.bottleneck, Bottleneck::Balanced);
        assert_eq!(d.model_gflops, 0.0);
        assert_eq!(d.arithmetic_intensity, 0.0);
        assert_eq!(d.lane_utilization, 0.0);
    }

    #[test]
    fn derive_is_deterministic_bitwise() {
        let m = machines::a64fx();
        let s = snap_with(&[
            (Counter::FlopsModel, 123_456_789),
            (Counter::BytesLoaded, 98_765_432),
            (Counter::BytesStored, 12_345),
            (Counter::SveInstrs, 55_555),
            (Counter::SveLanesActive, 333_333),
            (Counter::PortFla, 44_444),
            (Counter::PortFlb, 22_222),
            (Counter::FexpaIssues, 11_111),
        ]);
        let a = derive(&s, 0.0375, m, 4);
        let b = derive(&s, 0.0375, m, 4);
        assert_eq!(a.model_gflops.to_bits(), b.model_gflops.to_bits());
        assert_eq!(a.model_gbs.to_bits(), b.model_gbs.to_bits());
        assert_eq!(
            a.arithmetic_intensity.to_bits(),
            b.arithmetic_intensity.to_bits()
        );
        assert_eq!(a.lane_utilization.to_bits(), b.lane_utilization.to_bits());
        assert_eq!(a, b);
    }

    #[test]
    fn bench_doc_rows_cover_spans_and_total() {
        let m = machines::a64fx();
        let doc = Json::parse(
            r#"{
              "schema": "ookami-bench-v1",
              "counters": {"model_flops": 1000, "bytes_loaded": 100},
              "spans": [
                {"path": "loops", "count": 1, "total_ns": 1000000,
                 "counters": {"model_flops": 600, "bytes_loaded": 60}},
                {"path": "loops/inner", "count": 2, "total_ns": 400000,
                 "counters": {"model_flops": 400, "bytes_loaded": 40}},
                {"path": "bare", "count": 1, "total_ns": 250000}
              ]
            }"#,
        )
        .unwrap();
        let rows = derive_bench_doc(&doc, m, 1).unwrap();
        let paths: Vec<&str> = rows.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["loops", "loops/inner", "(total)"]);
        // (total) normalizes over top-level span time only (1.25 ms).
        let total = &rows[2].1;
        assert!((total.wall_seconds - 0.00125).abs() < 1e-12);
        let table = render_table(&rows, m, 1);
        assert!(table.contains("loops/inner"));
        assert!(table.contains("bottleneck"));
    }

    #[test]
    fn ecm_streaming_kernel_is_bandwidth_bound() {
        let m = machines::a64fx();
        // STREAM-triad-like volumes: ~3 lines in/out per result line,
        // trivial in-core work.
        let inp = EcmInput {
            t_core: 8.0,
            l1_l2_lines: 3.0,
            l2_mem_lines: 3.0,
        };
        let e = ecm(m, &inp);
        assert!(e.bandwidth_bound);
        assert_eq!(e.bound_name(), "bandwidth_bound");
        // T_L1L2 = 3·256/64 = 12 cycles exactly.
        assert!((e.t_l1l2 - 12.0).abs() < 1e-12);
        // Serialized transfers: T_data = T_L1L2 + T_L2Mem, T_CL = T_data.
        assert!((e.t_data - (e.t_l1l2 + e.t_l2mem)).abs() < 1e-12);
        assert_eq!(e.t_cl.to_bits(), e.t_data.to_bits());
        // A single A64FX core draws 20% of its CMG: saturation needs a
        // handful of cores but fewer than the full CMG.
        assert!(e.n_sat > 1 && e.n_sat <= m.numa.cores_per_domain);
    }

    #[test]
    fn ecm_compute_kernel_is_core_bound_and_scales() {
        let m = machines::a64fx();
        let inp = EcmInput {
            t_core: 400.0,
            l1_l2_lines: 1.0,
            l2_mem_lines: 0.25,
        };
        let e = ecm(m, &inp);
        assert!(!e.bandwidth_bound);
        assert_eq!(e.bound_name(), "core_bound");
        assert_eq!(e.t_cl.to_bits(), 400.0f64.to_bits());
        // Linear scaling region: 4 cores = 4× one core.
        assert!((e.cl_per_s(4) - 4.0 * e.cl_per_s_1c).abs() < 1e-3);
        // The cap binds eventually.
        assert!(e.cl_per_s(10_000) <= e.cl_per_s_bw_cap);
    }

    #[test]
    fn ecm_in_cache_kernel_never_saturates_memory() {
        let m = machines::a64fx();
        let inp = EcmInput {
            t_core: 16.0,
            l1_l2_lines: 2.0,
            l2_mem_lines: 0.0,
        };
        let e = ecm(m, &inp);
        assert_eq!(e.t_l2mem, 0.0);
        assert_eq!(e.n_sat, m.numa.cores_per_domain);
        assert!(e.cl_per_s_bw_cap.is_infinite());
    }

    #[test]
    fn ecm_table_renders_every_family_row() {
        let m = machines::a64fx();
        let rows = vec![
            (
                "spmv_crs".to_string(),
                ecm(
                    m,
                    &EcmInput {
                        t_core: 30.0,
                        l1_l2_lines: 6.0,
                        l2_mem_lines: 6.0,
                    },
                ),
            ),
            (
                "stream_copy".to_string(),
                ecm(
                    m,
                    &EcmInput {
                        t_core: 4.0,
                        l1_l2_lines: 2.0,
                        l2_mem_lines: 2.0,
                    },
                ),
            ),
        ];
        let t = render_ecm_table(&rows, m);
        assert!(t.contains("spmv_crs"));
        assert!(t.contains("stream_copy"));
        assert!(t.contains("bandwidth_bound"));
        assert!(t.contains("T_L1L2"));
        // Deterministic rendering.
        assert_eq!(t, render_ecm_table(&rows, m));
    }
}
