//! Index-pattern analysis for gather/scatter instructions.
//!
//! Section III of the paper constructs two kinds of index vectors:
//!
//! * **full** — a random permutation of the whole index space;
//! * **short** — a random permutation *within 128-byte windows* (16
//!   doubles), designed to exercise the A64FX optimization where "loads of
//!   pairs of elements of a gather operation \[that\] fit within an aligned
//!   128-byte window … are not split, resulting in a 2-fold speed up".
//!
//! [`analyze_indices`] reproduces the hardware's grouping rule: SVE gathers
//! process elements in order, two at a time; a pair is coalesced when both
//! elements fall in the same aligned window. It also counts distinct cache
//! lines per vector, which the x86 gather cost model consumes.

use ookami_uarch::{GatherSpec, Width};

/// Result of analyzing one `Width`-wide gather/scatter's index vector
/// against one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexPattern {
    /// Number of element groups after pairing (== lanes when no pairing).
    pub groups: usize,
    /// Distinct cache lines touched by one vector's worth of accesses.
    pub distinct_lines: usize,
    /// Micro-ops a gather of this pattern cracks into.
    pub uops: usize,
    /// Lanes per vector.
    pub lanes: usize,
}

/// Analyze one vector's worth of indices.
///
/// * `indices` — the element indices accessed by consecutive lanes
///   (length = `width.lanes_f64()` for a full vector; shorter tails allowed);
/// * `elem_bytes` — element size (8 for `f64`);
/// * `line_bytes` — the machine's cache-line size;
/// * `spec` — the machine's [`GatherSpec`] (pairing window, if any).
pub fn analyze_indices(
    indices: &[usize],
    elem_bytes: usize,
    line_bytes: usize,
    spec: &GatherSpec,
    width: Width,
) -> IndexPattern {
    let lanes = indices.len().min(width.lanes_f64());
    let idx = &indices[..lanes];

    // Distinct lines (order-independent).
    let mut lines: Vec<usize> = idx.iter().map(|&i| i * elem_bytes / line_bytes).collect();
    lines.sort_unstable();
    lines.dedup();
    let distinct_lines = lines.len();

    // Pairing: hardware examines lanes two at a time, in lane order.
    let groups = match spec.pair_window_bytes {
        None => lanes,
        Some(window) => {
            let mut g = 0;
            let mut lane = 0;
            while lane < lanes {
                if lane + 1 < lanes {
                    let w0 = idx[lane] * elem_bytes / window;
                    let w1 = idx[lane + 1] * elem_bytes / window;
                    if w0 == w1 {
                        g += 1;
                        lane += 2;
                        continue;
                    }
                }
                g += 1;
                lane += 1;
            }
            g
        }
    };

    IndexPattern {
        groups,
        distinct_lines,
        uops: groups,
        lanes,
    }
}

/// Analyze a whole index array as successive vectors and return the mean
/// pattern (used by the loop suite, whose arrays hold thousands of lanes).
pub fn analyze_array(
    indices: &[usize],
    elem_bytes: usize,
    line_bytes: usize,
    spec: &GatherSpec,
    width: Width,
) -> MeanPattern {
    let lanes = width.lanes_f64();
    let mut groups = 0usize;
    let mut lines = 0usize;
    let mut vectors = 0usize;
    for chunk in indices.chunks(lanes) {
        let p = analyze_indices(chunk, elem_bytes, line_bytes, spec, width);
        groups += p.groups;
        lines += p.distinct_lines;
        vectors += 1;
    }
    MeanPattern {
        mean_groups: groups as f64 / vectors.max(1) as f64,
        mean_lines: lines as f64 / vectors.max(1) as f64,
        vectors,
        lanes,
    }
}

/// Average grouping behaviour across many vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanPattern {
    pub mean_groups: f64,
    pub mean_lines: f64,
    pub vectors: usize,
    pub lanes: usize,
}

impl MeanPattern {
    pub fn gather_cycles_per_vector(&self, g: &GatherSpec) -> f64 {
        g.gather_cycles_per_group * self.mean_groups + g.gather_line_cycles * self.mean_lines
    }

    pub fn scatter_cycles_per_vector(&self, g: &GatherSpec) -> f64 {
        g.scatter_cycles_per_elem * self.lanes as f64 + g.scatter_line_cycles * self.mean_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_uarch::machines;

    fn a64fx_gs() -> GatherSpec {
        machines::a64fx().gather
    }

    fn skx_gs() -> GatherSpec {
        machines::skylake_6140().gather
    }

    #[test]
    fn contiguous_indices_pair_perfectly_on_a64fx() {
        let idx: Vec<usize> = (0..8).collect();
        let p = analyze_indices(&idx, 8, 256, &a64fx_gs(), Width::V512);
        // lanes (0,1) (2,3) … all pair within 128-byte windows.
        assert_eq!(p.groups, 4);
        assert_eq!(p.lanes, 8);
        assert_eq!(p.distinct_lines, 1); // 8 doubles in one 256-B line
    }

    #[test]
    fn strided_indices_never_pair() {
        // Stride 16 doubles = 128 bytes: each lane in its own window.
        let idx: Vec<usize> = (0..8).map(|i| i * 16).collect();
        let p = analyze_indices(&idx, 8, 256, &a64fx_gs(), Width::V512);
        assert_eq!(p.groups, 8);
    }

    #[test]
    fn skx_never_pairs() {
        let idx: Vec<usize> = (0..8).collect();
        let p = analyze_indices(&idx, 8, 64, &skx_gs(), Width::V512);
        assert_eq!(p.groups, 8);
        assert_eq!(p.distinct_lines, 1);
    }

    #[test]
    fn short_window_permutation_pairs_about_half() {
        // Random permutation within 16-double windows: consecutive lanes are
        // usually in the same window (lane pairs are both drawn from the
        // same 16-element window except at window boundaries).
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let n = 4096;
        let mut idx: Vec<usize> = (0..n).collect();
        for w in idx.chunks_mut(16) {
            w.shuffle(&mut rng);
        }
        let m = analyze_array(&idx, 8, 256, &a64fx_gs(), Width::V512);
        // Every pair of lanes lies inside one 16-double window => 4 groups.
        assert!(m.mean_groups <= 4.5, "mean groups {}", m.mean_groups);
        // A full random permutation almost never pairs.
        let mut full: Vec<usize> = (0..n).collect();
        full.shuffle(&mut rng);
        let f = analyze_array(&full, 8, 256, &a64fx_gs(), Width::V512);
        assert!(f.mean_groups > 7.5, "mean groups {}", f.mean_groups);
    }

    #[test]
    fn paper_ratio_short_gather_speedup_is_about_2x() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let n = 8192;
        let mut short: Vec<usize> = (0..n).collect();
        for w in short.chunks_mut(16) {
            w.shuffle(&mut rng);
        }
        let mut full: Vec<usize> = (0..n).collect();
        full.shuffle(&mut rng);
        let g = a64fx_gs();
        let cs = analyze_array(&short, 8, 256, &g, Width::V512).gather_cycles_per_vector(&g);
        let cf = analyze_array(&full, 8, 256, &g, Width::V512).gather_cycles_per_vector(&g);
        let speedup = cf / cs;
        assert!(speedup > 1.7 && speedup < 2.2, "speedup {speedup}");
    }

    #[test]
    fn scatter_gets_no_pairing_benefit_on_a64fx() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let n = 4096;
        let mut short: Vec<usize> = (0..n).collect();
        for w in short.chunks_mut(16) {
            w.shuffle(&mut rng);
        }
        let g = a64fx_gs();
        let m = analyze_array(&short, 8, 256, &g, Width::V512);
        // scatter cost counts lanes, not groups
        assert_eq!(m.scatter_cycles_per_vector(&g), 8.0);
    }

    #[test]
    fn tail_vector_shorter_than_width() {
        let idx = [5usize, 6, 7];
        let p = analyze_indices(&idx, 8, 256, &a64fx_gs(), Width::V512);
        assert_eq!(p.lanes, 3);
        assert!(p.groups <= 3);
    }
}
