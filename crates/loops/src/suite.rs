//! Native implementations of the Section III loops.
//!
//! The paper's protocol: working vectors sized to collectively fill the L1
//! cache; the gather/scatter index vector is a random permutation of the
//! whole index space; the *short* variants permute only within 128-byte
//! windows (16 doubles).

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Doubles per 128-byte window (the A64FX gather-pairing granule).
pub const WINDOW_DOUBLES: usize = 16;

/// Working vectors for the loop suite.
#[derive(Debug, Clone)]
pub struct LoopSuite {
    pub n: usize,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    /// Random permutation of `0..n`.
    pub index_full: Vec<usize>,
    /// Permutation of `0..n` that only shuffles within 16-double windows.
    pub index_short: Vec<usize>,
}

impl LoopSuite {
    /// Build a suite with `n` elements (default sizing: see [`LoopSuite::for_l1`]).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= WINDOW_DOUBLES && n.is_multiple_of(WINDOW_DOUBLES));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
        let y = vec![0.0; n];
        let mut index_full: Vec<usize> = (0..n).collect();
        index_full.shuffle(&mut rng);
        let mut index_short: Vec<usize> = (0..n).collect();
        for w in index_short.chunks_mut(WINDOW_DOUBLES) {
            w.shuffle(&mut rng);
        }
        LoopSuite {
            n,
            x,
            y,
            index_full,
            index_short,
        }
    }

    /// Size the three working vectors (x, y, index) to collectively fill an
    /// L1 of `l1_bytes` (the paper's protocol): n ≈ l1/24 rounded to a
    /// window multiple.
    pub fn for_l1(l1_bytes: usize, seed: u64) -> Self {
        let n = (l1_bytes / 24 / WINDOW_DOUBLES).max(1) * WINDOW_DOUBLES;
        Self::new(n, seed)
    }

    /// `y[i] = 2x[i] + 3x[i]²`
    pub fn run_simple(&mut self) {
        for i in 0..self.n {
            let xi = self.x[i];
            self.y[i] = 2.0 * xi + 3.0 * xi * xi;
        }
    }

    /// `if x[i] > 0 { y[i] = x[i] }`
    pub fn run_predicate(&mut self) {
        for i in 0..self.n {
            if self.x[i] > 0.0 {
                self.y[i] = self.x[i];
            }
        }
    }

    /// `y[i] = x[index[i]]`
    pub fn run_gather(&mut self, short: bool) {
        let idx = if short {
            &self.index_short
        } else {
            &self.index_full
        };
        for i in 0..self.n {
            self.y[i] = self.x[idx[i]];
        }
    }

    /// `y[index[i]] = x[i]`
    pub fn run_scatter(&mut self, short: bool) {
        let idx = if short {
            &self.index_short
        } else {
            &self.index_full
        };
        for i in 0..self.n {
            self.y[idx[i]] = self.x[i];
        }
    }

    /// Total working-set bytes (x + y + index).
    pub fn working_set_bytes(&self) -> usize {
        self.n * (8 + 8 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_fills_l1() {
        let s = LoopSuite::for_l1(64 * 1024, 1); // A64FX L1
        let ws = s.working_set_bytes();
        assert!(ws <= 64 * 1024, "{ws}");
        assert!(ws >= 60 * 1024, "{ws}");
    }

    #[test]
    fn indices_are_permutations() {
        let s = LoopSuite::new(4096, 2);
        for idx in [&s.index_full, &s.index_short] {
            let mut seen = vec![false; s.n];
            for &i in idx {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
    }

    #[test]
    fn short_index_stays_in_window() {
        let s = LoopSuite::new(4096, 3);
        for (i, &j) in s.index_short.iter().enumerate() {
            assert_eq!(i / WINDOW_DOUBLES, j / WINDOW_DOUBLES, "i={i} j={j}");
        }
    }

    #[test]
    fn simple_matches_formula() {
        let mut s = LoopSuite::new(256, 4);
        s.run_simple();
        for i in 0..s.n {
            let xi = s.x[i];
            assert_eq!(s.y[i], 2.0 * xi + 3.0 * xi * xi);
        }
    }

    #[test]
    fn predicate_only_writes_positive() {
        let mut s = LoopSuite::new(256, 5);
        s.x[3] = -1.0;
        s.x[7] = 0.0;
        s.y.iter_mut().for_each(|y| *y = -99.0);
        s.run_predicate();
        assert_eq!(s.y[3], -99.0);
        assert_eq!(s.y[7], -99.0);
        assert_eq!(s.y[0], s.x[0]);
    }

    #[test]
    fn scatter_then_gather_is_identity() {
        // y[p[i]] = x[i]; then z[i] = y[p[i]] == x[i].
        let mut s = LoopSuite::new(1024, 6);
        s.run_scatter(false);
        let scattered = s.y.clone();
        for i in 0..s.n {
            assert_eq!(scattered[s.index_full[i]], s.x[i]);
        }
        s.y = scattered;
        // gather back through the same permutation
        let z: Vec<f64> = (0..s.n).map(|i| s.y[s.index_full[i]]).collect();
        assert_eq!(z, s.x);
    }

    proptest::proptest! {
        #[test]
        fn gather_is_permutation_of_x(seed in 0u64..1000) {
            let mut s = LoopSuite::new(256, seed);
            s.run_gather(true);
            let mut xs = s.x.clone();
            let mut ys = s.y.clone();
            xs.sort_by(f64::total_cmp);
            ys.sort_by(f64::total_cmp);
            prop_assert_eq!(xs, ys);
        }
    }
    use proptest::prelude::prop_assert_eq;
}
