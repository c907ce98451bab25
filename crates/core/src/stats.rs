//! Summary statistics — the paper's plots carry standard-deviation error
//! bars ("The error bars are the standard deviation of measurements").

/// Running summary of a sample set.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    samples: Vec<f64>,
}

impl Stats {
    pub fn new() -> Self {
        Stats::default()
    }

    pub fn from_slice(xs: &[f64]) -> Self {
        Stats {
            samples: xs.to_vec(),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation (n-1 denominator; 0 for n ≤ 1).
    pub fn stddev(&self) -> f64 {
        let n = self.samples.len();
        if n <= 1 {
            return 0.0;
        }
        let m = self.mean();
        let ss: f64 = self.samples.iter().map(|x| (x - m) * (x - m)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    pub fn median(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = s.len();
        if n % 2 == 1 {
            s[n / 2]
        } else {
            0.5 * (s[n / 2 - 1] + s[n / 2])
        }
    }

    /// Median absolute deviation from the median (unscaled): the spread
    /// reported beside a median, robust to the odd slow sample.
    pub fn mad(&self) -> f64 {
        let m = self.median();
        Stats::from_slice(
            &self
                .samples
                .iter()
                .map(|x| (x - m).abs())
                .collect::<Vec<_>>(),
        )
        .median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Stats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // sample stddev of this classic set is sqrt(32/7)
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.median(), 4.5);
        // |x - 4.5| = 2.5, 0.5 ×5, 2.5, 4.5 -> median 0.5.
        assert_eq!(s.mad(), 0.5);
    }

    #[test]
    fn degenerate_cases() {
        let empty = Stats::new();
        assert!(empty.mean().is_nan());
        assert_eq!(empty.stddev(), 0.0);
        let one = Stats::from_slice(&[3.0]);
        assert_eq!(one.mean(), 3.0);
        assert_eq!(one.stddev(), 0.0);
        assert_eq!(one.median(), 3.0);
        assert_eq!(one.mad(), 0.0);
        assert!(empty.mad().is_nan());
    }

    #[test]
    fn odd_median() {
        let s = Stats::from_slice(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median(), 3.0);
    }
}
