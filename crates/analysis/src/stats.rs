//! Monte-Carlo aggregation for the experiment harness.

/// Summary statistics of a sample (Table I cells are means over 800 runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (0 for n < 2).
    pub variance: f64,
    /// Smallest sample (+∞ when empty).
    pub min: f64,
    /// Largest sample (−∞ when empty).
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`.
    pub fn from_samples(samples: &[f64]) -> Summary {
        let n = samples.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: 0.0,
                variance: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let variance = if n >= 2 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            variance,
            min,
            max,
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Normal-approximation 95% confidence half-width for the mean.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_err()
    }
}

/// Linear-interpolation percentile of a sample (`q` in `[0, 1]`).
///
/// # Panics
/// If `samples` is empty or `q` is outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        let w = pos - lo as f64;
        xs[lo] * (1.0 - w) + xs[hi] * w
    }
}

/// Welford online accumulator — lets the parallel harness merge partial
/// results without storing every sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accumulator {
    n: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finalises into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: if self.n == 0 { 0.0 } else { self.mean },
            variance: if self.n >= 2 {
                self.m2 / (self.n - 1) as f64
            } else {
                0.0
            },
            min: self.min,
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_err() - s.std_dev() / 2.0).abs() < 1e-12);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn empty_and_singleton() {
        let e = Summary::from_samples(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.mean, 0.0);
        assert_eq!(e.std_err(), 0.0);
        let s = Summary::from_samples(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn accumulator_matches_batch() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 17) as f64 / 3.0).collect();
        let batch = Summary::from_samples(&xs);
        let mut acc = Accumulator::new();
        for &x in &xs {
            acc.push(x);
        }
        let s = acc.summary();
        assert_eq!(s.n, batch.n);
        assert!((s.mean - batch.mean).abs() < 1e-12);
        assert!((s.variance - batch.variance).abs() < 1e-10);
        assert_eq!(s.min, batch.min);
        assert_eq!(s.max, batch.max);
    }

    #[test]
    fn percentiles() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert!((percentile(&xs, 0.25) - 2.0).abs() < 1e-12);
        assert!((percentile(&xs, 0.125) - 1.5).abs() < 1e-12); // interpolated
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_bad_quantile_panics() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn merge_matches_batch() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let (a, b) = xs.split_at(20);
        let mut acc_a = Accumulator::new();
        let mut acc_b = Accumulator::new();
        a.iter().for_each(|&x| acc_a.push(x));
        b.iter().for_each(|&x| acc_b.push(x));
        acc_a.merge(&acc_b);
        let merged = acc_a.summary();
        let batch = Summary::from_samples(&xs);
        assert_eq!(merged.n, batch.n);
        assert!((merged.mean - batch.mean).abs() < 1e-12);
        assert!((merged.variance - batch.variance).abs() < 1e-10);
        // Merging with empty is a no-op both ways.
        let mut empty = Accumulator::new();
        empty.merge(&acc_a);
        assert_eq!(empty.summary().n, merged.n);
        let mut acc2 = acc_a;
        acc2.merge(&Accumulator::new());
        assert_eq!(acc2.summary().n, merged.n);
    }
}
