//! Percentiles from raw samples. Every quantile here is read off the
//! sorted samples themselves (nearest rank), so it always lies within
//! the observed [min, max].

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` once.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q` quantile (`0 < q <= 1`), or 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        match rank(self.sorted.len(), q) {
            Some(r) => self.sorted[r],
            None => 0.0,
        }
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The highest of p99.9, p99, p90 and p50 that has at least ten
    /// samples above its rank, as `(label, value)`; `None` when even
    /// the median has fewer than ten beyond it.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.sorted.len();
        [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.5, "p50")]
            .into_iter()
            .find(|&(q, _)| rank(n, q).is_some_and(|r| n - 1 - r >= 10))
            .map(|(q, label)| (label, self.quantile(q)))
    }
}

/// Zero-based nearest-rank index of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (q * n as f64).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_observed_values() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::new(vec![]).median(), 0.0);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.tail(), Some(("p90", 90.0)));
        let s = Samples::new((1..=1_000).map(f64::from).collect());
        assert_eq!(s.tail(), Some(("p99", 990.0)));
        assert_eq!(Samples::new(vec![1.0; 15]).tail(), None);
    }
}
