//! Sample statistics over wall-clock measurements.

use std::time::Duration;

/// Durations of one kind of operation.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<Duration>);

impl Samples {
    /// Empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Median in milliseconds (mean of the two middle values for an even
    /// count; 0 when empty).
    pub fn median_ms(&self) -> f64 {
        median(&self.ms())
    }

    /// Mean in milliseconds after dropping the `trim` share of samples
    /// (rounded up) at each end; the median when that leaves nothing, 0
    /// when empty.
    pub fn trimmed_mean_ms(&self, trim: f64) -> f64 {
        let mut ms = self.ms();
        ms.sort_by(f64::total_cmp);
        let k = (ms.len() as f64 * trim).ceil() as usize;
        if 2 * k >= ms.len() {
            return median(&ms);
        }
        let kept = &ms[k..ms.len() - k];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// Nearest-rank percentile `q` (0..=1) in milliseconds (0 when empty).
    pub fn percentile_ms(&self, q: f64) -> f64 {
        let mut ms = self.ms();
        if ms.is_empty() {
            return 0.0;
        }
        ms.sort_by(f64::total_cmp);
        phoenix_obs::stats::percentile(&ms, q)
    }

    /// Every measurement in milliseconds, in insertion order.
    pub fn ms(&self) -> Vec<f64> {
        self.0.iter().map(|d| d.as_secs_f64() * 1e3).collect()
    }
}

/// Median of `xs` (mean of the two middle values for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`, summed in sorted order so the result does not depend on
/// the order parallel workers produced the values in (0 when empty).
pub fn stable_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut s = Samples::new();
        for ms in [100, 1, 2, 3, 4, 5, 6, 7, 8, 0] {
            s.push(Duration::from_millis(ms));
        }
        assert!((s.trimmed_mean_ms(0.1) - 4.5).abs() < 1e-9);
        let mut two = Samples::new();
        two.push(Duration::from_millis(1));
        two.push(Duration::from_millis(3));
        assert!((two.trimmed_mean_ms(0.1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stable_mean_ignores_input_order() {
        let a = [0.1, 0.7, 1e-9, 3.3, 0.2];
        let mut b = a;
        b.reverse();
        assert_eq!(stable_mean(&a).to_bits(), stable_mean(&b).to_bits());
    }
}
