//! Order statistics over measured samples, and the time conversions they
//! are taken in.

use std::time::{Duration, Instant};

/// A duration in seconds, with all its digits.
pub fn secs(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e9
}

/// Microseconds since `t0`.
pub fn us(t0: Instant) -> f64 {
    secs(t0.elapsed()) * 1e6
}

/// The value at quantile `q` in `[0, 1]` by nearest rank on a sorted copy
/// (`sorted[round((n - 1) * q)]`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    v[rank]
}

/// The median (nearest rank, upper middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
