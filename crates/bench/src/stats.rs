//! Small statistics helpers for the experiment tables.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Five-number summary (min, first quartile, median, third quartile,
/// max) — the whisker/box statistics of the distribution figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FiveNum {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

/// Computes the five-number summary of `xs` (linear interpolation
/// between order statistics).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn five_number_summary(xs: &[f64]) -> FiveNum {
    assert!(!xs.is_empty(), "five-number summary of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    FiveNum {
        min: v[0],
        q1: percentile(&v, 0.25),
        median: percentile(&v, 0.5),
        q3: percentile(&v, 0.75),
        max: v[v.len() - 1],
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let idx = p * (n - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn five_number_summary_of_known_sample() {
        let s = five_number_summary(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn five_number_summary_singleton() {
        let s = five_number_summary(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = five_number_summary(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn five_number_summary_empty_panics() {
        let _ = five_number_summary(&[]);
    }
}
