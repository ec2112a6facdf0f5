//! Order statistics over timing samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100).
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// The tail figure: the highest whole percentile that still has at least
/// ten samples above its nearest-rank position. With 20 or fewer samples
/// no such percentile exceeds the median, so the median is reported.
/// Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, u32) {
    let n = xs.len();
    let p = (50..=99)
        .rev()
        .find(|&p| n >= 10 + (p as usize * n).div_ceil(100))
        .unwrap_or(50);
    if p == 50 {
        (median(xs), 50)
    } else {
        (percentile(xs, p), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90));
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        // p60 → rank 15, ten samples above it.
        assert_eq!(tail(&xs), (15.0, 60));
        assert_eq!(tail(&[1.0, 2.0, 3.0]).1, 50);
    }
}
