//! Statistics helpers for the experiment harness.
//!
//! The paper reports results as "average ± standard deviation over N runs"
//! (Tables III and V) and averages of L1 distances over 12 properties.

/// Mean of a slice; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice; 0 when length < 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Mean and population standard deviation of a slice in one pass
/// (Welford's online update); both 0 when empty, the deviation 0 for
/// fewer than 2 values.
///
/// The paper reports the standard deviation over a fixed set of 12
/// property distances / a fixed set of runs, which is a population (not
/// sample) statistic, so the variance divides by `n`.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let (mut mean, mut m2) = (0.0f64, 0.0f64);
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    let sd = if xs.len() < 2 {
        0.0
    } else {
        (m2 / xs.len() as f64).sqrt()
    };
    (mean, sd)
}

/// Rounds to the nearest integer with ties away from zero — the
/// `NearInt(a)` function of the paper (used when converting real-valued
/// estimates to integer targets).
pub fn near_int(a: f64) -> i64 {
    a.round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_slice_statistics() {
        let xs = [1.0, 2.0, 3.5, -1.0, 7.25, 0.0];
        let (m, s) = mean_std(&xs);
        assert!((m - mean(&xs)).abs() < 1e-12);
        assert!((s - std_dev(&xs)).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[4.0]), (4.0, 0.0));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[2.0]), 0.0);
    }

    #[test]
    fn near_int_rounds_half_away_from_zero() {
        assert_eq!(near_int(0.4), 0);
        assert_eq!(near_int(0.5), 1);
        assert_eq!(near_int(1.5), 2);
        assert_eq!(near_int(-0.5), -1);
        assert_eq!(near_int(2.49), 2);
    }

    #[test]
    fn mean_std_pair() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }
}
