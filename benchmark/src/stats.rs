//! Order statistics for the benchmark's reports.

/// Samples that must lie beyond a percentile before it may be reported:
/// a p95 needs at least 200 samples, a p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of `samples`, interpolated
/// linearly between closest ranks. Refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it, so a tail is never read off a
/// handful of points.
pub fn percentile(samples: &[f64], p: u32) -> Result<f64, String> {
    if !(1..100).contains(&p) {
        return Err(format!("percentile p{p} is outside 1..=99"));
    }
    let n = samples.len();
    let beyond = n * (100 - p as usize) / 100;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are required"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * (n - 1)) as f64 / 100.0;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Arithmetic mean (NaN for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median (NaN for no samples).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread computed here matches one computed from the printed values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median's magnitude.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_tails_without_ten_samples_beyond() {
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(
            percentile(&xs, 95).is_err(),
            "199 samples leave 9 beyond p95"
        );
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(percentile(&xs, 95).is_ok());
        assert!(percentile(&xs[..19], 50).is_err());
        assert!(percentile(&xs[..20], 50).is_ok());
        assert!(percentile(&xs[..49], 80).is_err());
        assert!(percentile(&xs[..50], 80).is_ok());
        assert!(percentile(&xs, 0).is_err());
        assert!(percentile(&xs, 100).is_err());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50).unwrap(), 11.0);
        let xs: Vec<f64> = (0..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95).unwrap(), 190.0);
        let xs: Vec<f64> = (0..20).map(|i| f64::from(i) * 2.0).collect();
        assert_eq!(percentile(&xs, 50).unwrap(), 19.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 8.0, 4.0, 2.0, 1.0]), (1.5, 12.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), (8.25 - 2.75) / 5.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
