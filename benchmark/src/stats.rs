//! Order statistics over measured samples.

/// Sort ascending. Samples are finite measurements; a NaN would be a harness bug.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100); 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the acceptance rule for run-to-run
/// spread is stated in those terms. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let len = s.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread as a share of the median — what the bounds are compared
/// against. From four values on it is the interquartile range (the acceptance
/// rule's statistic); quartiles of two or three values are extrapolations
/// wider than the data, so there it is the plain range.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return None;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values)?;
        q3 - q1
    } else {
        let s = sorted(values.to_vec());
        s[s.len() - 1] - s[0]
    };
    Some(width / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some((15.0, 120.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&ten), Some(5.5 / 5.5));
        // Two values: the plain range over their median.
        assert_eq!(relative_spread(&[90.0, 110.0]), Some(0.2));
        assert_eq!(relative_spread(&[5.0]), None);
    }
}
