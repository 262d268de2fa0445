//! Percentiles, medians, means and process memory.

/// Nearest-rank percentile of `samples` (`p` in whole percent): the value
/// at rank `ceil(p·n/100)` of the sorted samples.
///
/// # Errors
///
/// Fails when fewer than ten samples lie beyond that rank, so a reported
/// tail percentile always rests on at least ten worse samples.
pub fn percentile(samples: &[f64], p: u32) -> Result<f64, String> {
    assert!((1..=100).contains(&p), "percentile must be in 1..=100");
    let n = samples.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "p{p} of {n} samples has {beyond} samples beyond it; at least 10 are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count), 0 for
/// none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values`, 0 for none.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50).unwrap(), 50.0);
        assert_eq!(percentile(&v, 90).unwrap(), 90.0);
        // ceil(0.5 · 21) = 11: no interpolation between ranks.
        assert_eq!(percentile(&ramp(21), 50).unwrap(), 11.0);
        assert_eq!(percentile(&ramp(1_000), 99).unwrap(), 990.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 200 epochs leave exactly 10 beyond p95; 199 leave 9.
        assert_eq!(percentile(&ramp(200), 95).unwrap(), 190.0);
        let err = percentile(&ramp(199), 95).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        assert!(percentile(&ramp(999), 99).is_err());
        assert!(percentile(&ramp(19), 50).is_err());
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
