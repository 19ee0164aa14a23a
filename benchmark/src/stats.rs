//! Order statistics: medians, the tail-percentile rule, and the quartile
//! spread the repeatability criterion is stated in.

/// Median of `values` (mean of the middle two for an even count); 0 for an
/// empty slice so a layer a workload never touches reports 0.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail a sample of `n` supports: the highest of 99.9 / 99 / 95 / 90 /
/// 75 with at least ten samples beyond it, or `None` under 40 samples
/// (where only the median is reported). A p99 of 50 samples is its
/// maximum — one scheduler hiccup — which is why tails are diagnostics
/// with their percentile and `n` stated, never end-to-end metrics.
pub fn supported_tail(n: usize) -> Option<f64> {
    // (percentile, share of the sample beyond it in 1/1000): integers, so
    // 10,000 samples have exactly ten beyond p99.9.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|(_, beyond)| n * beyond / 1000 >= 10)
        .map(|(pct, _)| pct)
}

/// A latency sample summarised by [`supported_tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` was read at; 50 when `n` supports no tail.
    pub tail_pct: f64,
    pub tail: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = median_sorted(&sorted);
    match supported_tail(sorted.len()) {
        Some(pct) => Summary {
            n: sorted.len(),
            p50,
            tail_pct: pct,
            tail: percentile_sorted(&sorted, pct),
        },
        None => Summary {
            n: sorted.len(),
            p50,
            tail_pct: 50.0,
            tail: p50,
        },
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's definition, so
/// `--compare` judges spread exactly as the driver does. `None` under two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let cut = |i: usize| {
        let pos = i * (len + 1);
        let j = (pos / 4).clamp(1, len - 1);
        // Outside 0..=4 once `j` was clamped: Python extrapolates there.
        let delta = pos as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; `None` when there are
/// too few values or the median is 0.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reads_the_supported_percentile() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.5, 99.0, 990.0));
        let few = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((few.tail_pct, few.tail), (50.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some((10.0, 30.0)));
        assert_eq!(quartile_spread(&ten), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
