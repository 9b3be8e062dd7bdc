//! Order statistics over exact samples: medians and the tail percentile a sample
//! can support.

/// The percentiles a tail may be reported at, highest first.
const TAIL_QUANTILES: [(f64, &str); 5] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.9, "p90"),
    (0.75, "p75"),
];

/// A sample needs this many values strictly beyond a percentile to report it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank quantile of an ascending slice: the `ceil(q * n)`-th smallest
/// value. Returns `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of a sample (mean of the two middle values when the count is even).
/// Returns `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest reportable percentile of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Its name, e.g. `"p99"`.
    pub label: &'static str,
    /// The quantile it stands for.
    pub quantile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// Sample count.
    pub count: usize,
}

/// The highest percentile of [`TAIL_QUANTILES`] with at least [`MIN_BEYOND`] samples
/// beyond its rank, or `None` when even p75 lacks them.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_QUANTILES.iter().find_map(|&(q, label)| {
        let r = rank(n.max(1), q);
        let beyond = n.saturating_sub(r);
        (n > 0 && beyond >= MIN_BEYOND).then(|| Tail {
            label,
            quantile: q,
            value: sorted[r - 1],
            beyond,
            count: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs = ramp(100);
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, exactly 10 beyond -> p99 qualifies, p99.9 does not.
        let t = tail(&ramp(1000)).expect("a tail");
        assert_eq!(
            (t.label, t.value, t.beyond, t.count),
            ("p99", 990.0, 10, 1000)
        );
        // 999 samples: p99 has 9 beyond, so the tail falls back to p95.
        let t = tail(&ramp(999)).expect("a tail");
        assert_eq!((t.label, t.beyond), ("p95", 49));
    }

    #[test]
    fn p999_with_ten_thousand_samples() {
        let t = tail(&ramp(10_000)).expect("a tail");
        assert_eq!((t.label, t.value, t.beyond), ("p99.9", 9990.0, 10));
    }

    #[test]
    fn tiny_samples_have_no_tail() {
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(40)).map(|t| t.label), Some("p75"));
    }
}
