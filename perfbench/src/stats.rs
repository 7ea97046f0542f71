//! Order statistics for the reported timings.

/// Samples needed beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{:.2} of n={}", self.percentile, self.samples)
    }
}

/// The tail of `values`: with `n` samples sorted ascending, the value at
/// rank `n - 10` (1-based), which has exactly ten samples above it, and
/// its percentile `100 (n - 10) / n`. `None` when `n <= 10`, where no
/// sample has ten others beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(values);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the rule cannot rely on input order.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn tail_percentile_follows_sample_count() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.value, t.percentile), (9990.0, 99.9));
        // Exactly ten samples lie beyond the reported value.
        for n in [11, 37, 250, 4096] {
            let values = ramp(n);
            let t = tail(&values).unwrap();
            assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
