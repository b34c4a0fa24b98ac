//! Order statistics over latency samples, and `/proc` parsing for the
//! daemon's memory high-water mark and thread count.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `pct` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(pct > 0.0 && pct <= 100.0, "percentile {pct} out of range");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as `statistics.median` computes it (mean of the two middle
/// samples for an even count), so the numbers here line up with the
/// quartiles the acceptance procedure takes in Python.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last
/// cut point.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    assert!(sorted.len() >= 2, "quartiles need two samples");
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Sorted copy (samples are finite by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// The candidate tail percentiles, highest first, each with the share
/// of samples beyond it in thousandths (integers, so that 10,000
/// samples have exactly ten beyond p99.9).
const TAILS: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest tail percentile that still has at least ten samples
/// beyond it among `n` — a tail read off fewer samples is one or two
/// outliers, not a property of the system. `None` below 40 samples.
pub fn resolvable_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(pct, _)| pct)
}

/// A `<Key>:   <n> kB` or `<Key>:   <n>` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 180.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median([1,2,3,4]) == 2.5
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
        let v = sorted(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]);
        assert_eq!(quartiles(&v), (1.75, 5.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(resolvable_tail(39), None);
        assert_eq!(resolvable_tail(40), Some(75.0));
        assert_eq!(resolvable_tail(99), Some(75.0));
        assert_eq!(resolvable_tail(100), Some(90.0));
        assert_eq!(resolvable_tail(199), Some(90.0));
        assert_eq!(resolvable_tail(200), Some(95.0));
        assert_eq!(resolvable_tail(1_000), Some(99.0));
        assert_eq!(resolvable_tail(10_000), Some(99.9));
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tindaas\nVmPeak:\t  300000 kB\nVmHWM:\t   45120 kB\nThreads:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(45120));
        assert_eq!(parse_status_field(status, "Threads"), Some(3));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }
}
