//! Order statistics the report is built from.

/// Sorts samples ascending (total order, NaN last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Nearest-rank percentile `q` in `[0, 1]` of ascending `sorted`; 0 when
/// there are no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

/// A window of [`calm_median`] with fewer samples than this has no median
/// worth taking.
const MIN_WINDOW_SAMPLES: usize = 16;

/// The median a timing sits at while the host leaves the run alone.
/// `samples` are `(time_ns, value)`: they are cut into consecutive windows
/// of `window_ns` by their times, every window with at least
/// [`MIN_WINDOW_SAMPLES`] of them gives its median, and the result is the
/// first decile of those medians. A disturbance of the host only ever adds
/// time, and in an open loop only to the requests of its own window, so the
/// low windows are the undisturbed ones. The plain median when no window is
/// full enough.
pub fn calm_median(samples: &[(u64, f64)], window_ns: u64) -> f64 {
    let mut by_time = samples.to_vec();
    by_time.sort_by_key(|&(at, _)| at);
    let medians: Vec<f64> = by_time
        .chunk_by(|a, b| a.0 / window_ns == b.0 / window_ns)
        .filter(|window| window.len() >= MIN_WINDOW_SAMPLES)
        .map(|window| median(&window.iter().map(|&(_, v)| v).collect::<Vec<_>>()))
        .collect();
    if medians.is_empty() {
        return median(&samples.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    }
    percentile(&sorted(medians), 0.1)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percent, value)`; the median when the sample is too small for that.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 21 {
        return (50.0, percentile(sorted, 0.5));
    }
    (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11])
}

/// Rates of `parts` equal consecutive slices of a run: `stamps_ns` holds
/// the completion time of every operation in completion order, `start_ns`
/// the start of the run. Slice `i` ends at its last operation's stamp.
pub fn slice_rates(stamps_ns: &[u64], start_ns: u64, parts: usize) -> Vec<f64> {
    let per = stamps_ns.len() / parts;
    if per == 0 {
        return Vec::new();
    }
    let mut begin = start_ns;
    (0..parts)
        .map(|i| {
            let end = stamps_ns[(i + 1) * per - 1];
            let rate = per as f64 / ((end - begin).max(1) as f64 / 1e9);
            begin = end;
            rate
        })
        .collect()
}

/// `(max - min) / median` of the samples; 0 when there are none.
pub fn spread(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match (s.first(), s.last()) {
        (Some(lo), Some(hi)) => (hi - lo) / percentile(&s, 0.5),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn calm_median_reads_the_undisturbed_windows() {
        // 20 windows of 100 samples at 500; a busy host adds 300 to
        // thirteen of them
        let mut samples = Vec::new();
        for window in 0..20u64 {
            let extra = if window % 3 == 0 { 0.0 } else { 300.0 };
            for i in 0..100u64 {
                samples.push((window * 1_000 + i * 10, 500.0 + extra));
            }
        }
        samples.reverse(); // the order samples come in does not matter
        let plain = median(&samples.iter().map(|&(_, v)| v).collect::<Vec<_>>());
        assert_eq!(plain, 800.0);
        assert_eq!(calm_median(&samples, 1_000), 500.0);
        // windows too thin for a median of their own: the plain median
        let thin: Vec<(u64, f64)> = (0..10).map(|i| (i * 1_000, i as f64)).collect();
        assert_eq!(calm_median(&thin, 1_000), 4.0);
        assert_eq!(calm_median(&[], 1_000), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = sorted((1..=1000).map(f64::from).collect());
        let (pct, value) = tail(&s);
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-9);
        assert_eq!(s.iter().filter(|&&v| v > value).count(), 10);
        // too few samples for any tail: fall back to the median
        assert_eq!(tail(&s[..15]), (50.0, 8.0));
    }

    #[test]
    fn slice_rates_and_their_median() {
        // 10 operations, one per millisecond, then 10 twice as fast
        let mut stamps: Vec<u64> = (1..=10).map(|i| i * 1_000_000).collect();
        stamps.extend((1..=10).map(|i| 10_000_000 + i * 500_000));
        let rates = slice_rates(&stamps, 0, 2);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 1000.0).abs() < 1e-6);
        assert!((rates[1] - 2000.0).abs() < 1e-6);
        assert!((spread(&rates) - 1000.0 / 1000.0).abs() < 1e-9);
        assert!(slice_rates(&stamps[..3], 0, 5).is_empty());
    }
}
