//! Order statistics over latency samples.

/// Median and tail of one sample set, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Nearest-rank median.
    pub p50_ns: u64,
    /// Nearest-rank 90th percentile.
    pub p90_ns: u64,
    /// Nearest-rank 99th percentile.
    pub p99_ns: u64,
    /// Samples strictly above the p99 rank; a p99 is only reported as
    /// valid with at least ten of them.
    pub beyond_p99: usize,
    /// Mean sample.
    pub mean_ns: f64,
}

impl Summary {
    /// Summarises `samples` (order does not matter).
    pub fn of(mut samples: Vec<u64>) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let p99 = rank(0.99);
        Summary {
            n,
            p50_ns: samples[rank(0.50)],
            p90_ns: samples[rank(0.90)],
            p99_ns: samples[p99],
            beyond_p99: n - 1 - p99,
            mean_ns: samples.iter().map(|&s| s as f64).sum::<f64>() / n as f64,
        }
    }

    /// Median in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_ns as f64 / 1e6
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99_ns as f64 / 1e6
    }
}

/// The median over consecutive windows of `samples` (in send order)
/// of `stat` of each window, with as many windows (up to
/// `max_windows`) as leave every window `min_per_window` samples. A
/// stall of the machine moves the statistic of the window it falls in,
/// not the median of them.
pub fn windowed(
    samples: &[u64],
    max_windows: usize,
    min_per_window: usize,
    stat: impl Fn(&Summary) -> u64,
) -> u64 {
    let windows = (samples.len() / min_per_window.max(1)).clamp(1, max_windows.max(1));
    let per = samples.len() / windows;
    let values: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * per
            };
            stat(&Summary::of(samples[w * per..end].to_vec())) as f64
        })
        .collect();
    median(&values) as u64
}

/// Median of a small set of measurements (set-up times, repeated
/// passes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let s = Summary::of((1..=1000).collect());
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.p90_ns, 900);
        assert_eq!(s.p99_ns, 990);
        assert_eq!(s.beyond_p99, 10);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_figure() {
        let mut samples: Vec<u64> = (0..5000).map(|i| 100 + i % 100).collect();
        for s in &mut samples[1000..1100] {
            *s = 1_000_000;
        }
        assert_eq!(Summary::of(samples.clone()).p99_ns, 1_000_000);
        assert_eq!(windowed(&samples, 5, 1000, |s| s.p99_ns), 198);
        // Too few samples for two windows: the plain p99.
        assert_eq!(windowed(&samples[..1500], 5, 1000, |s| s.p99_ns), 1_000_000);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
