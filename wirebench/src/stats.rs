//! Percentiles by one rule everywhere.
//!
//! Nearest rank: the p-th percentile of n sorted samples is the sample at
//! rank ⌈p·n/100⌉ (1-based). The tail reported is p90, the highest
//! percentile that keeps at least ten samples beyond it once n ≥ 100;
//! every summary carries its sample count so a reader can see when it
//! does not.

/// The sample at nearest rank `p` (0 < p ≤ 100); `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median, p90 and the sample count of one latency class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: Option<f64>,
    pub p90: Option<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: percentile(&v, 50.0),
            p90: percentile(&v, 90.0),
        }
    }
}

/// Samples strictly beyond the p90 rank of `n` samples.
pub fn beyond_p90(n: usize) -> usize {
    n - ((0.9 * n as f64).ceil() as usize).min(n)
}

/// `/proc/self/status` `VmHWM` (peak resident set) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p50, s.p90), (100, Some(50.0), Some(90.0)));
        assert_eq!(beyond_p90(s.n), 10, "p90 of 100 keeps ten samples beyond");
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.p90), (3, Some(2.0), Some(3.0)));
        assert_eq!(beyond_p90(s.n), 0);
        let s = Summary::of(&[7.0]);
        assert_eq!((s.p50, s.p90), (Some(7.0), Some(7.0)));
    }

    #[test]
    fn empty_class_has_no_percentile_and_zero_count() {
        let s = Summary::of(&[]);
        assert_eq!((s.n, s.p50, s.p90), (0, None, None));
        assert_eq!(beyond_p90(s.n), 0);
    }

    #[test]
    fn sample_count_decides_whether_ten_lie_beyond_p90() {
        let s = Summary::of(&vec![1.0; 99]);
        assert_eq!(beyond_p90(s.n), 9);
        let s = Summary::of(&vec![1.0; 250]);
        assert_eq!(beyond_p90(s.n), 25);
    }
}
