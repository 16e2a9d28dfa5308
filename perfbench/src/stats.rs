//! Order statistics and process measurements.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so the spread this
/// benchmark prints is the spread a Python check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot =
            (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64;
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Per-operation latency record of one run.
#[derive(Debug, Default)]
pub struct Latencies {
    ns: Vec<u64>,
    /// Operations each sample stands for (a serve batch answers many).
    weight: u64,
}

impl Latencies {
    /// A record whose every sample stands for `weight` operations.
    pub fn with_weight(weight: u64) -> Latencies {
        Latencies {
            ns: Vec::new(),
            weight,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn samples(&self) -> usize {
        self.ns.len()
    }

    /// Seconds spent inside timed operations.
    pub fn busy_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Operations per second of timed work.
    pub fn throughput(&self) -> f64 {
        (self.ns.len() as u64 * self.weight) as f64 / self.busy_s()
    }

    /// Percentile in microseconds. Every sample carries equal weight, so
    /// the percentile over samples is the percentile over operations.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut v = self.ns.clone();
        v.sort_unstable();
        percentile(&v, p) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
