//! Small numeric helpers: medians, nearest-rank percentiles, the "highest
//! percentile the sample supports" rule, a uniform draw, and process CPU
//! time and memory.

use rand::RngCore;

/// Median of `xs` (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least ten
/// samples beyond it, as `(label, q)`; `None` below 20 samples.
pub fn supported_tail(count: usize) -> Option<(&'static str, f64)> {
    // (label, q, n): one sample in n lies past q, so ten beyond it needs
    // 10 * n samples, checked in exact integers.
    [
        ("p99.99", 0.9999, 10_000),
        ("p99.9", 0.999, 1_000),
        ("p99", 0.99, 100),
        ("p90", 0.9, 10),
        ("p50", 0.5, 2),
    ]
    .into_iter()
    .find(|&(_, _, n)| count >= 10 * n)
    .map(|(label, q, _)| (label, q))
}

/// One-line summary of a latency sample in microseconds: the median plus
/// the highest percentile with ten samples beyond it, and the count.
/// Failed requests are recorded as `u64::MAX` and print as `inf`.
pub fn describe_us(sorted_ns: &[u64]) -> String {
    let us = |ns: u64| {
        if ns == u64::MAX {
            "inf".to_string()
        } else {
            format!("{:.1}", ns as f64 / 1e3)
        }
    };
    let mut s = format!("median {} us", us(quantile(sorted_ns, 0.5)));
    if let Some((label, q)) = supported_tail(sorted_ns.len()) {
        s += &format!(", {label} {} us", us(quantile(sorted_ns, q)));
    }
    s + &format!(" (n = {})", sorted_ns.len())
}

/// Uniform in `[0, 1)`, from the top 53 bits of one draw.
pub fn unit_f64(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn vm_hwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system, all threads) a process has used, in seconds,
/// at the 10 ms resolution of /proc/<pid>/stat.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(100).map(|t| t.0), Some("p90"));
        assert_eq!(supported_tail(1000).map(|t| t.0), Some("p99"));
        assert_eq!(supported_tail(80_000).map(|t| t.0), Some("p99.9"));
    }
}
