//! Small helpers: order statistics, the output digest, process memory.

use std::time::Instant;

/// FNV-1a over `bytes`: the digest pinned for every `cwfmem.run.v1`
/// document (same construction the repository uses for config digests).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Smallest value (`u64::MAX` for an empty slice).
pub fn min(xs: &[u64]) -> u64 {
    xs.iter().copied().min().unwrap_or(u64::MAX)
}

/// Value at quantile `q` (nearest rank on the sorted samples).
pub fn quantile(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut s = xs.to_vec();
    s.sort_unstable();
    let rank = (q * (s.len() - 1) as f64).round() as usize;
    s[rank.min(s.len() - 1)]
}

/// Median of `xs` (nearest rank).
pub fn median(xs: &[u64]) -> u64 {
    quantile(xs, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
