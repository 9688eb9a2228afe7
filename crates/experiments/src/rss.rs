//! Resident-memory introspection for the scale experiments.
//!
//! Linux-only (reads `/proc/self/status`); elsewhere the probes return
//! `None` and callers print `n/a`. Peak RSS (`VmHWM`) is the honest
//! bounded-memory metric for the streamed datagen path: it captures every
//! transient the process ever held, not just what is resident at the end.

/// Peak resident set size (`VmHWM`) of this process, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    status_field("VmHWM:")
}

/// Current resident set size (`VmRSS`) of this process, in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    status_field("VmRSS:")
}

/// Parses a `kB` line such as `VmHWM:     123456 kB` out of
/// `/proc/self/status`.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn probes_report_plausible_sizes() {
        // Current first: other tests in this binary allocate concurrently,
        // and a high-water mark read later can only be higher.
        let cur = current_rss_bytes().expect("VmRSS available on Linux");
        let peak = peak_rss_bytes().expect("VmHWM available on Linux");
        // A running test binary is at least a few hundred KiB resident and
        // the high-water mark can never be below the current residency.
        assert!(cur > 100 * 1024, "current rss {cur}");
        assert!(peak >= cur, "peak {peak} < current {cur}");
    }

    #[test]
    fn growth_is_observed_by_the_peak_probe() {
        let before = peak_rss_bytes();
        // Touch ~32 MiB so the high-water mark must move on Linux.
        let block = vec![1u8; 32 << 20];
        std::hint::black_box(&block);
        let after = peak_rss_bytes();
        if let (Some(b), Some(a)) = (before, after) {
            assert!(a >= b, "peak cannot decrease: {b} -> {a}");
        }
    }
}
