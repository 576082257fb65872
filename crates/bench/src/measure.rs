//! Wall-clock and peak-RSS measurement shared by the `bench` harness
//! ([`crate::harness`]) and the fleet peak-RSS guards.
//!
//! Peak RSS is read from `VmHWM` in `/proc/self/status` — the kernel's
//! high-water mark for the process's resident set. The mark is monotonic
//! over the process lifetime (Linux only resets it via
//! `/proc/self/clear_refs`, which needs write access this tool does not
//! assume), so a sweep that measures several configurations must run them
//! in ascending footprint order: each cell's reading is then the true peak
//! *through* that cell, and the curve stays meaningful. A cell across
//! which the mark did not rise has no reading of its own (the mark is an
//! earlier cell's), and `bench` reports it as `null`.

use std::time::{Duration, Instant};

/// The result of [`measure`]: the closure's value plus what it cost.
#[derive(Debug)]
pub struct Measurement<T> {
    /// Whatever the measured closure returned.
    pub value: T,
    /// Wall-clock time the closure took.
    pub wall: Duration,
    /// Process-lifetime peak RSS in KiB after the closure ran, if the
    /// platform exposes it (see [`peak_rss_kb`]).
    pub peak_rss_kb: Option<u64>,
}

/// Process-lifetime peak resident set size in KiB (`VmHWM`), or `None`
/// when `/proc/self/status` is unavailable or unparsable (non-Linux).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run `f`, timing it and reading the post-run peak RSS.
pub fn measure<T>(f: impl FnOnce() -> T) -> Measurement<T> {
    let t = Instant::now();
    let value = f();
    let wall = t.elapsed();
    Measurement {
        value,
        wall,
        peak_rss_kb: peak_rss_kb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_times_the_closure_and_reads_rss() {
        let m = measure(|| {
            std::thread::sleep(Duration::from_millis(10));
            7u32
        });
        assert_eq!(m.value, 7);
        assert!(m.wall >= Duration::from_millis(10));
        // This suite runs on Linux; elsewhere the reading is just absent.
        if cfg!(target_os = "linux") {
            assert!(m.peak_rss_kb.is_some_and(|kb| kb > 0));
        }
    }

    #[test]
    fn peak_rss_is_monotonic() {
        let before = peak_rss_kb();
        // Touch a few MiB so the high-water mark has a chance to move.
        let v = vec![1u8; 4 << 20];
        std::hint::black_box(&v);
        let after = peak_rss_kb();
        if let (Some(b), Some(a)) = (before, after) {
            assert!(a >= b, "VmHWM went backwards: {b} -> {a}");
        }
    }
}
