//! What the host tells us: process CPU time, steal, peak RSS, a
//! fingerprint for every result, a stream-sum bandwidth ceiling and a
//! fixed calibration kernel that flags a disturbed run.
//!
//! Linux `/proc` and `/sys` only; every reader degrades to zero or
//! `"unknown"` elsewhere rather than failing the run.

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc` times. `sysconf` is not
/// reachable from std; every Linux target this repo builds for uses 100.
const CLK_TCK: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Process CPU time so far (user + system, all threads).
pub fn cpu_time() -> Duration {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: f64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    Duration::from_secs_f64(ticks / CLK_TCK)
}

/// `(steal, total)` CPU ticks of the whole machine since boot.
pub fn machine_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so sum the first eight.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Steal time between two [`machine_ticks`] readings, percent of all
/// CPU time in the interval.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The KiB value of line `key` in a `/proc` key-value file.
fn kib_field(path: &str, key: &str) -> u64 {
    read(path)
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    kib_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

/// Threads the host can run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Last-level cache size the OS reports for cpu0, bytes (0 if unknown).
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let kind = read(&format!("{dir}/type"));
            if kind.trim() == "Instruction" {
                return None;
            }
            let size = read(&format!("{dir}/size"));
            let size = size.trim();
            let (digits, unit) = size.split_at(size.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => return None,
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a result came from; recorded with every result so two files
/// are only compared knowingly across hosts or toolchains.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` of cpu0.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// Short git revision of the checkout, `unknown` outside a repo.
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    pub fn read() -> Self {
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        Self {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

/// Sums a `bytes`-sized `u64` buffer `passes` times on one thread and
/// returns the best pass's bandwidth in GB/s — the stream-sum ceiling
/// the engine's index streaming is set against (Fig. 6's roofline
/// pointed at this host). Best-of, because a ceiling is what the
/// hardware can do, not what it did while disturbed.
pub fn stream_gbps(bytes: u64, passes: usize) -> f64 {
    let words = (bytes / 8).max(1) as usize;
    // Non-constant contents so the sum cannot be folded away; written
    // once, which also faults every page in before timing.
    let buf: Vec<u64> = (0..words as u64).collect();
    let mut best = f64::MAX;
    for _ in 0..passes {
        let started = Instant::now();
        let sum = black_box(&buf)
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(w));
        black_box(sum);
        best = best.min(started.elapsed().as_secs_f64());
    }
    (words * 8) as f64 / best / 1e9
}

/// Size of the DRAM stream buffer: at least four times the reported
/// last-level cache so the sum cannot be served from it, capped at
/// 1 GiB and at a quarter of the memory the OS says is available.
pub fn dram_buffer_bytes() -> u64 {
    let available = kib_field("/proc/meminfo", "MemAvailable:") * 1024;
    let want = (4 * llc_bytes()).clamp(64 << 20, 1 << 30);
    if available == 0 {
        want
    } else {
        want.min(available / 4)
    }
}

/// A fixed, cache-resident integer kernel (≈10 ms). Timed at every
/// round start: the spread of its timings across a run is
/// `host.calib_spread_pct`, and a spread above 5 % marks the run
/// `disturbed` — the host changed speed under the benchmark.
pub fn calibration_kernel() -> Duration {
    let started = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_never_fail() {
        // Values are host-dependent; the contract is "no panic, sane".
        let before = machine_ticks();
        assert!(cpu_time() < Duration::from_secs(3600 * 24 * 365));
        assert!(peak_rss_mib() >= 0.0);
        assert!(nproc() >= 1);
        let pct = steal_pct(before, machine_ticks());
        assert!((0.0..=100.0).contains(&pct));
        assert!(dram_buffer_bytes() > 0);
        assert!(calibration_kernel() > Duration::ZERO);
        assert!(stream_gbps(1 << 16, 2) > 0.0);
    }

    #[test]
    fn steal_is_a_share_of_the_interval() {
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
        assert_eq!(steal_pct((10, 1000), (15, 1100)), 5.0);
    }
}
