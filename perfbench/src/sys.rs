//! Host facts read from `/proc` and `/sys`: peak RSS, CPU time, cache size.
//!
//! Every reader returns `None` when the file is missing or malformed, so the
//! benchmark still runs (and reports zeros) on hosts without procfs.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Logical CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds from a `/proc/.../stat` line. The command name
/// (field 2) may contain spaces, so fields are counted after its `)`.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds consumed by this whole process so far.
pub fn process_cpu_s() -> Option<f64> {
    stat_cpu_s(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// CPU seconds consumed so far by the live threads of this process whose
/// name starts with `prefix` (Linux truncates thread names to 15 bytes).
pub fn threads_cpu_s(prefix: &str) -> Option<f64> {
    let mut total = 0.0;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        if let Some(s) = fs::read_to_string(dir.join("stat"))
            .ok()
            .and_then(|s| stat_cpu_s(&s))
        {
            total += s;
        }
    }
    Some(total)
}

/// Size in bytes of the highest-level CPU cache of CPU 0.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let level = fs::read_to_string(dir.join("level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = fs::read_to_string(dir.join("size"))
            .ok()
            .and_then(|s| parse_size(s.trim()));
        if let (Some(level), Some(size)) = (level, size) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, size));
            }
        }
    }
    best.map(|(_, size)| size)
}

/// Parse a sysfs cache size such as `32768K` or `8M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_name() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }

    #[test]
    fn cache_sizes() {
        assert_eq!(parse_size("32768K"), Some(32 << 20));
        assert_eq!(parse_size("8M"), Some(8 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
