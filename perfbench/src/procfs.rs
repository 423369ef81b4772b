//! Process CPU time and peak memory from `/proc`, and the provenance
//! every result records.

use std::fs;
use std::path::Path;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exports to user space).
const TICKS_PER_S: f64 = 100.0;

/// utime + stime of a `/proc/<pid>/stat`-format file, in milliseconds.
fn cpu_ms(path: &str) -> Result<f64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // The command name may hold spaces and parentheses; fields after
    // the last ')' start at field 3 (state), so utime and stime
    // (fields 14 and 15) are the 12th and 13th of them.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok((tick(11)? + tick(12)?) * 1000.0 / TICKS_PER_S)
}

/// CPU time of the whole process, every thread, in milliseconds.
pub fn process_cpu_ms() -> Result<f64, String> {
    cpu_ms("/proc/self/stat")
}

/// CPU time of the calling thread, in milliseconds.
pub fn thread_cpu_ms() -> Result<f64, String> {
    cpu_ms("/proc/thread-self/stat")
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run ("steal"), and all CPU time, both summed over
/// every CPU, in clock ticks.
pub fn host_steal_ticks() -> Result<(u64, u64), String> {
    let text = fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .map(|f| f.parse().map_err(|_| "malformed /proc/stat".to_string()))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already part of user time.
    let steal = *ticks.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, ticks.iter().take(8).sum()))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns memory the allocator holds but no one uses to the system,
/// so set-up's garbage does not count as the run's resident memory.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes a plain integer, touches only the
    // allocator's own free lists under its locks, and is safe to call
    // at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the peak-RSS mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set size since the last reset, in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let text = fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; `unknown` in a checkout without one.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_rss_are_readable() {
        let spin: u64 = (0..2_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(process_cpu_ms().unwrap() >= thread_cpu_ms().unwrap());
        reset_peak_rss().unwrap();
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
