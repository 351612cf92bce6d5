//! Process counters read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: u64 = 100;

fn status_number(status: &str, key: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
    rest.trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_number(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU time of the whole process so far, ms (10 ms ticks).
pub fn cpu_ms() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, so the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 1000 / TICKS_PER_S
}

fn switches_in(status: &str) -> u64 {
    status_number(status, "voluntary_ctxt_switches").unwrap_or(0)
        + status_number(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Voluntary + involuntary context switches summed over every live thread.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| switches_in(&s))
        .sum()
}

/// Context switches of the calling thread.
pub fn thread_ctx_switches() -> u64 {
    switches_in(&fs::read_to_string("/proc/thread-self/status").unwrap_or_default())
}
