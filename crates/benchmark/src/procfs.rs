//! Process CPU time and peak memory, read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`. The command
/// name (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `<key>: <n> kB` line of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_ticks(&stat)? as f64 / TICKS_PER_SECOND)
}

/// CPU seconds (user + system) the calling thread has used.
pub fn thread_cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/thread-self/stat").ok()?;
    Some(parse_stat_ticks(&stat)? as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (e2e (x) y) S 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    731 269 0 0 20 0 4 0 12345 100000 2000 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1000));
        assert_eq!(parse_stat_ticks("no paren"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_in_kb() {
        let status = "Name:\te2e\nVmPeak:\t  90000 kB\nVmHWM:\t   20480 kB\nThreads:\t4\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(90000));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn this_process_reads_itself() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(thread_cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
