//! What `/proc` says about a process: peak resident set and CPU time.

use std::fs;

/// `VmHWM` of process `pid` in MiB (`"self"` for this process).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// has fixed `USER_HZ` at 100 on every architecture Rust targets.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid`, all
/// threads (dead ones included) — fields 14 and 15 of `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` from one `/proc/<pid>/stat` line. The command name
/// (field 2) may contain spaces and parentheses, so fields are counted
/// from the *last* closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_ticks(line), Some(12));
    }

    #[test]
    fn this_process_has_a_peak_rss_and_cpu_time() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(cpu_seconds("self").is_some());
    }
}
