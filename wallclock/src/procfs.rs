//! What Linux reports about this process: CPU time, resident memory,
//! threads and their context switches.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ` is 100
/// on every Linux architecture Rust targets.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time so far, user and system, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuMs {
    pub user: f64,
    pub system: f64,
}

impl CpuMs {
    pub fn total(self) -> f64 {
        self.user + self.system
    }

    pub fn since(self, earlier: CpuMs) -> CpuMs {
        CpuMs {
            user: self.user - earlier.user,
            system: self.system - earlier.system,
        }
    }
}

/// `utime` and `stime` from a `stat` file's text: fields 14 and 15, counted
/// after the parenthesised command name (which may itself hold spaces).
fn parse_stat_cpu(stat: &str) -> Option<CpuMs> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_ascii_whitespace();
    // `after_name` starts at field 3 (state); utime is field 14.
    let user: f64 = fields.nth(11)?.parse().ok()?;
    let system: f64 = fields.next()?.parse().ok()?;
    Some(CpuMs {
        user: user * 1000.0 / TICKS_PER_S,
        system: system * 1000.0 / TICKS_PER_S,
    })
}

/// CPU time of the whole process, exited threads included.
pub fn process_cpu() -> Option<CpuMs> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Milliseconds of processor time, summed over all CPUs, that the
/// hypervisor gave to something else while this machine wanted to run: the
/// `steal` column of `/proc/stat`. Zero on bare metal.
pub fn host_steal_ms() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .nth(7)?
        .parse()
        .ok()?;
    Some(ticks * 1000.0 / TICKS_PER_S)
}

/// The value in kB of a `Name:   123 kB` line of `/proc/self/status`.
fn status_kb(status: &str, name: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resident set size of the process now, in MB (`VmRSS`). The kernel keeps
/// a process-wide high-water mark too (`VmHWM`), but it cannot be reset, so
/// it would credit every episode with its predecessors' peak.
pub fn rss_mb() -> Option<f64> {
    status_kb(&fs::read_to_string("/proc/self/status").ok()?, "VmRSS").map(|kb| kb / 1024.0)
}

/// One live thread's name, CPU time and context switches.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadStat {
    pub tid: u64,
    pub name: String,
    pub cpu: CpuMs,
    pub context_switches: u64,
}

/// Every live thread of this process. Threads that exit between the
/// directory listing and the reads are skipped.
pub fn threads() -> Vec<ThreadStat> {
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            let status = fs::read_to_string(path.join("status")).ok()?;
            let switches = |name| {
                status
                    .lines()
                    .find_map(|line: &str| line.strip_prefix(name)?.strip_prefix(':'))
                    .and_then(|value| value.trim().parse::<u64>().ok())
            };
            Some(ThreadStat {
                tid,
                name: fs::read_to_string(path.join("comm"))
                    .ok()?
                    .trim()
                    .to_string(),
                cpu: parse_stat_cpu(&fs::read_to_string(path.join("stat")).ok()?)?,
                context_switches: switches("voluntary_ctxt_switches")?
                    + switches("nonvoluntary_ctxt_switches")?,
            })
        })
        .collect()
}

/// Context switches between two thread listings, over the threads present
/// in both (by thread id).
pub fn context_switches_between(start: &[ThreadStat], end: &[ThreadStat]) -> u64 {
    end.iter()
        .filter_map(|later| {
            let earlier = start.iter().find(|thread| thread.tid == later.tid)?;
            Some(
                later
                    .context_switches
                    .saturating_sub(earlier.context_switches),
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_spaces_in_the_command_name() {
        let stat = "4242 (my (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 9 0 100";
        assert_eq!(
            parse_stat_cpu(stat),
            Some(CpuMs {
                user: 2500.0,
                system: 500.0
            })
        );
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_lines_parse() {
        let status = "Name:\twallclock\nVmHWM:\t  20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(20480.0));
        assert_eq!(status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(process_cpu().is_some());
        assert!(host_steal_ms().is_some_and(|ms| ms >= 0.0));
        assert!(rss_mb().is_some_and(|mb| mb > 0.0));
        let listing = threads();
        assert!(!listing.is_empty());
        assert_eq!(context_switches_between(&listing, &listing), 0);
    }
}
