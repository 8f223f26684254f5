//! Readers for the `/proc` files the benchmark samples: process and
//! per-thread CPU time, and resident-set size.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 per
/// second by the Linux ABI.
pub const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time of a process or thread, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// Time spent in user mode.
    pub user_s: f64,
    /// Time spent in the kernel.
    pub sys_s: f64,
}

impl CpuTimes {
    /// User plus system time.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Time accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses the `utime` and `stime` fields (14 and 15) of a
/// `/proc/<pid>/stat` line. The command name (field 2) is wrapped in
/// parentheses and may itself contain spaces or `)`, so fields are
/// counted from the *last* `)`.
#[must_use]
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / TICKS_PER_SEC,
        sys_s: stime as f64 / TICKS_PER_SEC,
    })
}

/// Parses a `kB` field such as `VmHWM:` or `VmRSS:` of a
/// `/proc/<pid>/status` file into bytes.
#[must_use]
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = value.split_whitespace();
        let kb: u64 = parts.next()?.parse().ok()?;
        (parts.next()? == "kB").then_some(kb * 1024)
    })
}

/// CPU time of the whole process, dead threads included.
#[must_use]
pub fn process_cpu() -> Option<CpuTimes> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident-set size (`VmHWM`) in bytes.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    parse_status_kb(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Current resident-set size (`VmRSS`) in bytes.
#[must_use]
pub fn rss_bytes() -> Option<u64> {
    parse_status_kb(&fs::read_to_string("/proc/self/status").ok()?, "VmRSS")
}

/// The calling thread's kernel thread id.
#[must_use]
pub fn current_tid() -> Option<u32> {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// On-CPU time of every live thread of this process, in nanoseconds,
/// from `/proc/self/task/<tid>/schedstat` (its first field).
#[must_use]
pub fn thread_run_ns() -> Vec<(u32, u64)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(u32, u64)> = dir
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let sched = fs::read_to_string(entry.path().join("schedstat")).ok()?;
            let ns: u64 = sched.split_whitespace().next()?.parse().ok()?;
            Some((tid, ns))
        })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT_TAIL: &str = "S 1 2 3 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 3 0 500 \
                             1000 200 18446744073709551615";

    #[test]
    fn stat_plain_comm() {
        let cpu = parse_stat_cpu(&format!("1234 (perfbench) {STAT_TAIL}")).unwrap();
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.75);
        assert_eq!(cpu.total_s(), 3.25);
    }

    #[test]
    fn stat_comm_with_spaces_and_parens() {
        for comm in ["(a b c)", "(x) y)", "())", "( ) ) 9 9 9 9)"] {
            let cpu = parse_stat_cpu(&format!("77 {comm} {STAT_TAIL}")).unwrap();
            assert_eq!(cpu.user_s, 2.5, "comm {comm}");
            assert_eq!(cpu.sys_s, 0.75, "comm {comm}");
        }
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu("77 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no parens at all"), None);
    }

    #[test]
    fn cpu_delta() {
        let a = CpuTimes {
            user_s: 1.0,
            sys_s: 2.0,
        };
        let b = CpuTimes {
            user_s: 1.5,
            sys_s: 2.25,
        };
        assert_eq!(
            b.since(&a),
            CpuTimes {
                user_s: 0.5,
                sys_s: 0.25
            }
        );
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456 * 1024));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4096 * 1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A field name that is only a prefix of another must not match.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn live_process_reads() {
        assert!(process_cpu().is_some());
        assert!(peak_rss_bytes().unwrap() > 0);
        let tid = current_tid().unwrap();
        assert!(thread_run_ns().iter().any(|&(t, _)| t == tid));
    }
}
