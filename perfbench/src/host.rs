//! The host stamp: core count, CPU steal over the measured window, and
//! the process's peak resident memory (Linux `/proc`); and the process's
//! CPU clock, which requests are also timed on.

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> Result<Self, String> {
        let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        Self::parse(&stat).ok_or_else(|| "/proc/stat: no aggregate cpu line".to_string())
    }

    fn parse(stat: &str) -> Option<Self> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let ticks: Vec<u64> =
            line.split_whitespace().skip(1).map(|t| t.parse().ok()).collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal; guest time is
        // already counted inside user/nice.
        let total = ticks.iter().take(8).sum();
        Some(CpuTimes { steal: *ticks.get(7)?, total })
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`, in %.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of all the process's threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time used so far by all threads of this process, in ms. Time the
/// hypervisor steals from a vCPU is not counted: the guest kernel leaves
/// it out of every task's run time.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`; the C library
    // is linked by `std` on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status: no VmHWM line")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_the_window() {
        let a = CpuTimes::parse("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n").expect("parses");
        let b = CpuTimes::parse("cpu  150 0 60 900 10 0 0 80 0 0\n").expect("parses");
        assert_eq!(a.total, 1000);
        assert!((b.steal_pct_since(&a) - 20.0).abs() < 1e-12);
        assert!(CpuTimes::parse("intr 1 2\n").is_none());
    }

    #[test]
    fn process_cpu_clock_counts_work_not_sleep() {
        let start = process_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = process_cpu_ms() - start;
        let mut x = 1u64;
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let worked = process_cpu_ms() - start - slept;
        assert!(slept < 10.0, "sleeping used {slept} ms of CPU");
        assert!(worked > 10.0, "50 ms of spinning used {worked} ms of CPU");
    }
}
