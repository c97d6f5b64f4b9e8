//! What the benchmark reads from and asks of the host: one-core pinning,
//! CPU time split, thread count and peak resident memory.
//!
//! Everything degrades to "unknown" (zeros, unpinned) off Linux rather than
//! failing: the sim-clock metrics do not depend on it.

use std::fs;

/// 1024-bit CPU mask, the kernel's `cpu_set_t`.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin this process (and every thread it later spawns) to one of the CPUs
/// it is allowed to run on: the highest-numbered one, which interrupt
/// handling is least likely to share. Returns the CPU, or `None` when the
/// host refuses or is not Linux.
///
/// Exactly one simulation thread is runnable at any instant, so pinning
/// removes cross-core hand-offs, not parallelism.
pub fn pin_to_one_core() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable 128-byte buffer and the size
        // passed is its size; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
        if rc != 0 {
            return None;
        }
        let cpu = (0..1024usize)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live 128-byte buffer of the size passed; the
        // kernel only reads it.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// CPUs the process could use when this was first called (for the report
/// header; the command line calls it before anything pins).
pub fn available_cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

fn status_field(name: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(name))?;
    line[name.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB (`VmHWM`, what `getrusage`
/// reports as `ru_maxrss`); 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live threads of this process right now; 0 when unknown.
pub fn threads_now() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// `(user, system)` CPU time of the whole process so far, in clock ticks.
/// Only the ratio is used, so the tick length does not matter.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. 12th and 13th after `)`.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return (0, 0);
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime, stime)
}
