//! Process and host probes: CPU steal from `/proc/stat`, peak resident
//! memory from `/proc/self/status`, CPU time from `getrusage`.

/// Cumulative CPU jiffies of the whole host: `(steal, total)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuJiffies {
    steal: u64,
    total: u64,
}

impl CpuJiffies {
    /// Reads the aggregate `cpu` line of `/proc/stat` (zeros where the
    /// file is missing, so the steal share then reads 0).
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuJiffies::default();
        };
        // user nice system idle iowait irq softirq steal (guest time is
        // already folded into user/nice).
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
        CpuJiffies { steal: fields.get(7).copied().unwrap_or(0), total: fields.iter().sum() }
    }

    /// Percentage of host CPU time stolen by the hypervisor since `start`.
    pub fn steal_pct_since(self, start: CpuJiffies) -> f64 {
        let total = self.total.saturating_sub(start.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(start.steal) as f64 / total as f64
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident size, so the
/// next [`peak_rss_mb`] reads the peak since now. False where the kernel
/// does not support it (the peak then covers the whole process life).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the allocator's free memory to the kernel (glibc
/// `malloc_trim`), so resident memory is what live allocations use.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a plain byte count and only releases
    // memory the allocator holds free; no Rust object refers to it.
    unsafe {
        malloc_trim(0);
    }
}

/// No allocator trim outside glibc.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// User plus system CPU time this process has used, in milliseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ms() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s then 14 longs.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    ms(usage.utime) + ms(usage.stime)
}

/// Fallback where the `rusage` layout above does not hold: reports 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ms() -> f64 {
    0.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host record printed with every run: what a number was measured on.
pub fn record(workload: &str, threads: usize, workers: usize, steal_pct: f64) -> String {
    format!(
        "{{\"host\":{{\"workload\":\"{workload}\",\"nproc\":{},\"isa\":\"{}\",\"threads\":{threads},\
         \"workers\":{workers},\"host.steal_pct\":{steal_pct},\"rustc\":\"{}\"}}}}",
        nproc(),
        lof_core::simd::active().key(),
        env!("PERFBENCH_RUSTC"),
    )
}
