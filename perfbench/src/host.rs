//! Host-side measurements: process CPU time, peak resident memory, and the
//! order statistics the report is built from.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds the whole process has used so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and the
    // clock id is a valid constant, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap memory freed so far to the operating system, so the
/// next run's allocations land on fresh pages. Which pages a process gets
/// changed its set-up time by up to 1.6× on a 2-vCPU Xeon VM; releasing
/// between runs samples that per run, where a run's median averages it,
/// instead of fixing it for the whole process.
pub fn release_freed_memory() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` only returns free heap memory to the kernel;
    // it takes no pointers and is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// Linux `_SC_CLK_TCK`: the unit of the times in `/proc/stat`.
const SC_CLK_TCK: i32 = 2;

/// Seconds the hypervisor has so far kept this machine's virtual CPUs
/// from running while they had work (steal time, summed over CPUs); 0 where
/// `/proc/stat` does not report it. It moves in steps of one clock tick,
/// 10 ms.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    // "cpu  user nice system idle iowait irq softirq steal ..."
    let ticks: Option<f64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok());
    // SAFETY: `sysconf` reads a configuration constant; it takes no
    // pointers and has no side effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    match ticks {
        Some(t) if hz > 0 => t / hz as f64,
        _ => 0.0,
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// 64-bit words of a CPU mask: glibc's 1,024-CPU `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending; empty if the
/// kernel does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`.
///
/// # Panics
///
/// Panics if the kernel refuses a set that [`allowed_cpus`] returned.
pub fn pin_to(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed, only
    // read, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

/// Wall, CPU and steal time of one measured interval.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    steal: f64,
}

impl Stopwatch {
    /// Starts the clocks; their system calls fall outside the wall
    /// interval.
    pub fn start() -> Stopwatch {
        let steal = steal_seconds();
        let cpu = cpu_seconds();
        Stopwatch {
            wall: Instant::now(),
            cpu,
            steal,
        }
    }

    /// `(wall seconds, CPU seconds, steal seconds)` since
    /// [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - self.cpu;
        (wall, cpu, steal_seconds() - self.steal)
    }
}

/// The lowest of the per-lane medians, where `values[i]` was measured on
/// lane `i % lanes`: the speed on the machine's quietest CPU.
///
/// # Panics
///
/// Panics if some lane has no value.
pub fn fastest_lane_median(values: &[f64], lanes: usize) -> f64 {
    (0..lanes.max(1))
        .map(|lane| {
            let own: Vec<f64> = values
                .iter()
                .skip(lane)
                .step_by(lanes.max(1))
                .copied()
                .collect();
            median(&own)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. For 256 samples, p95 leaves 12 above.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=256).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 128.0);
        assert_eq!(percentile(&v, 95.0), 244.0);
        assert_eq!(v.iter().filter(|&&x| x > 244.0).count(), 12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Lane 0 holds 1, 3, 5; lane 1 holds 9, 2, 8.
        assert_eq!(fastest_lane_median(&[1.0, 9.0, 3.0, 2.0, 5.0, 8.0], 2), 3.0);
        assert_eq!(fastest_lane_median(&[4.0, 1.0, 2.0], 1), 2.0);
    }

    #[test]
    fn host_clocks_read() {
        let t = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let (wall, cpu, steal) = t.stop();
        assert!(wall > 0.0 && cpu > 0.0 && steal >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
